//! Filter (§VI-C "Emulate Fault"): rule-based fault injection on the RDMA
//! data plane — "Linux netfilter does not work on RDMA", so the middleware
//! supplies its own. Rules can be enabled/disabled online via the tuning
//! system, which we mirror with plain setters.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_fabric::{NodeId, Packet};
use xrdma_rnic::engine::FilterVerdict;
use xrdma_rnic::Rnic;
use xrdma_sim::{Dur, SimRng};

/// One injection rule, applied to packets arriving at the host.
#[derive(Clone, Debug)]
pub struct FilterRule {
    /// Only match packets from this source (None = any).
    pub from: Option<NodeId>,
    /// Only match packets at least this large on the wire.
    pub min_size: u32,
    /// Probability the rule fires on a matching packet.
    pub probability: f64,
    /// What happens when it fires.
    pub action: FilterAction,
}

#[derive(Clone, Copy, Debug)]
pub enum FilterAction {
    Drop,
    Delay(Dur),
}

/// The per-host filter: owns the rule list and installs itself onto the
/// RNIC's receive path.
pub struct Filter {
    rules: Rc<RefCell<Vec<FilterRule>>>,
    enabled: Rc<Cell<bool>>,
    /// Matches by action (stats).
    pub dropped: Rc<Cell<u64>>,
    pub delayed: Rc<Cell<u64>>,
}

impl Filter {
    /// Create a filter and install it on `rnic`. Initially enabled with an
    /// empty rule list (passes everything).
    pub fn install(rnic: &Rc<Rnic>, rng: SimRng) -> Filter {
        let rules: Rc<RefCell<Vec<FilterRule>>> = Rc::new(RefCell::new(Vec::new()));
        let enabled = Rc::new(Cell::new(true));
        let dropped = Rc::new(Cell::new(0u64));
        let delayed = Rc::new(Cell::new(0u64));
        let rng = Rc::new(RefCell::new(rng));

        let r2 = rules.clone();
        let e2 = enabled.clone();
        let d2 = dropped.clone();
        let l2 = delayed.clone();
        rnic.set_filter(move |pkt: &Packet| {
            if !e2.get() {
                return FilterVerdict::Pass;
            }
            for rule in r2.borrow().iter() {
                if let Some(from) = rule.from {
                    if pkt.src != from {
                        continue;
                    }
                }
                if pkt.size_bytes < rule.min_size {
                    continue;
                }
                if !rng.borrow_mut().chance(rule.probability) {
                    continue;
                }
                return match rule.action {
                    FilterAction::Drop => {
                        d2.set(d2.get() + 1);
                        FilterVerdict::Drop
                    }
                    FilterAction::Delay(d) => {
                        l2.set(l2.get() + 1);
                        FilterVerdict::Delay(d)
                    }
                };
            }
            FilterVerdict::Pass
        });
        Filter {
            rules,
            enabled,
            dropped,
            delayed,
        }
    }

    /// Add a rule (applies immediately).
    pub fn add_rule(&self, rule: FilterRule) {
        self.rules.borrow_mut().push(rule);
    }

    /// Drop a fraction of everything from `from` (or all sources).
    pub fn drop_rate(&self, from: Option<NodeId>, probability: f64) {
        self.add_rule(FilterRule {
            from,
            min_size: 0,
            probability,
            action: FilterAction::Drop,
        });
    }

    /// Slow a fraction of matching packets by `extra`.
    pub fn slow_rate(&self, from: Option<NodeId>, probability: f64, extra: Dur) {
        self.add_rule(FilterRule {
            from,
            min_size: 0,
            probability,
            action: FilterAction::Delay(extra),
        });
    }

    /// Enable/disable online ("The developer can enable or disable filter
    /// online via the tuning system").
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }
}
