//! Filter (§VI-C "Emulate Fault"): rule-based fault injection on the RDMA
//! data plane — "Linux netfilter does not work on RDMA", so the middleware
//! supplies its own. It is a front end over `xrdma-faults`: each rule is a
//! receive-side spec on the thread's fault injector (the filter installs
//! one if none is current), so a Filter and a scheduled `FaultPlan` share
//! one injection point and one set of RNIC counters. Rules can be
//! enabled/disabled online via the tuning system, which we mirror with a
//! plain setter.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_fabric::NodeId;
use xrdma_faults::{FaultInjector, FaultKind, FaultPlan, FaultTarget, FaultsGuard};
use xrdma_rnic::Rnic;
use xrdma_sim::{Dur, SimRng};

/// The per-host filter: its rules act on packets arriving at one RNIC.
pub struct Filter {
    rnic: Rc<Rnic>,
    inj: Rc<FaultInjector>,
    /// This filter's specs, as indices into the injector's spec list.
    specs: RefCell<Vec<usize>>,
    enabled: Cell<bool>,
    /// Holds the injector installed by this filter, when it installed one.
    _guard: Option<FaultsGuard>,
}

impl Filter {
    /// Create a filter for `rnic`, initially enabled with no rules (passes
    /// everything).
    ///
    /// The filter binds to the injector current at this call: if none is,
    /// it installs one seeded with `rng` (otherwise `rng` is unused and
    /// rules draw from that injector's stream) and uninstalls it when the
    /// filter drops — other filters bound to it then stop injecting. A
    /// later [`FaultInjector::install`] replaces the bound injector the
    /// same way. Adding a rule or toggling the filter after either panics.
    pub fn install(rnic: &Rc<Rnic>, rng: SimRng) -> Filter {
        let guard = match FaultInjector::current() {
            Some(_) => None,
            None => Some(FaultInjector::install(rnic.world(), FaultPlan::new(), rng)),
        };
        Filter {
            rnic: rnic.clone(),
            inj: FaultInjector::current().expect("an injector is installed"),
            specs: RefCell::new(Vec::new()),
            enabled: Cell::new(true),
            _guard: guard,
        }
    }

    /// The bound injector, which must still be the one the hooks read.
    fn injector(&self) -> &FaultInjector {
        let current = FaultInjector::current().is_some_and(|c| Rc::ptr_eq(&c, &self.inj));
        assert!(
            current,
            "Filter's fault injector was replaced or uninstalled; its rules no longer apply"
        );
        &self.inj
    }

    fn add(&self, from: Option<NodeId>, kind: FaultKind) {
        let to = self.rnic.node().0;
        let target = match from {
            Some(from) => FaultTarget::Pair { from: from.0, to },
            None => FaultTarget::Node(to),
        };
        let inj = self.injector();
        let i = inj.add(target, kind);
        inj.set_open(i, self.enabled.get());
        self.specs.borrow_mut().push(i);
    }

    /// Drop a fraction of everything from `from` (or all sources).
    pub fn drop_rate(&self, from: Option<NodeId>, prob: f64) {
        self.add(from, FaultKind::Corrupt { prob });
    }

    /// Slow a fraction of the packets from `from` (or all sources) by
    /// `extra`.
    pub fn slow_rate(&self, from: Option<NodeId>, prob: f64, extra: Dur) {
        self.add(
            from,
            FaultKind::Reorder {
                prob,
                delay_ns: extra.as_nanos(),
            },
        );
    }

    /// Enable/disable online ("The developer can enable or disable filter
    /// online via the tuning system").
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
        let inj = self.injector();
        for &i in self.specs.borrow().iter() {
            inj.set_open(i, on);
        }
    }

    /// Packets the RNIC discarded on an injected receive fault. This is
    /// the RNIC-wide `fault_rx_drops`: it also counts drops by other
    /// filters on this RNIC and by a `FaultPlan`'s `Corrupt` specs.
    pub fn dropped(&self) -> u64 {
        self.rnic.stats().fault_rx_drops
    }

    /// Packets the RNIC held back on an injected receive delay. This is
    /// the RNIC-wide `fault_rx_delays`: it also counts delays by other
    /// filters on this RNIC and by a `FaultPlan`'s `Reorder` specs.
    pub fn delayed(&self) -> u64 {
        self.rnic.stats().fault_rx_delays
    }
}
