//! The injector: a thread-local service the stack's fault hooks query.
//!
//! [`FaultInjector::install`] arms a [`FaultPlan`] on a world: window
//! open/close callbacks go on the world's own calendar (the `sim` choke
//! point), and while a window is open the per-layer query functions below
//! answer the hooks at the other choke points. The lifecycle mirrors
//! `TelemetryHub`: installation returns a guard, and dropping the guard
//! (or installing a new injector) detaches the old one, so one test thread
//! can run many faulted worlds in sequence. Specs can also be added to an
//! armed injector and switched on and off at run time
//! ([`FaultInjector::add`], [`FaultInjector::set_open`]); that is how
//! the analysis framework's Filter drives it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::plan::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use xrdma_sim::{Dur, SimRng, Time, World};
use xrdma_telemetry::tele;

/// Commands the injector sends to a registered node (an RNIC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeCmd {
    /// The process died: drop all state, stop responding.
    Crash,
    /// The process came back (fresh QP state).
    Restart,
    /// The process froze: buffer arriving packets.
    Pause,
    /// The process thawed: replay buffered packets.
    Resume,
    /// Force every RTS queue pair into the error state.
    QpError,
}

/// What the RNIC receive hook should do with an arriving packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxFault {
    /// Discard it (`fault` names the cause for counters/telemetry).
    Drop { fault: &'static str },
    /// Deliver it twice.
    Duplicate,
    /// Hold it for the duration, letting successors overtake it.
    Delay(Dur),
}

/// What the connection manager should do with a connect attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectFault {
    /// The request vanishes; the client sees its timeout.
    Blackhole,
    /// The server refuses after the half-exchange.
    Refuse,
    /// Establishment takes this much longer.
    Slow(Dur),
}

type NodeHook = Box<dyn Fn(NodeCmd)>;

/// The armed fault plan for the current thread's world.
pub struct FaultInjector {
    /// The plan's specs, plus any added at run time.
    specs: RefCell<Vec<FaultSpec>>,
    rng: RefCell<SimRng>,
    /// Per-spec "window open" flags, toggled by scheduled callbacks.
    on: RefCell<Vec<bool>>,
    /// Per-spec packet counters for `DropPeriodic`.
    periodic: RefCell<Vec<u64>>,
    /// Node-command receivers, registered by `Rnic::new` while an
    /// injector is active. BTreeMap: deterministic teardown order.
    nodes: RefCell<BTreeMap<u32, NodeHook>>,
    /// Nodes currently paused (`PeerPause` window open).
    paused: RefCell<BTreeMap<u32, ()>>,
    injected: Cell<u64>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<FaultInjector>>> = const { RefCell::new(None) };
    /// Mirrors `CURRENT.is_some()`: the one flag every hook group reads.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

fn with_current<R>(f: impl FnOnce(&FaultInjector) -> R) -> Option<R> {
    FaultInjector::current().map(|i| f(&i))
}

impl FaultInjector {
    /// Arm `plan` on `world` and make this injector current for the
    /// thread. Install *before* building the stack so RNICs can register
    /// their node hooks. Randomness for probabilistic faults comes from
    /// `rng` — fork a labelled stream off the run's root seed.
    pub fn install(world: &Rc<World>, plan: FaultPlan, rng: SimRng) -> FaultsGuard {
        let n = plan.specs.len();
        let inj = Rc::new(FaultInjector {
            specs: RefCell::new(plan.specs),
            rng: RefCell::new(rng),
            on: RefCell::new(vec![false; n]),
            periodic: RefCell::new(vec![0; n]),
            nodes: RefCell::new(BTreeMap::new()),
            paused: RefCell::new(BTreeMap::new()),
            injected: Cell::new(0),
        });
        for i in 0..n {
            let spec = inj.spec(i);
            let open_at = Time(spec.at_ns);
            let inj2 = inj.clone();
            world.schedule_at(open_at, move || inj2.open(i));
            if let Some(d) = spec.dur_ns {
                let inj2 = inj.clone();
                world.schedule_at(Time(spec.at_ns + d), move || inj2.close(i));
            }
        }
        CURRENT.with(|c| *c.borrow_mut() = Some(inj.clone()));
        ACTIVE.with(|a| a.set(true));
        FaultsGuard { inj }
    }

    /// The injector installed on this thread, if any.
    pub fn current() -> Option<Rc<FaultInjector>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Append a closed, unscheduled spec of `kind` on `target`; only
    /// [`set_open`](Self::set_open) opens and closes it. Returns the
    /// spec's index.
    pub fn add(&self, target: FaultTarget, kind: FaultKind) -> usize {
        let i = {
            let mut specs = self.specs.borrow_mut();
            specs.push(FaultSpec {
                at_ns: 0,
                dur_ns: None,
                target,
                kind,
            });
            specs.len() - 1
        };
        self.on.borrow_mut().push(false);
        self.periodic.borrow_mut().push(0);
        i
    }

    /// Open or close spec `i` now (a no-op if it already is).
    pub fn set_open(&self, i: usize, on: bool) {
        if self.on.borrow()[i] == on {
            return;
        }
        if on {
            self.open(i);
        } else {
            self.close(i);
        }
    }

    fn spec(&self, i: usize) -> FaultSpec {
        self.specs.borrow()[i].clone()
    }

    fn open(&self, i: usize) {
        self.on.borrow_mut()[i] = true;
        let spec = self.spec(i);
        tele!(FaultWindow {
            fault: spec.kind.name(),
            target: spec.target.render(),
            on: true,
        });
        let node = match spec.target {
            FaultTarget::Node(n) => n,
            _ => return,
        };
        match spec.kind {
            FaultKind::PeerCrash => self.command(node, NodeCmd::Crash),
            FaultKind::PeerPause => {
                self.paused.borrow_mut().insert(node, ());
                self.command(node, NodeCmd::Pause);
            }
            FaultKind::QpError => self.command(node, NodeCmd::QpError),
            _ => {}
        }
    }

    fn close(&self, i: usize) {
        self.on.borrow_mut()[i] = false;
        let spec = self.spec(i);
        tele!(FaultWindow {
            fault: spec.kind.name(),
            target: spec.target.render(),
            on: false,
        });
        let node = match spec.target {
            FaultTarget::Node(n) => n,
            _ => return,
        };
        match spec.kind {
            FaultKind::PeerCrash => self.command(node, NodeCmd::Restart),
            FaultKind::PeerPause => {
                self.paused.borrow_mut().remove(&node);
                self.command(node, NodeCmd::Resume);
            }
            _ => {}
        }
    }

    fn command(&self, node: u32, cmd: NodeCmd) {
        self.note(cmd_name(cmd), &format!("node{node}"));
        // Take the hook out of the borrow before calling: the command may
        // re-enter the injector (a crash flushes CQEs through the
        // cqe-delay query, for instance).
        let hook = self.nodes.borrow_mut().remove(&node);
        if let Some(hook) = hook {
            hook(cmd);
            self.nodes.borrow_mut().insert(node, hook);
        }
    }

    /// Count and announce one injected action.
    fn note(&self, fault: &'static str, target: &str) {
        self.injected.set(self.injected.get() + 1);
        tele!(FaultInjected {
            fault,
            target: target.to_string(),
        });
    }

    fn active_specs(&self, f: impl FnMut(usize, &FaultSpec) -> bool) {
        let mut f = f;
        let on = self.on.borrow();
        for (i, spec) in self.specs.borrow().iter().enumerate() {
            if on[i] && !f(i, spec) {
                break;
            }
        }
    }
}

fn cmd_name(cmd: NodeCmd) -> &'static str {
    match cmd {
        NodeCmd::Crash => "peer-crash",
        NodeCmd::Restart => "peer-restart",
        NodeCmd::Pause => "peer-pause",
        NodeCmd::Resume => "peer-resume",
        NodeCmd::QpError => "qp-error",
    }
}

/// Uninstalls the injector (and forgets node registrations) on drop.
pub struct FaultsGuard {
    inj: Rc<FaultInjector>,
}

impl FaultsGuard {
    /// Total injected actions so far (drops, dups, delays, commands…).
    pub fn injected(&self) -> u64 {
        self.inj.injected.get()
    }
}

impl Drop for FaultsGuard {
    /// Uninstall, unless a later `install` already replaced this
    /// injector: the replacement keeps its flag.
    fn drop(&mut self) {
        self.inj.nodes.borrow_mut().clear();
        let current = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let current = cur.as_ref().is_some_and(|i| Rc::ptr_eq(i, &self.inj));
            if current {
                *cur = None;
            }
            current
        });
        if current {
            ACTIVE.with(|a| a.set(false));
        }
    }
}

/// Is an injector installed on this thread? Every hook group in the stack
/// sits under one `if xrdma_faults::active()`, so a run without an
/// injector pays one flag read per group.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Total injected actions for the current injector (0 when none).
pub fn injected_count() -> u64 {
    with_current(|inj| inj.injected.get()).unwrap_or(0)
}

/// Fabric hook (`Port::enqueue`): should this packet be dropped at the
/// egress queue labelled `label`?
pub fn port_drop(label: &str) -> bool {
    with_current(|inj| {
        let mut verdict = None;
        inj.active_specs(|i, spec| {
            let FaultTarget::Edge(edge) = &spec.target else {
                return true;
            };
            if edge != label {
                return true;
            }
            let hit = match spec.kind {
                FaultKind::LinkDown => true,
                FaultKind::Drop { prob } => inj.rng.borrow_mut().chance(prob),
                FaultKind::DropPeriodic { every } => {
                    let mut counts = inj.periodic.borrow_mut();
                    counts[i] += 1;
                    every > 0 && counts[i] % every == 0
                }
                _ => return true,
            };
            if hit {
                verdict = Some(spec.kind.name());
                false
            } else {
                true
            }
        });
        if let Some(fault) = verdict {
            inj.note(fault, label);
        }
        verdict.is_some()
    })
    .unwrap_or(false)
}

/// Fabric hook (`Port::enqueue`): an override for the egress buffer limit
/// while a `BufferSqueeze` window is open on this edge.
pub fn port_limit(label: &str) -> Option<u64> {
    with_current(|inj| {
        let mut limit = None;
        inj.active_specs(|_, spec| {
            if let (FaultTarget::Edge(edge), FaultKind::BufferSqueeze { limit_bytes }) =
                (&spec.target, &spec.kind)
            {
                if edge == label {
                    limit = Some(limit.map_or(*limit_bytes, |l: u64| l.min(*limit_bytes)));
                }
            }
            true
        });
        limit
    })
    .flatten()
}

/// RNIC hook (`NicSink::deliver`): what to do with a packet from `src`
/// arriving at `node` (corrupt → drop, duplicate, reorder-delay). `Node`
/// targets match every arrival at the node, `Pair { from, to }` targets
/// only those from `from` at `to`.
pub fn rnic_rx(node: u32, src: u32) -> Option<RxFault> {
    with_current(|inj| {
        let mut verdict = None;
        inj.active_specs(|_, spec| {
            let applies = match spec.target {
                FaultTarget::Node(n) => n == node,
                FaultTarget::Pair { from, to } => from == src && to == node,
                FaultTarget::Edge(_) => false,
            };
            if !applies {
                return true;
            }
            let fault = match spec.kind {
                FaultKind::Corrupt { prob } => inj
                    .rng
                    .borrow_mut()
                    .chance(prob)
                    .then_some(RxFault::Drop { fault: "corrupt" }),
                FaultKind::Duplicate { prob } => inj
                    .rng
                    .borrow_mut()
                    .chance(prob)
                    .then_some(RxFault::Duplicate),
                FaultKind::Reorder { prob, delay_ns } => inj
                    .rng
                    .borrow_mut()
                    .chance(prob)
                    .then_some(RxFault::Delay(Dur::nanos(delay_ns))),
                _ => None,
            };
            match fault {
                Some(f) => {
                    verdict = Some((f, spec.kind.name()));
                    false
                }
                None => true,
            }
        });
        verdict.map(|(f, name)| {
            inj.note(name, &format!("node{node}"));
            f
        })
    })
    .flatten()
}

/// RNIC hook (completion path): how long to hold a CQE raised at `node`.
pub fn cqe_delay(node: u32) -> Option<Dur> {
    with_current(|inj| {
        let mut delay = None;
        inj.active_specs(|_, spec| {
            if let FaultKind::CqeDelay { delay_ns } = spec.kind {
                if spec.target == FaultTarget::Node(node) {
                    delay = Some(Dur::nanos(delay_ns));
                    return false;
                }
            }
            true
        });
        if delay.is_some() {
            inj.note("cqe-delay", &format!("node{node}"));
        }
        delay
    })
    .flatten()
}

/// Is `node` currently frozen by a `PeerPause` window?
pub fn node_paused(node: u32) -> bool {
    with_current(|inj| inj.paused.borrow().contains_key(&node)).unwrap_or(false)
}

/// CM hook (`ConnManager::connect`): sabotage for a connect attempt
/// `from → to`. `Pair` targets match exactly; `Node` targets match the
/// server end (its listener is what is "down").
pub fn rnic_connect_fault(from: u32, to: u32) -> Option<ConnectFault> {
    with_current(|inj| {
        let mut verdict = None;
        inj.active_specs(|_, spec| {
            let applies = match spec.target {
                FaultTarget::Pair { from: f, to: t } => f == from && t == to,
                FaultTarget::Node(n) => n == to,
                _ => false,
            };
            if !applies {
                return true;
            }
            let fault = match spec.kind {
                FaultKind::ConnectBlackhole => Some(ConnectFault::Blackhole),
                FaultKind::ConnectRefuse => Some(ConnectFault::Refuse),
                FaultKind::ConnectSlow { extra_ns } => {
                    Some(ConnectFault::Slow(Dur::nanos(extra_ns)))
                }
                _ => None,
            };
            match fault {
                Some(f) => {
                    verdict = Some((f, spec.kind.name()));
                    false
                }
                None => true,
            }
        });
        verdict.map(|(f, name)| {
            inj.note(name, &format!("{from}->{to}"));
            f
        })
    })
    .flatten()
}

/// Register a node-command receiver (called by `Rnic::new` while an
/// injector is active). No-op when no injector is installed; a second
/// registration for the same node replaces the first (QP-cache rebuilds).
pub fn register_node(node: u32, hook: NodeHook) {
    with_current(|inj| {
        inj.nodes.borrow_mut().insert(node, hook);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultPlan, FaultSpec, FaultTarget};

    fn edge_spec(at_ns: u64, dur_ns: Option<u64>, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            at_ns,
            dur_ns,
            target: FaultTarget::Edge("h0->t0".into()),
            kind,
        }
    }

    #[test]
    fn windows_open_and_close_on_the_virtual_clock() {
        let world = World::new();
        let plan = FaultPlan::new().with(edge_spec(1_000, Some(500), FaultKind::LinkDown));
        let _g = FaultInjector::install(&world, plan, SimRng::new(1));
        assert!(!port_drop("h0->t0"), "window not open yet");
        world.run_for(Dur::nanos(1_000));
        assert!(port_drop("h0->t0"), "window open");
        assert!(!port_drop("elsewhere"), "other edges unaffected");
        world.run_for(Dur::nanos(500));
        assert!(!port_drop("h0->t0"), "window closed");
    }

    #[test]
    fn periodic_drop_hits_every_nth_packet() {
        let world = World::new();
        let plan = FaultPlan::new().with(edge_spec(0, None, FaultKind::DropPeriodic { every: 3 }));
        let _g = FaultInjector::install(&world, plan, SimRng::new(1));
        world.run();
        let hits: Vec<bool> = (0..9).map(|_| port_drop("h0->t0")).collect();
        assert_eq!(
            hits,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn probabilistic_drop_is_seed_deterministic() {
        let sample = |seed: u64| -> Vec<bool> {
            let world = World::new();
            let plan = FaultPlan::new().with(edge_spec(0, None, FaultKind::Drop { prob: 0.5 }));
            let _g = FaultInjector::install(&world, plan, SimRng::new(seed));
            world.run();
            (0..64).map(|_| port_drop("h0->t0")).collect()
        };
        assert_eq!(sample(7), sample(7), "same seed, same drops");
        assert_ne!(sample(7), sample(8), "seed matters");
    }

    #[test]
    fn buffer_squeeze_overrides_the_limit_only_in_window() {
        let world = World::new();
        let plan = FaultPlan::new().with(edge_spec(
            100,
            Some(100),
            FaultKind::BufferSqueeze { limit_bytes: 4096 },
        ));
        let _g = FaultInjector::install(&world, plan, SimRng::new(1));
        assert_eq!(port_limit("h0->t0"), None);
        world.run_for(Dur::nanos(100));
        assert_eq!(port_limit("h0->t0"), Some(4096));
        assert_eq!(port_limit("other"), None);
        world.run_for(Dur::nanos(100));
        assert_eq!(port_limit("h0->t0"), None);
    }

    #[test]
    fn node_commands_dispatch_to_registered_hooks() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let world = World::new();
        let plan = FaultPlan::new()
            .with(FaultSpec {
                at_ns: 10,
                dur_ns: Some(20),
                target: FaultTarget::Node(3),
                kind: FaultKind::PeerCrash,
            })
            .with(FaultSpec {
                at_ns: 50,
                dur_ns: Some(10),
                target: FaultTarget::Node(3),
                kind: FaultKind::PeerPause,
            });
        let g = FaultInjector::install(&world, plan, SimRng::new(1));
        let seen: Rc<RefCell<Vec<NodeCmd>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        register_node(3, Box::new(move |cmd| s2.borrow_mut().push(cmd)));
        world.run();
        assert_eq!(
            *seen.borrow(),
            [
                NodeCmd::Crash,
                NodeCmd::Restart,
                NodeCmd::Pause,
                NodeCmd::Resume
            ]
        );
        assert!(g.injected() >= 4);
    }

    #[test]
    fn pause_state_tracks_the_window() {
        let world = World::new();
        let plan = FaultPlan::new().with(FaultSpec {
            at_ns: 5,
            dur_ns: Some(5),
            target: FaultTarget::Node(1),
            kind: FaultKind::PeerPause,
        });
        let _g = FaultInjector::install(&world, plan, SimRng::new(1));
        assert!(!node_paused(1));
        world.run_for(Dur::nanos(5));
        assert!(node_paused(1));
        assert!(!node_paused(2));
        world.run_for(Dur::nanos(5));
        assert!(!node_paused(1));
    }

    #[test]
    fn connect_faults_match_pair_or_server_node() {
        let world = World::new();
        let plan = FaultPlan::new()
            .with(FaultSpec {
                at_ns: 0,
                dur_ns: None,
                target: FaultTarget::Pair { from: 1, to: 0 },
                kind: FaultKind::ConnectBlackhole,
            })
            .with(FaultSpec {
                at_ns: 0,
                dur_ns: None,
                target: FaultTarget::Node(5),
                kind: FaultKind::ConnectSlow { extra_ns: 1_000 },
            });
        let _g = FaultInjector::install(&world, plan, SimRng::new(1));
        world.run();
        assert_eq!(rnic_connect_fault(1, 0), Some(ConnectFault::Blackhole));
        assert_eq!(rnic_connect_fault(2, 0), None, "pair is directional+exact");
        assert_eq!(
            rnic_connect_fault(9, 5),
            Some(ConnectFault::Slow(Dur::nanos(1_000))),
            "node target matches the server end"
        );
        assert_eq!(rnic_connect_fault(5, 9), None);
    }

    #[test]
    fn guard_drop_uninstalls() {
        let world = World::new();
        let plan = FaultPlan::new().with(edge_spec(0, None, FaultKind::LinkDown));
        let g = FaultInjector::install(&world, plan, SimRng::new(1));
        world.run();
        assert!(active());
        assert!(port_drop("h0->t0"));
        drop(g);
        assert!(!active());
        assert!(!port_drop("h0->t0"));
    }

    #[test]
    fn rx_faults_discriminate_kinds() {
        let world = World::new();
        let plan = FaultPlan::new()
            .with(FaultSpec {
                at_ns: 0,
                dur_ns: None,
                target: FaultTarget::Node(1),
                kind: FaultKind::Corrupt { prob: 1.0 },
            })
            .with(FaultSpec {
                at_ns: 0,
                dur_ns: None,
                target: FaultTarget::Node(2),
                kind: FaultKind::Duplicate { prob: 1.0 },
            })
            .with(FaultSpec {
                at_ns: 0,
                dur_ns: None,
                target: FaultTarget::Node(3),
                kind: FaultKind::Reorder {
                    prob: 1.0,
                    delay_ns: 700,
                },
            });
        let _g = FaultInjector::install(&world, plan, SimRng::new(1));
        world.run();
        assert_eq!(rnic_rx(1, 9), Some(RxFault::Drop { fault: "corrupt" }));
        assert_eq!(rnic_rx(2, 9), Some(RxFault::Duplicate));
        assert_eq!(rnic_rx(3, 9), Some(RxFault::Delay(Dur::nanos(700))));
        assert_eq!(rnic_rx(4, 9), None);
    }

    #[test]
    fn rx_pair_targets_match_the_source() {
        let world = World::new();
        let _g = FaultInjector::install(&world, FaultPlan::new(), SimRng::new(1));
        let inj = FaultInjector::current().expect("installed");
        let i = inj.add(
            FaultTarget::Pair { from: 2, to: 1 },
            FaultKind::Corrupt { prob: 1.0 },
        );
        assert_eq!(rnic_rx(1, 2), None, "added closed");
        inj.set_open(i, true);
        assert_eq!(rnic_rx(1, 2), Some(RxFault::Drop { fault: "corrupt" }));
        assert_eq!(rnic_rx(1, 3), None, "other sources pass");
        assert_eq!(rnic_rx(2, 1), None, "pairs are directional");
        inj.set_open(i, false);
        assert_eq!(rnic_rx(1, 2), None, "closed at run time");
        inj.set_open(i, true);
        assert_eq!(rnic_rx(1, 2), Some(RxFault::Drop { fault: "corrupt" }));
    }

    /// Install A, install B, drop A: B stays current and active.
    #[test]
    fn dropping_a_replaced_injector_leaves_the_current_one_active() {
        let world = World::new();
        let plan = || FaultPlan::new().with(edge_spec(0, None, FaultKind::LinkDown));
        let a = FaultInjector::install(&world, plan(), SimRng::new(1));
        let b = FaultInjector::install(&world, plan(), SimRng::new(2));
        world.run();
        drop(a);
        assert!(active());
        assert!(port_drop("h0->t0"), "B still answers the hooks");
        drop(b);
        assert!(!active());
    }
}
