//! `rdma_cm`-style connection management with the paper's cost structure.
//!
//! §III (Scalability Issue 3) measures RDMA connection establishment at
//! ~4 ms against ~100 µs for TCP, and §VII-C shows X-RDMA's QP cache
//! cutting it from 3946 µs to 2451 µs by skipping QP creation. The phase
//! costs here are calibrated so exactly that arithmetic holds:
//!
//! | phase                       | cost (µs) |
//! |-----------------------------|-----------|
//! | resolve address             | 800       |
//! | resolve route               | 800       |
//! | REQ/REP exchange            | 450       |
//! | QP creation (per side)      | 748       |
//! | modify to RTR               | 250       |
//! | modify to RTS               | 150       |
//!
//! Fresh QPs on both sides: 2450 + 2×748 ≈ 3946 µs. Recycled QPs (the
//! QP-cache path — `modify_to_reset` + reuse): ≈ 2451 µs. Every phase gets
//! multiplicative jitter so establishment storms spread realistically.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use serde::Serialize;
use xrdma_fabric::NodeId;
use xrdma_sim::{Dur, SimRng, World};
use xrdma_telemetry::tele;

use crate::engine::Rnic;
use crate::qp::{Qp, QpState};

/// Connection-establishment cost model.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CmConfig {
    pub resolve_addr: Dur,
    pub resolve_route: Dur,
    pub exchange: Dur,
    /// Cost of creating + initializing a fresh QP (per side). The QP-cache
    /// reuse path skips this entirely.
    pub create_qp: Dur,
    pub to_rtr: Dur,
    pub to_rts: Dur,
    /// Multiplicative jitter (std-dev fraction) applied to each phase.
    pub jitter: f64,
    /// Give up waiting for the passive side after this long.
    pub connect_timeout: Dur,
}

impl Default for CmConfig {
    fn default() -> Self {
        CmConfig {
            resolve_addr: Dur::micros(800),
            resolve_route: Dur::micros(800),
            exchange: Dur::micros(450),
            create_qp: Dur::micros(748),
            to_rtr: Dur::micros(250),
            to_rts: Dur::micros(150),
            jitter: 0.05,
            connect_timeout: Dur::secs(1),
        }
    }
}

impl CmConfig {
    /// Expected client-observed latency (no jitter) for a connect where
    /// `fresh_sides` ∈ {0, 1, 2} QPs must be freshly created.
    pub fn expected_latency(&self, fresh_sides: u32) -> Dur {
        self.resolve_addr
            + self.resolve_route
            + self.exchange
            + self.create_qp * fresh_sides as u64
            + self.to_rtr
            + self.to_rts
    }
}

/// Why a connect failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmError {
    /// No listener registered at (node, service).
    ConnectionRefused,
    /// The passive side never answered (crashed or partitioned).
    Timeout,
    /// The supplied QP was not in the RESET state.
    BadQpState,
}

impl fmt::Display for CmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmError::ConnectionRefused => write!(f, "connection refused"),
            CmError::Timeout => write!(f, "connect timeout"),
            CmError::BadQpState => write!(f, "QP not in RESET"),
        }
    }
}

impl std::error::Error for CmError {}

struct Listener {
    rnic: Rc<Rnic>,
    /// Produce a QP for an incoming request: `(qp, fresh)` — `fresh` means
    /// it was just created (pays `create_qp`); recycled QPs don't. `None`
    /// declines the connection (e.g. the owning context is shutting down).
    accept: Box<dyn Fn() -> Option<(Rc<Qp>, bool)>>,
    /// Invoked once the connection is fully established.
    established: Box<dyn Fn(Rc<Qp>, NodeId)>,
}

/// The world-wide connection manager (models the management/CM network all
/// nodes share).
pub struct ConnManager {
    world: Rc<World>,
    pub cfg: CmConfig,
    listeners: RefCell<HashMap<(NodeId, u16), Listener>>,
    /// Address/route resolution cache, like rdma_cm's ARP/route caching:
    /// after the first connect from a node to a peer, later connects skip
    /// the resolve phases. This is what makes connect *storms* so much
    /// cheaper per connection than an isolated connect (§VII-C: 4096
    /// connections in ~3 s with QP reuse vs ~10 s without).
    resolved: RefCell<HashSet<(NodeId, NodeId)>>,
    rng: RefCell<SimRng>,
}

impl ConnManager {
    pub fn new(world: Rc<World>, cfg: CmConfig, rng: SimRng) -> Rc<ConnManager> {
        Rc::new(ConnManager {
            world,
            cfg,
            listeners: RefCell::new(HashMap::new()),
            resolved: RefCell::new(HashSet::new()),
            rng: RefCell::new(rng),
        })
    }

    /// Register a passive endpoint at `(rnic.node(), svc)`.
    pub fn listen(
        &self,
        rnic: &Rc<Rnic>,
        svc: u16,
        accept: impl Fn() -> Option<(Rc<Qp>, bool)> + 'static,
        established: impl Fn(Rc<Qp>, NodeId) + 'static,
    ) {
        self.listeners.borrow_mut().insert(
            (rnic.node(), svc),
            Listener {
                rnic: rnic.clone(),
                accept: Box::new(accept),
                established: Box::new(established),
            },
        );
    }

    /// Drop all cached address/route resolutions (benchmarks measuring the
    /// isolated-connect latency call this between runs).
    pub fn forget_resolution(&self) {
        self.resolved.borrow_mut().clear();
    }

    fn jittered(&self, d: Dur) -> Dur {
        let f = self
            .rng
            .borrow_mut()
            .normal(1.0, self.cfg.jitter)
            .clamp(0.7, 1.6);
        Dur::secs_f64(d.as_secs_f64() * f)
    }

    /// Actively connect `qp` (must be RESET) on `rnic` to `(server, svc)`.
    ///
    /// `fresh` declares whether the QP was freshly created for this connect
    /// (pays `create_qp`) or came out of a QP cache (pays nothing extra).
    /// `done` fires with the connected QP or an error.
    pub fn connect(
        self: &Rc<Self>,
        rnic: &Rc<Rnic>,
        qp: Rc<Qp>,
        fresh: bool,
        server: NodeId,
        svc: u16,
        done: impl FnOnce(Result<Rc<Qp>, CmError>) + 'static,
    ) {
        if qp.state() != QpState::Reset {
            done(Err(CmError::BadQpState));
            return;
        }
        let me = self.clone();
        let rnic = rnic.clone();
        // Phase 1+2: address + route resolution (+ client QP creation).
        // Resolution results are cached per (src, dst) pair.
        let first_time = self.resolved.borrow_mut().insert((rnic.node(), server));
        let mut lead = if first_time {
            self.jittered(self.cfg.resolve_addr) + self.jittered(self.cfg.resolve_route)
        } else {
            // Cache hit: a light management-plane lookup remains.
            self.jittered(self.cfg.exchange / 8)
        };
        if fresh {
            lead += self.jittered(self.cfg.create_qp);
        }
        self.world.schedule_in(lead, move || {
            me.send_req(rnic, qp, server, svc, done);
        });
    }

    /// Phase 3: REQ travels to the server; the server accepts (possibly
    /// creating a QP) and REPs back; then the client transitions.
    fn send_req(
        self: &Rc<Self>,
        rnic: Rc<Rnic>,
        qp: Rc<Qp>,
        server: NodeId,
        svc: u16,
        done: impl FnOnce(Result<Rc<Qp>, CmError>) + 'static,
    ) {
        // Connect-time fault hooks (`xrdma-faults`), checked when the REQ
        // would leave: a blackhole eats the REQ (only the client timer
        // fires), a refusal REJs after a half-exchange, and a slow
        // management plane defers the REQ — re-checked on re-entry, so the
        // penalty repeats for as long as the fault window stays open.
        #[cfg(feature = "faults")]
        match xrdma_faults::rnic_connect_fault(rnic.node().0, server.0) {
            None => {}
            Some(xrdma_faults::ConnectFault::Blackhole) => {
                let timeout = self.cfg.connect_timeout;
                self.world.schedule_in(timeout, move || {
                    done(Err(CmError::Timeout));
                });
                return;
            }
            Some(xrdma_faults::ConnectFault::Refuse) => {
                let half = self.jittered(self.cfg.exchange / 2);
                self.world.schedule_in(half, move || {
                    done(Err(CmError::ConnectionRefused));
                });
                return;
            }
            Some(xrdma_faults::ConnectFault::Slow(extra)) => {
                let me = self.clone();
                self.world.schedule_in(extra, move || {
                    me.send_req(rnic, qp, server, svc, done);
                });
                return;
            }
        }
        // Refusal is detected after a half-exchange (REJ message).
        let has_listener = self.listeners.borrow().contains_key(&(server, svc));
        if !has_listener {
            let half = self.jittered(self.cfg.exchange / 2);
            self.world.schedule_in(half, move || {
                done(Err(CmError::ConnectionRefused));
            });
            return;
        }
        let server_alive = self
            .listeners
            .borrow()
            .get(&(server, svc))
            .map(|l| l.rnic.is_alive())
            .unwrap_or(false);
        if !server_alive {
            // No REP ever comes back; the client times out.
            let timeout = self.cfg.connect_timeout;
            self.world.schedule_in(timeout, move || {
                done(Err(CmError::Timeout));
            });
            return;
        }

        let me = self.clone();
        let exchange = self.jittered(self.cfg.exchange);
        // Server-side work happens inside the exchange window; a fresh
        // server QP extends it.
        let half = exchange / 2;
        self.world.schedule_in(half, move || {
            let accepted = {
                let listeners = me.listeners.borrow();
                listeners
                    .get(&(server, svc))
                    .and_then(|l| (l.accept)().map(|(sqp, fresh)| (sqp, fresh, l.rnic.node())))
            };
            let Some((server_qp, server_fresh, server_node)) = accepted else {
                // Listener went away mid-handshake, or it declined.
                me.world.schedule_in(half, move || {
                    done(Err(CmError::ConnectionRefused));
                });
                return;
            };
            debug_assert_eq!(server_node, server);
            let mut rest = half;
            if server_fresh {
                rest += me.jittered(me.cfg.create_qp);
            }
            // Server transitions its QP to RTR immediately (so it can
            // receive as soon as the client's first packet lands) and RTS
            // on the implicit RTU.
            server_qp
                .modify_to_init()
                .expect("accept returned non-RESET qp");
            server_qp.modify_to_rtr(rnic.node(), qp.qpn).unwrap();
            server_qp.modify_to_rts().unwrap();
            // Connection token agreement (starting PSN exchange in the
            // REQ/REP): stale packets from the QPs' previous lives are
            // rejected by both receivers.
            let token = Rnic::derive_token(
                me.world.now().nanos(),
                (rnic.node().0 as u64) << 32 | qp.qpn.0 as u64,
                (server.0 as u64) << 32 | server_qp.qpn.0 as u64,
            );
            server_qp.set_conn_token(token);

            let me2 = me.clone();
            me.world.schedule_in(rest, move || {
                // Client transitions.
                let trans = me2.jittered(me2.cfg.to_rtr) + me2.jittered(me2.cfg.to_rts);
                let me3 = me2.clone();
                me2.world.schedule_in(trans, move || {
                    let me2 = me3;
                    qp.modify_to_init().unwrap();
                    qp.modify_to_rtr(server, server_qp.qpn).unwrap();
                    qp.modify_to_rts().unwrap();
                    qp.set_conn_token(server_qp.conn_token());
                    // Tell the passive side.
                    let listeners = me2.listeners.borrow();
                    if let Some(l) = listeners.get(&(server, svc)) {
                        (l.established)(server_qp.clone(), rnic.node());
                    }
                    drop(listeners);
                    tele!(CmEstablished {
                        node: rnic.node().0,
                        peer: server.0,
                        qpn: qp.qpn.0,
                    });
                    done(Ok(qp));
                });
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RnicConfig;
    use crate::qp::QpCaps;
    use std::cell::Cell;
    use xrdma_fabric::{Fabric, FabricConfig};
    use xrdma_sim::Time;

    fn setup() -> (Rc<World>, Rc<Fabric>, Rc<Rnic>, Rc<Rnic>, Rc<ConnManager>) {
        let w = World::new();
        let rng = SimRng::new(42);
        let fabric = Fabric::new(w.clone(), FabricConfig::pair(), &rng);
        let a = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("a"));
        let b = Rnic::new(&fabric, NodeId(1), RnicConfig::default(), rng.fork("b"));
        let cm = ConnManager::new(w.clone(), CmConfig::default(), rng.fork("cm"));
        (w, fabric, a, b, cm)
    }

    fn mk_qp(rnic: &Rc<Rnic>) -> Rc<Qp> {
        let pd = rnic.alloc_pd();
        let cq = rnic.create_cq(64);
        rnic.create_qp(&pd, cq.clone(), cq, QpCaps::default(), None)
    }

    #[test]
    fn expected_latency_matches_paper() {
        let c = CmConfig::default();
        // Paper §VII-C: 3946 µs fresh, 2451 µs with QP reuse.
        assert_eq!(c.expected_latency(2).as_nanos() / 1000, 3946);
        assert_eq!(c.expected_latency(0).as_nanos() / 1000, 2450);
    }

    #[test]
    fn connect_establishes_both_qps() {
        let (w, _f, a, b, cm) = setup();
        let server_qp = mk_qp(&b);
        let sq = server_qp.clone();
        cm.listen(&b, 7, move || Some((sq.clone(), true)), |_qp, _peer| {});
        let client_qp = mk_qp(&a);
        let got: Rc<Cell<Option<bool>>> = Rc::new(Cell::new(None));
        let g = got.clone();
        cm.connect(&a, client_qp.clone(), true, NodeId(1), 7, move |r| {
            g.set(Some(r.is_ok()));
        });
        w.run();
        assert_eq!(got.get(), Some(true));
        assert_eq!(client_qp.state(), QpState::Rts);
        assert_eq!(server_qp.state(), QpState::Rts);
        assert_eq!(client_qp.remote().unwrap().0, NodeId(1));
        assert_eq!(server_qp.remote().unwrap().0, NodeId(0));
    }

    #[test]
    fn fresh_connect_takes_about_4ms_reuse_about_2_5ms() {
        let (w, _f, a, b, cm) = setup();
        let server_qp = mk_qp(&b);
        let sq = server_qp.clone();
        cm.listen(&b, 7, move || Some((sq.clone(), true)), |_, _| {});
        let t_done: Rc<Cell<Time>> = Rc::new(Cell::new(Time::ZERO));
        let td = t_done.clone();
        let w2 = w.clone();
        cm.connect(&a, mk_qp(&a), true, NodeId(1), 7, move |r| {
            assert!(r.is_ok());
            td.set(w2.now());
        });
        w.run();
        let fresh_us = t_done.get().nanos() / 1000;
        assert!(
            (3300..4700).contains(&fresh_us),
            "fresh connect took {fresh_us} µs"
        );

        // Reuse path: recycle both QPs through RESET. Clear the resolve
        // cache so this measures the paper's isolated reuse number.
        cm.forget_resolution();
        server_qp.modify_to_reset();
        let sq2 = server_qp.clone();
        cm.listen(&b, 8, move || Some((sq2.clone(), false)), |_, _| {});
        let start = w.now();
        let td2 = t_done.clone();
        let w3 = w.clone();
        let reused = mk_qp(&a); // structurally fresh, declared recycled
        cm.connect(&a, reused, false, NodeId(1), 8, move |r| {
            assert!(r.is_ok());
            td2.set(w3.now());
        });
        w.run();
        let reuse_us = (t_done.get().nanos() - start.nanos()) / 1000;
        assert!(
            (2100..2900).contains(&reuse_us),
            "reuse connect took {reuse_us} µs"
        );
        assert!(reuse_us < fresh_us);
    }

    #[test]
    fn refused_without_listener() {
        let (w, _f, a, _b, cm) = setup();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        cm.connect(&a, mk_qp(&a), true, NodeId(1), 99, move |r| {
            g.set(Some(r.err().unwrap()));
        });
        w.run();
        assert_eq!(got.get(), Some(CmError::ConnectionRefused));
    }

    #[test]
    fn timeout_when_server_crashed() {
        let (w, _f, a, b, cm) = setup();
        let sq = mk_qp(&b);
        cm.listen(&b, 7, move || Some((sq.clone(), true)), |_, _| {});
        b.crash();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        cm.connect(&a, mk_qp(&a), true, NodeId(1), 7, move |r| {
            g.set(Some(r.err().unwrap()));
        });
        w.run();
        assert_eq!(got.get(), Some(CmError::Timeout));
        assert!(w.now().nanos() >= Dur::secs(1).as_nanos());
    }

    #[test]
    fn connect_rejects_non_reset_qp() {
        let (w, _f, a, _b, cm) = setup();
        let qp = mk_qp(&a);
        qp.modify_to_init().unwrap();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        cm.connect(&a, qp, true, NodeId(1), 7, move |r| {
            g.set(Some(r.err().unwrap()));
        });
        w.run();
        assert_eq!(got.get(), Some(CmError::BadQpState));
    }
}
