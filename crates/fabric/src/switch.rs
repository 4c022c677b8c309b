//! A switch: routing, forwarding delay, ECN marking, and PFC generation.
//!
//! The switch is output-queued: an arriving packet is routed, optionally
//! ECN-marked against the chosen egress queue's depth, and enqueued there.
//! PFC is ingress-accounted: the switch tracks how many buffered bytes each
//! (ingress cable, priority) pair is responsible for and pauses the
//! upstream sender when a threshold is crossed — exactly the 802.1Qbb
//! structure that lets pause storms propagate hop by hop (§IX "Eradicate
//! PFC" discusses why that matters).
//!
//! Per packet a switch costs no event of its own: the upstream port's
//! arrival fires one propagation plus forwarding delay after the packet's
//! departure, and [`Switch::receive`] is the whole forwarding step in one
//! handler — route, ECN sample, enqueue, PFC ingress charge. ECN therefore
//! samples the egress queue the packet joins at the instant it joins it,
//! DCQCN's congestion-point rule. Ports hand PFC releases back through
//! [`Switch::release`]. Only PFC control frames — a few hundred per run —
//! are scheduled as boxed one-shots.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use xrdma_sim::{invariant, Dur, SimRng, World};
use xrdma_telemetry::tele;

use crate::config::{EcnConfig, PfcConfig};
use crate::packet::{ecmp_hash, NodeId, Packet, NPRIO, PRIO_TCP};
use crate::port::{Port, Release};
use crate::stats::FabricStats;
use crate::topology::{SwitchAddr, Tier, Topology};

/// Per-(ingress, priority) PFC bookkeeping.
#[derive(Clone, Copy, Default)]
struct IngressState {
    bytes: u64,
    xoff_sent: bool,
}

/// The constants of one switch's routing decision, so the per-packet
/// lookup ([`Switch::egress`]) divides only inside `ecmp_hash`, and only
/// where there is a choice to make. Port layout: ToR → down ports one per
/// attached host (host index within rack), up ports one per pod leaf.
/// Leaf → down ports one per pod ToR, up ports one per spine. Spine →
/// down ports one per leaf (globally indexed).
#[derive(Clone, Copy)]
enum Route {
    /// Hosts `first_host..first_host + n_down` are attached; everything
    /// else goes up to one of the pod's `leaves`.
    Tor { first_host: u32, leaves: usize },
    /// ToRs `first_tor..first_tor + n_down` (pod `pod`) are below;
    /// everything else goes up to one of `spines`.
    Leaf {
        pod: u32,
        first_tor: u32,
        spines: usize,
    },
    /// Down to one of the destination pod's `leaves_per_pod` leaves.
    Spine { leaves_per_pod: usize },
}

/// One of `n` equal-cost next hops for a flow at ECMP stage `stage`.
#[inline]
fn ecmp_pick(flow_hash: u64, stage: u64, n: usize) -> usize {
    if n == 1 {
        0
    } else {
        ecmp_hash(flow_hash, stage, n)
    }
}

pub struct Switch {
    world: Rc<World>,
    pub addr: SwitchAddr,
    topo: Rc<Topology>,
    route: Route,
    ecn: EcnConfig,
    pfc: PfcConfig,
    /// Control-frame flight time back to the upstream device.
    ctrl_delay: Dur,
    /// Egress ports in a fixed layout; [`Switch::egress`] maps a
    /// destination to one.
    ports: OnceCell<Vec<Rc<Port>>>,
    /// (ingress, priority) pairs with an XOFF outstanding, shared with
    /// the ports: while any is, they wake at every departure.
    xoffs: Rc<Cell<u32>>,
    /// Down-port index base: ports[0..n_down] are down, rest up.
    n_down: usize,
    /// The port on the *upstream device* feeding each of our ingress
    /// indices — where PFC pause frames for that ingress must go.
    upstream: RefCell<Vec<Weak<Port>>>,
    ingress: RefCell<Vec<[IngressState; NPRIO]>>,
    stats: Rc<FabricStats>,
    rng: RefCell<SimRng>,
}

impl Switch {
    pub(crate) fn new(
        world: Rc<World>,
        addr: SwitchAddr,
        topo: Rc<Topology>,
        ecn: EcnConfig,
        pfc: PfcConfig,
        ctrl_delay: Dur,
        n_down: usize,
        stats: Rc<FabricStats>,
        rng: SimRng,
    ) -> Rc<Switch> {
        let route = match addr.tier {
            Tier::Tor => Route::Tor {
                first_host: addr.idx * topo.hosts_per_tor,
                leaves: topo.leaves_per_pod as usize,
            },
            Tier::Leaf => {
                let pod = topo.pod_of_leaf(addr.idx);
                Route::Leaf {
                    pod,
                    first_tor: pod * topo.tors_per_pod,
                    spines: topo.spines as usize,
                }
            }
            Tier::Spine => Route::Spine {
                leaves_per_pod: topo.leaves_per_pod as usize,
            },
        };
        Rc::new(Switch {
            world,
            addr,
            topo,
            route,
            ecn,
            pfc,
            ctrl_delay,
            ports: OnceCell::new(),
            xoffs: Rc::new(Cell::new(0)),
            n_down,
            upstream: RefCell::new(Vec::new()),
            ingress: RefCell::new(Vec::new()),
            stats,
            rng: RefCell::new(rng),
        })
    }

    /// Wire up egress ports (down ports first, then up ports). Called once
    /// by the fabric builder.
    pub(crate) fn set_ports(self: &Rc<Self>, ports: Vec<Rc<Port>>) {
        for p in &ports {
            p.set_owner(self, self.xoffs.clone());
        }
        assert!(self.ports.set(ports).is_ok(), "ports wired twice");
    }

    fn ports(&self) -> &[Rc<Port>] {
        self.ports.get().map_or(&[], Vec::as_slice)
    }

    /// Reserve a new ingress index for a cable being wired up. The upstream
    /// port is filled in by [`Switch::set_upstream`] once it exists (the
    /// port needs the index at construction, hence the two-step dance).
    pub(crate) fn reserve_ingress(&self) -> usize {
        let mut ups = self.upstream.borrow_mut();
        ups.push(Weak::new());
        self.ingress
            .borrow_mut()
            .push([IngressState::default(); NPRIO]);
        ups.len() - 1
    }

    /// Complete ingress registration with the upstream port feeding it.
    pub(crate) fn set_upstream(&self, idx: usize, upstream: Weak<Port>) {
        self.upstream.borrow_mut()[idx] = upstream;
    }

    /// Egress port index toward host `dst` for a flow: `Topology::next_hop`
    /// composed with the port layout, on precomputed constants. ECMP stage
    /// constants differ per tier so a flow's choices decorrelate.
    fn egress(&self, dst: NodeId, flow_hash: u64) -> usize {
        debug_assert!(dst.0 < self.topo.n_hosts(), "unknown destination {dst}");
        match self.route {
            Route::Tor { first_host, leaves } => {
                // Hosts below `first_host` wrap far past `n_down`.
                let down = dst.0.wrapping_sub(first_host) as usize;
                if down < self.n_down {
                    down
                } else {
                    self.n_down + ecmp_pick(flow_hash, 0xA1, leaves)
                }
            }
            Route::Leaf {
                pod,
                first_tor,
                spines,
            } => {
                let (tor, dst_pod) = self.topo.locate(dst);
                if dst_pod == pod {
                    (tor - first_tor) as usize
                } else {
                    self.n_down + ecmp_pick(flow_hash, 0xB2, spines)
                }
            }
            Route::Spine { leaves_per_pod } => {
                let (_, dst_pod) = self.topo.locate(dst);
                dst_pod as usize * leaves_per_pod + ecmp_pick(flow_hash, 0xC3, leaves_per_pod)
            }
        }
    }

    /// A packet arrives from cable `ingress`, one forwarding delay after
    /// it left the upstream port: route it, ECN-sample the egress queue it
    /// joins, enqueue it there and charge it to its ingress for PFC.
    pub(crate) fn receive(&self, mut pkt: Packet, ingress: usize) {
        let port = &self.ports()[self.egress(pkt.dst, pkt.flow_hash)];

        // ECN marking against the chosen egress queue depth (RED).
        if pkt.ecn_capable && self.ecn.enabled {
            let p = self.ecn.mark_probability(port.queue_bytes(pkt.prio));
            if p > 0.0 && self.rng.borrow_mut().chance(p) && !pkt.ecn_marked {
                pkt.ecn_marked = true;
                self.stats.on_ecn_mark();
                tele!(EcnMark {
                    port: port.label.clone(),
                    queued_bytes: port.queue_bytes(pkt.prio),
                });
            }
        }

        // A packet dropped at a full queue is not charged.
        let (prio, size) = (pkt.prio, pkt.size_bytes as u64);
        if port.enqueue(pkt, ingress) {
            self.charge(ingress, prio, size);
        }
    }

    /// PFC ingress accounting for a packet just enqueued: pause the
    /// upstream sender when its ingress counter crosses `xoff_bytes`.
    fn charge(&self, ingress: usize, prio: u8, size: u64) {
        if !self.pfc.enabled || prio == PRIO_TCP {
            return;
        }
        let crossed = {
            let st = &mut self.ingress.borrow_mut()[ingress][prio as usize];
            st.bytes += size;
            st.bytes > self.pfc.xoff_bytes && !st.xoff_sent
        };
        if !crossed {
            return;
        }
        // The counter over-estimates by every release whose departure has
        // passed but whose port has not applied it yet (a port applies its
        // own at its next wake or start): apply them all, then decide.
        let now = self.world.now();
        for port in self.ports() {
            if let Some(release) = port.take_due_release(now) {
                self.release(release);
            }
        }
        invariant!(
            !self.ports().iter().any(|p| p.has_due_release(now)),
            "{:?}: XOFF decided at {now:?} with a due release unapplied",
            self.addr
        );
        let send_xoff = {
            let st = &mut self.ingress.borrow_mut()[ingress][prio as usize];
            let send = st.bytes > self.pfc.xoff_bytes && !st.xoff_sent;
            st.xoff_sent |= send;
            send
        };
        if send_xoff {
            if self.xoffs.get() == 0 {
                for port in self.ports() {
                    port.wake_at_departure();
                }
            }
            self.xoffs.set(self.xoffs.get() + 1);
            self.send_pfc(ingress, prio, true);
        }
    }

    /// A port's PFC release: `size` bytes that entered via `ingress` have
    /// left the switch, at or before now. Resumes the upstream sender once
    /// the ingress counter falls to `xon_bytes`.
    pub(crate) fn release(&self, r: Release) {
        if !self.pfc.enabled || r.prio == PRIO_TCP {
            return;
        }
        let send_xon = {
            let mut ing = self.ingress.borrow_mut();
            let st = &mut ing[r.ingress][r.prio as usize];
            // PFC pause/resume decisions key off this counter; an underflow
            // here would wedge an XOFF on (or never send one) forever.
            invariant!(
                st.bytes >= r.size as u64,
                "PFC ingress accounting underflow: ingress {} prio {} has {} bytes, releasing {}",
                r.ingress,
                r.prio,
                st.bytes,
                r.size
            );
            st.bytes = st.bytes.saturating_sub(r.size as u64);
            if st.xoff_sent && st.bytes <= self.pfc.xon_bytes {
                st.xoff_sent = false;
                true
            } else {
                false
            }
        };
        if send_xon {
            self.xoffs.set(self.xoffs.get() - 1);
            self.send_pfc(r.ingress, r.prio, false);
        }
    }

    /// Emit a pause (XOFF) or resume (XON) control frame to the upstream
    /// device feeding `ingress`. Control frames bypass data queues; we model
    /// them as a scheduled flag change after the control flight time.
    fn send_pfc(&self, ingress: usize, prio: u8, xoff: bool) {
        let upstream = self.upstream.borrow()[ingress].clone();
        let Some(upstream) = upstream.upgrade() else {
            return;
        };
        if xoff {
            self.stats
                .on_pause(self.world.now(), upstream.host_owned, &upstream.label);
            tele!(PfcXoff {
                port: upstream.label.clone(),
                prio,
                to_host: upstream.host_owned,
            });
        } else {
            self.stats.on_resume();
            tele!(PfcXon {
                port: upstream.label.clone(),
                prio,
            });
        }
        let host_owned = upstream.host_owned;
        self.world.schedule_in(self.ctrl_delay, move || {
            upstream.set_paused(prio, xoff);
            if host_owned {
                // Let the host NIC observe its own pause state (the
                // monitoring system exports it as the TX-pause index).
                upstream.notify_host_pause(prio, xoff);
            }
        });
    }

    /// Convenience: sum of all egress queue occupancy.
    pub fn buffered_bytes(&self) -> u64 {
        self.ports().iter().map(|p| p.total_queued()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FabricConfig, PROP_DELAY};
    use crate::topology::NextHop;

    impl Switch {
        /// The routing decision spelled out — `Topology::next_hop` mapped
        /// through the port layout — as the reference for
        /// [`Switch::egress`].
        fn egress_index(&self, hop: NextHop) -> usize {
            use Tier::*;
            match (self.addr.tier, hop) {
                (Tor, NextHop::Host(h)) => (h.0 % self.topo.hosts_per_tor) as usize,
                (Tor, NextHop::Switch(s)) => {
                    assert_eq!(s.tier, Leaf);
                    self.n_down + (s.idx % self.topo.leaves_per_pod) as usize
                }
                (Leaf, NextHop::Switch(s)) => match s.tier {
                    Tor => (s.idx % self.topo.tors_per_pod) as usize,
                    Spine => self.n_down + s.idx as usize,
                    Leaf => unreachable!("leaf->leaf"),
                },
                (Spine, NextHop::Switch(s)) => {
                    assert_eq!(s.tier, Leaf);
                    s.idx as usize
                }
                _ => unreachable!("invalid hop {hop:?} at {:?}", self.addr),
            }
        }
    }

    #[test]
    fn egress_equals_next_hop_through_the_port_layout() {
        for cfg in [FabricConfig::cluster(2, 4, 8), FabricConfig::pod(4, 8, 2)] {
            let world = World::new();
            let topo = Rc::new(Topology::from_config(&cfg));
            let tiers = [
                (Tier::Tor, topo.n_tors(), cfg.hosts_per_tor),
                (Tier::Leaf, topo.n_leaves(), cfg.tors_per_pod),
                (Tier::Spine, cfg.spines, topo.n_leaves()),
            ];
            let mut checked = 0;
            for (tier, count, n_down) in tiers {
                for idx in 0..count {
                    let addr = SwitchAddr { tier, idx };
                    let sw = Switch::new(
                        world.clone(),
                        addr,
                        topo.clone(),
                        cfg.ecn,
                        cfg.pfc,
                        PROP_DELAY,
                        n_down as usize,
                        FabricStats::new(),
                        SimRng::new(1),
                    );
                    for dst in (0..topo.n_hosts()).map(NodeId) {
                        for flow in 0..64u64 {
                            let flow = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dst.0 as u64;
                            // A spine never sees its own pod's traffic, a
                            // leaf never another pod's local hop: next_hop
                            // answers for every destination all the same.
                            let hop = topo.next_hop(addr, dst, flow);
                            assert_eq!(
                                sw.egress(dst, flow),
                                sw.egress_index(hop),
                                "{addr:?} -> {dst} flow {flow:#x}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
            assert!(checked >= 64 * 32 * 6, "{checked} lookups");
        }
    }
}
