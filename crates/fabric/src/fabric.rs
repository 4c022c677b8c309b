//! Fabric assembly: builds the Clos out of switches, ports and cables, and
//! exposes the host-facing attach/send API the RNIC layer uses.

use std::rc::Rc;

use xrdma_sim::{SimRng, World};

use crate::config::FabricConfig;
use crate::packet::{NodeId, Packet};
use crate::port::{Port, PortDest};
use crate::stats::FabricStats;
use crate::switch::Switch;
use crate::topology::{SwitchAddr, Tier, Topology};

/// What a host NIC must implement to receive from the fabric.
pub trait NicSink {
    /// A packet arrived at this host.
    fn deliver(&self, pkt: Packet);
    /// The host's transmit path was PFC-paused (`paused=true`) or resumed.
    /// Default: ignore (the egress port already obeys the pause; this is an
    /// observability hook for the NIC's counters).
    fn pfc_pause(&self, _prio: u8, _paused: bool) {}
}

/// The assembled network.
pub struct Fabric {
    world: Rc<World>,
    cfg: FabricConfig,
    topo: Rc<Topology>,
    stats: Rc<FabricStats>,
    tors: Vec<Rc<Switch>>,
    leaves: Vec<Rc<Switch>>,
    spines: Vec<Rc<Switch>>,
    /// Host NIC egress (uplink) ports, indexed by host.
    host_ports: Vec<Rc<Port>>,
    /// ToR down-ports facing each host, indexed by host (sink attach point).
    down_ports: Vec<Rc<Port>>,
}

impl Fabric {
    /// Build the fabric described by `cfg`. Hosts still need to be attached
    /// via [`Fabric::attach_host`] before they can receive.
    pub fn new(world: Rc<World>, cfg: FabricConfig, rng: &SimRng) -> Rc<Fabric> {
        cfg.validate();
        let topo = Rc::new(Topology::from_config(&cfg));
        let stats = FabricStats::new();
        // The fabric's two constant per-packet delays, one line each.
        let cable = Port::cable(&world, cfg.prop_delay);
        let pipeline = Switch::pipeline(&world, cfg.switch_delay);

        let mk_switch = |tier: Tier, idx: u32, n_down: usize| {
            Switch::new(
                world.clone(),
                SwitchAddr { tier, idx },
                topo.clone(),
                cfg.ecn,
                cfg.pfc,
                pipeline.clone(),
                cfg.prop_delay,
                n_down,
                stats.clone(),
                rng.fork(&format!("sw-{tier:?}-{idx}")),
            )
        };

        let tors: Vec<_> = (0..topo.n_tors())
            .map(|i| mk_switch(Tier::Tor, i, cfg.hosts_per_tor as usize))
            .collect();
        let leaves: Vec<_> = (0..topo.n_leaves())
            .map(|i| mk_switch(Tier::Leaf, i, cfg.tors_per_pod as usize))
            .collect();
        let spines: Vec<_> = (0..cfg.spines)
            .map(|i| mk_switch(Tier::Spine, i, topo.n_leaves() as usize))
            .collect();

        // Helper: create one direction of a cable from `src_label` into
        // switch `dst`, returning the new egress port on the sending side.
        let mk_port_into_switch = |label: String, rate: f64, dst: &Rc<Switch>, host_owned: bool| {
            let ingress = dst.reserve_ingress();
            let port = Port::new(
                world.clone(),
                label,
                rate,
                cable.clone(),
                cfg.queue_limit_bytes,
                PortDest::Switch {
                    sw: Rc::downgrade(dst),
                    ingress,
                },
                stats.clone(),
                host_owned,
            );
            dst.set_upstream(ingress, Rc::downgrade(&port));
            port
        };

        // Host <-> ToR cables.
        let mut host_ports = Vec::with_capacity(topo.n_hosts() as usize);
        let mut down_ports = Vec::with_capacity(topo.n_hosts() as usize);
        // xrdma-lint: allow(hot-path-alloc) -- one-time topology construction
        let mut tor_ports: Vec<Vec<Rc<Port>>> = vec![Vec::new(); tors.len()];
        for h in 0..topo.n_hosts() {
            let t = topo.tor_of(NodeId(h)) as usize;
            // Up direction: host NIC egress into the ToR.
            let up = mk_port_into_switch(format!("host{h}->tor{t}"), cfg.link_gbps, &tors[t], true);
            host_ports.push(up);
            // Down direction: ToR egress to the host.
            let down = Port::new(
                world.clone(),
                format!("tor{t}->host{h}"),
                cfg.link_gbps,
                cable.clone(),
                cfg.queue_limit_bytes,
                PortDest::Host {
                    sink: std::cell::RefCell::new(None),
                },
                stats.clone(),
                false,
            );
            down_ports.push(down.clone());
            tor_ports[t].push(down);
        }

        // ToR <-> Leaf cables (each ToR to every leaf in its pod).
        // xrdma-lint: allow(hot-path-alloc) -- one-time topology construction
        let mut leaf_ports: Vec<Vec<Rc<Port>>> = vec![Vec::new(); leaves.len()];
        for (t, tor) in tors.iter().enumerate() {
            let pod = topo.pod_of_tor(t as u32);
            for j in 0..cfg.leaves_per_pod {
                let l = (pod * cfg.leaves_per_pod + j) as usize;
                let up = mk_port_into_switch(
                    format!("tor{t}->leaf{l}"),
                    cfg.uplink_gbps,
                    &leaves[l],
                    false,
                );
                tor_ports[t].push(up);
                let down =
                    mk_port_into_switch(format!("leaf{l}->tor{t}"), cfg.uplink_gbps, tor, false);
                // Leaf down-ports are laid out per-ToR-within-pod.
                leaf_ports[l].push(down);
            }
        }
        // Reorder leaf down ports: they were pushed per (tor, leaf) loop in
        // tor-major order, which is exactly tors_per_pod entries per leaf in
        // ToR order — matching the port layout Switch::egress assumes.

        // Leaf <-> Spine cables (every leaf to every spine).
        // xrdma-lint: allow(hot-path-alloc) -- one-time topology construction
        let mut spine_ports: Vec<Vec<Rc<Port>>> = vec![Vec::new(); spines.len()];
        for (l, leaf) in leaves.iter().enumerate() {
            for (s, spine) in spines.iter().enumerate() {
                let up = mk_port_into_switch(
                    format!("leaf{l}->spine{s}"),
                    cfg.uplink_gbps,
                    spine,
                    false,
                );
                leaf_ports[l].push(up);
                let down =
                    mk_port_into_switch(format!("spine{s}->leaf{l}"), cfg.uplink_gbps, leaf, false);
                spine_ports[s].push(down);
            }
        }
        // Spine down-ports were pushed in leaf-major order because the
        // outer loop is over leaves — spine_ports[s][l] faces leaf l. ✓

        for (t, tor) in tors.iter().enumerate() {
            tor.set_ports(std::mem::take(&mut tor_ports[t]));
        }
        for (l, leaf) in leaves.iter().enumerate() {
            leaf.set_ports(std::mem::take(&mut leaf_ports[l]));
        }
        for (s, spine) in spines.iter().enumerate() {
            spine.set_ports(std::mem::take(&mut spine_ports[s]));
        }

        Rc::new(Fabric {
            world,
            cfg,
            topo,
            stats,
            tors,
            leaves,
            spines,
            host_ports,
            down_ports,
        })
    }

    /// Attach a host NIC: packets destined to `node` will be handed to
    /// `sink`, and the returned port is the host's egress (uplink) — the
    /// NIC pushes outbound packets into it.
    pub fn attach_host(&self, node: NodeId, sink: Rc<dyn NicSink>) -> Rc<Port> {
        let i = node.index();
        self.down_ports[i].set_host_sink(&sink);
        self.host_ports[i].set_peer_sink(&sink);
        self.host_ports[i].clone()
    }

    /// Enqueue a packet at its source host's egress port. Returns false if
    /// the NIC egress queue overflowed (counted as a drop).
    pub fn send(&self, pkt: Packet) -> bool {
        let i = pkt.src.index();
        self.host_ports[i].enqueue(pkt, usize::MAX)
    }

    /// The egress port of a host (for direct rate/pause inspection).
    pub fn host_port(&self, node: NodeId) -> Rc<Port> {
        self.host_ports[node.index()].clone()
    }

    pub fn world(&self) -> &Rc<World> {
        &self.world
    }

    pub fn stats(&self) -> &Rc<FabricStats> {
        &self.stats
    }

    pub fn topology(&self) -> &Rc<Topology> {
        &self.topo
    }

    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    pub fn n_hosts(&self) -> u32 {
        self.topo.n_hosts()
    }

    /// Total bytes buffered in all switch queues (buffer-utilization index).
    pub fn buffered_bytes(&self) -> u64 {
        self.tors
            .iter()
            .chain(self.leaves.iter())
            .chain(self.spines.iter())
            .map(|s| s.buffered_bytes())
            .sum()
    }

    /// Access a ToR switch (tests / monitoring).
    pub fn tor(&self, idx: usize) -> Rc<Switch> {
        self.tors[idx].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PRIO_RDMA, PRIO_TCP};
    use std::any::Any;
    use std::cell::RefCell;
    use xrdma_sim::Dur;

    struct Collect {
        world: Rc<World>,
        got: RefCell<Vec<(u64, u64)>>, // (arrival ns, body tag)
        pauses: RefCell<Vec<(u8, bool)>>,
    }
    impl Collect {
        fn new(world: &Rc<World>) -> Rc<Collect> {
            Rc::new(Collect {
                world: world.clone(),
                got: RefCell::new(Vec::new()),
                pauses: RefCell::new(Vec::new()),
            })
        }
    }
    impl NicSink for Collect {
        fn deliver(&self, pkt: Packet) {
            let tag = *pkt.body.downcast::<u64>().unwrap();
            self.got.borrow_mut().push((self.world.now().nanos(), tag));
        }
        fn pfc_pause(&self, prio: u8, paused: bool) {
            self.pauses.borrow_mut().push((prio, paused));
        }
    }

    fn pkt(src: u32, dst: u32, size: u32, tag: u64) -> Packet {
        Packet::new(
            NodeId(src),
            NodeId(dst),
            PRIO_RDMA,
            size,
            (src as u64) << 32 | dst as u64,
            Box::new(tag) as Box<dyn Any>,
        )
    }

    #[test]
    fn two_hosts_same_rack_deliver() {
        let w = World::new();
        let rng = SimRng::new(1);
        let f = Fabric::new(w.clone(), FabricConfig::pair(), &rng);
        let sink = Collect::new(&w);
        f.attach_host(NodeId(1), sink.clone());
        f.attach_host(NodeId(0), Collect::new(&w));
        assert!(f.send(pkt(0, 1, 1000, 42)));
        w.run();
        let got = sink.got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 42);
        // host ser 320 + prop 250 + fwd 500 + tor ser 320 + prop 250 = 1640.
        assert_eq!(got[0].0, 1640);
        assert_eq!(f.stats().snapshot().delivered_pkts, 1);
    }

    #[test]
    fn cross_pod_delivery_traverses_five_switches() {
        let w = World::new();
        let rng = SimRng::new(2);
        let f = Fabric::new(w.clone(), FabricConfig::cluster(2, 2, 2), &rng);
        let n = f.n_hosts();
        assert_eq!(n, 8);
        let sink = Collect::new(&w);
        f.attach_host(NodeId(7), sink.clone());
        assert!(f.send(pkt(0, 7, 1000, 9)));
        w.run();
        assert_eq!(sink.got.borrow().len(), 1);
        // 1 host hop + 5 switch hops of prop delay at least.
        assert!(sink.got.borrow()[0].0 > 6 * 200);
    }

    #[test]
    fn per_flow_in_order_delivery() {
        let w = World::new();
        let rng = SimRng::new(3);
        let f = Fabric::new(w.clone(), FabricConfig::cluster(2, 2, 2), &rng);
        let sink = Collect::new(&w);
        f.attach_host(NodeId(7), sink.clone());
        for i in 0..50 {
            assert!(f.send(pkt(0, 7, 1500, i)));
        }
        w.run();
        let tags: Vec<u64> = sink.got.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn incast_generates_pfc_pauses() {
        let w = World::new();
        let rng = SimRng::new(4);
        let mut cfg = FabricConfig::rack(9);
        cfg.pfc.xoff_bytes = 32 * 1024;
        cfg.pfc.xon_bytes = 16 * 1024;
        let f = Fabric::new(w.clone(), cfg, &rng);
        let sink = Collect::new(&w);
        f.attach_host(NodeId(0), sink.clone());
        // 8 senders blast host 0: the ToR's egress to host 0 backs up and
        // the senders' ingress accounting must trip XOFF.
        for s in 1..9u32 {
            for i in 0..200 {
                f.send(pkt(s, 0, 4096, (s as u64) * 1000 + i));
            }
        }
        w.run();
        let c = f.stats().snapshot();
        assert!(c.pause_frames > 0, "no PFC under incast: {c:?}");
        assert!(c.host_tx_pause > 0, "pauses should land on host NICs");
        assert!(c.resume_frames > 0, "no resume after drain");
        assert_eq!(c.drops, 0, "PFC must keep the RDMA class lossless");
        assert_eq!(c.delivered_pkts, 8 * 200);
        // Every paused sender saw the pause notification.
        assert!(!sink.pauses.borrow().is_empty() || c.host_tx_pause > 0);
    }

    #[test]
    fn ecn_marks_under_congestion() {
        let w = World::new();
        let rng = SimRng::new(5);
        let mut cfg = FabricConfig::rack(5);
        cfg.ecn.kmin_bytes = 8 * 1024;
        cfg.ecn.kmax_bytes = 64 * 1024;
        let f = Fabric::new(w.clone(), cfg, &rng);
        let sink = Collect::new(&w);
        f.attach_host(NodeId(0), sink.clone());
        for s in 1..5u32 {
            for i in 0..100 {
                f.send(pkt(s, 0, 4096, (s as u64) * 1000 + i));
            }
        }
        w.run();
        assert!(f.stats().snapshot().ecn_marked > 0, "congestion must mark");
    }

    #[test]
    fn lossy_class_drops_without_pfc() {
        let w = World::new();
        let rng = SimRng::new(6);
        let mut cfg = FabricConfig::rack(5);
        cfg.queue_limit_bytes = 16 * 1024;
        let f = Fabric::new(w.clone(), cfg, &rng);
        f.attach_host(NodeId(0), Collect::new(&w));
        for s in 1..5u32 {
            for i in 0..100 {
                let mut p = pkt(s, 0, 4096, i);
                p.prio = PRIO_TCP; // lossy class: PFC does not protect it
                p.ecn_capable = false;
                f.send(p);
            }
        }
        w.run();
        assert!(
            f.stats().snapshot().drops > 0,
            "lossy class should tail-drop"
        );
    }

    #[test]
    fn deterministic_same_seed() {
        let run = |seed: u64| {
            let w = World::new();
            let rng = SimRng::new(seed);
            let f = Fabric::new(w.clone(), FabricConfig::cluster(2, 2, 2), &rng);
            let sink = Collect::new(&w);
            f.attach_host(NodeId(7), sink.clone());
            for i in 0..100 {
                f.send(pkt((i % 6) as u32, 7, 2048, i));
            }
            w.run();
            let v = sink.got.borrow().clone();
            v
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn pause_throttles_then_recovers() {
        // A paused sender stops transmitting; after XON it finishes.
        let w = World::new();
        let rng = SimRng::new(8);
        let mut cfg = FabricConfig::rack(3);
        cfg.pfc.xoff_bytes = 16 * 1024;
        cfg.pfc.xon_bytes = 8 * 1024;
        let f = Fabric::new(w.clone(), cfg, &rng);
        let sink = Collect::new(&w);
        f.attach_host(NodeId(0), sink.clone());
        for s in 1..3u32 {
            for i in 0..100 {
                f.send(pkt(s, 0, 4096, (s as u64) * 1000 + i));
            }
        }
        w.run_for(Dur::millis(50));
        assert_eq!(sink.got.borrow().len(), 200, "all traffic eventually lands");
        let host1 = f.host_port(NodeId(1));
        assert!(!host1.is_paused(PRIO_RDMA), "pause cleared at the end");
    }
}
