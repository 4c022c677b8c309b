//! Clos topology math: device numbering and next-hop computation.
//!
//! Devices are numbered densely per tier. Hosts map to ToRs by division,
//! ToRs to pods by division; every ToR uplinks to all leaves of its pod and
//! every leaf uplinks to all spines. Next hops are pure functions of
//! (device, destination host, flow hash), so per-switch routing tables
//! never need to be materialized; the one table kept is `host → (ToR,
//! pod)`, one entry per host and shared by every switch, which takes the
//! divisions off the per-packet path ([`Topology::locate`]).

use crate::config::FabricConfig;
use crate::packet::{ecmp_hash, NodeId};

/// Which switch tier a device belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    Tor,
    Leaf,
    Spine,
}

/// A switch identity: tier + dense index within the tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SwitchAddr {
    pub tier: Tier,
    pub idx: u32,
}

/// The next hop out of a switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// Deliver to an attached host (ToR down-port).
    Host(NodeId),
    /// Forward to another switch.
    Switch(SwitchAddr),
}

/// Immutable topology descriptor shared by all components.
#[derive(Clone, Debug)]
pub struct Topology {
    pub hosts_per_tor: u32,
    pub tors_per_pod: u32,
    pub leaves_per_pod: u32,
    pub pods: u32,
    pub spines: u32,
    /// `(tor_of(h), pod_of_host(h))` for every host `h`.
    locs: Vec<(u32, u32)>,
}

impl Topology {
    pub fn from_config(cfg: &FabricConfig) -> Topology {
        cfg.validate();
        let mut topo = Topology {
            hosts_per_tor: cfg.hosts_per_tor,
            tors_per_pod: cfg.tors_per_pod,
            leaves_per_pod: cfg.leaves_per_pod,
            pods: cfg.pods,
            spines: cfg.spines,
            locs: Vec::new(),
        };
        topo.locs = (0..topo.n_hosts())
            .map(|h| (topo.tor_of(NodeId(h)), topo.pod_of_host(NodeId(h))))
            .collect();
        topo
    }

    /// `(ToR, pod)` serving a host, by table lookup — what the switches
    /// route on.
    #[inline]
    pub fn locate(&self, h: NodeId) -> (u32, u32) {
        self.locs[h.index()]
    }

    pub fn n_hosts(&self) -> u32 {
        self.hosts_per_tor * self.tors_per_pod * self.pods
    }

    pub fn n_tors(&self) -> u32 {
        self.tors_per_pod * self.pods
    }

    pub fn n_leaves(&self) -> u32 {
        self.leaves_per_pod * self.pods
    }

    /// ToR index serving a host.
    pub fn tor_of(&self, h: NodeId) -> u32 {
        h.0 / self.hosts_per_tor
    }

    /// Pod containing a ToR.
    pub fn pod_of_tor(&self, tor: u32) -> u32 {
        tor / self.tors_per_pod
    }

    /// Pod containing a host.
    pub fn pod_of_host(&self, h: NodeId) -> u32 {
        self.pod_of_tor(self.tor_of(h))
    }

    /// Pod containing a leaf.
    pub fn pod_of_leaf(&self, leaf: u32) -> u32 {
        leaf / self.leaves_per_pod
    }

    /// Number of hops (switches) between two hosts: 1 (same rack),
    /// 3 (same pod, via leaf), or 5 (cross-pod, via spine).
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> u32 {
        if self.tor_of(a) == self.tor_of(b) {
            1
        } else if self.pod_of_host(a) == self.pod_of_host(b) {
            3
        } else {
            5
        }
    }

    /// Compute the next hop out of `sw` toward host `dst` for a flow.
    ///
    /// ECMP stage constants differ per tier so a flow's choices at
    /// successive tiers decorrelate.
    pub fn next_hop(&self, sw: SwitchAddr, dst: NodeId, flow_hash: u64) -> NextHop {
        debug_assert!(dst.0 < self.n_hosts(), "unknown destination {dst}");
        match sw.tier {
            Tier::Tor => {
                let my_tor = sw.idx;
                if self.tor_of(dst) == my_tor {
                    NextHop::Host(dst)
                } else {
                    let pod = self.pod_of_tor(my_tor);
                    let j = ecmp_hash(flow_hash, 0xA1, self.leaves_per_pod as usize) as u32;
                    NextHop::Switch(SwitchAddr {
                        tier: Tier::Leaf,
                        idx: pod * self.leaves_per_pod + j,
                    })
                }
            }
            Tier::Leaf => {
                let my_pod = self.pod_of_leaf(sw.idx);
                let dst_pod = self.pod_of_host(dst);
                if dst_pod == my_pod {
                    NextHop::Switch(SwitchAddr {
                        tier: Tier::Tor,
                        idx: self.tor_of(dst),
                    })
                } else {
                    let s = ecmp_hash(flow_hash, 0xB2, self.spines as usize) as u32;
                    NextHop::Switch(SwitchAddr {
                        tier: Tier::Spine,
                        idx: s,
                    })
                }
            }
            Tier::Spine => {
                let dst_pod = self.pod_of_host(dst);
                let j = ecmp_hash(flow_hash, 0xC3, self.leaves_per_pod as usize) as u32;
                NextHop::Switch(SwitchAddr {
                    tier: Tier::Leaf,
                    idx: dst_pod * self.leaves_per_pod + j,
                })
            }
        }
    }

    /// The full switch path a flow takes from `src` to `dst` (diagnostic /
    /// tests; the simulator itself routes hop by hop).
    pub fn path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Vec<SwitchAddr> {
        let mut path = Vec::new();
        let mut cur = SwitchAddr {
            tier: Tier::Tor,
            idx: self.tor_of(src),
        };
        loop {
            path.push(cur);
            assert!(path.len() <= 8, "routing loop: {path:?}");
            match self.next_hop(cur, dst, flow_hash) {
                NextHop::Host(_) => return path,
                NextHop::Switch(next) => cur = next,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;

    fn topo() -> Topology {
        Topology::from_config(&FabricConfig::cluster(2, 4, 8))
    }

    #[test]
    fn indexing() {
        let t = topo();
        assert_eq!(t.n_hosts(), 64);
        assert_eq!(t.n_tors(), 8);
        assert_eq!(t.n_leaves(), 8);
        assert_eq!(t.tor_of(NodeId(0)), 0);
        assert_eq!(t.tor_of(NodeId(8)), 1);
        assert_eq!(t.pod_of_host(NodeId(31)), 0);
        assert_eq!(t.pod_of_host(NodeId(32)), 1);
        for h in (0..t.n_hosts()).map(NodeId) {
            assert_eq!(t.locate(h), (t.tor_of(h), t.pod_of_host(h)));
        }
    }

    #[test]
    fn same_rack_path_is_single_tor() {
        let t = topo();
        let p = t.path(NodeId(0), NodeId(1), 7);
        assert_eq!(
            p,
            vec![SwitchAddr {
                tier: Tier::Tor,
                idx: 0
            }]
        );
        assert_eq!(t.hop_count(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn same_pod_path_via_leaf() {
        let t = topo();
        let p = t.path(NodeId(0), NodeId(9), 7);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].tier, Tier::Tor);
        assert_eq!(p[1].tier, Tier::Leaf);
        assert!(t.pod_of_leaf(p[1].idx) == 0, "stays in pod 0");
        assert_eq!(
            p[2],
            SwitchAddr {
                tier: Tier::Tor,
                idx: 1
            }
        );
        assert_eq!(t.hop_count(NodeId(0), NodeId(9)), 3);
    }

    #[test]
    fn cross_pod_path_via_spine() {
        let t = topo();
        let p = t.path(NodeId(0), NodeId(63), 7);
        assert_eq!(p.len(), 5);
        assert_eq!(p[2].tier, Tier::Spine);
        assert_eq!(
            p[4],
            SwitchAddr {
                tier: Tier::Tor,
                idx: 7
            }
        );
        assert_eq!(t.hop_count(NodeId(0), NodeId(63)), 5);
    }

    #[test]
    fn path_stable_per_flow() {
        let t = topo();
        assert_eq!(
            t.path(NodeId(0), NodeId(63), 99),
            t.path(NodeId(0), NodeId(63), 99)
        );
    }

    #[test]
    fn flows_spread_over_leaves() {
        let t = topo();
        let mut used = std::collections::BTreeSet::new();
        for flow in 0..256u64 {
            let p = t.path(NodeId(0), NodeId(9), flow);
            used.insert(p[1].idx);
        }
        // Pod 0 has 4 leaves; ECMP should touch most of them.
        assert!(used.len() >= 3, "only used leaves {used:?}");
        assert!(used.iter().all(|&l| t.pod_of_leaf(l) == 0));
    }

    #[test]
    fn degenerate_single_tor() {
        let t = Topology::from_config(&FabricConfig::rack(16));
        assert_eq!(t.path(NodeId(3), NodeId(12), 1).len(), 1);
    }
}
