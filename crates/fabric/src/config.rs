//! Fabric configuration: topology shape and buffer thresholds, plus the
//! link calibration every shape shares (DESIGN.md §1).

use xrdma_sim::Dur;

/// Host–ToR link rate in Gb/s (paper: dual-port 25 Gb/s ConnectX-4 Lx;
/// we model the single 25 Gb/s port). The one line rate: the serial
/// fabric's access links, the lane stack's host ports and DCQCN's rate
/// cap all read it.
pub const LINK_GBPS: f64 = 25.0;
/// Switch–switch link rate in Gb/s.
pub const UPLINK_GBPS: f64 = 100.0;
/// Per-hop propagation delay (cable + PHY).
pub const PROP_DELAY: Dur = Dur::nanos(250);
/// Switch forwarding (pipeline) delay per packet.
pub const SWITCH_DELAY: Dur = Dur::nanos(500);

/// ECN / RED marking parameters, evaluated on egress queue depth.
///
/// Linear marking probability between `kmin` and `kmax`, probability `pmax`
/// at `kmax`, always mark above `kmax` — the standard DCQCN switch
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct EcnConfig {
    pub enabled: bool,
    pub kmin_bytes: u64,
    pub kmax_bytes: u64,
    pub pmax: f64,
}

impl Default for EcnConfig {
    fn default() -> Self {
        EcnConfig {
            enabled: true,
            kmin_bytes: 64 * 1024,
            kmax_bytes: 320 * 1024,
            pmax: 0.2,
        }
    }
}

impl EcnConfig {
    /// Marking probability at egress queue depth `q` bytes.
    pub fn mark_probability(&self, q: u64) -> f64 {
        if !self.enabled || q <= self.kmin_bytes {
            0.0
        } else if q >= self.kmax_bytes {
            1.0
        } else {
            self.pmax * (q - self.kmin_bytes) as f64 / (self.kmax_bytes - self.kmin_bytes) as f64
        }
    }
}

/// PFC (802.1Qbb) parameters, evaluated on per-(ingress port, priority)
/// buffer occupancy.
#[derive(Clone, Copy, Debug)]
pub struct PfcConfig {
    pub enabled: bool,
    /// Send XOFF (pause) upstream when ingress occupancy exceeds this.
    pub xoff_bytes: u64,
    /// Send XON (resume) when occupancy falls to or below this.
    pub xon_bytes: u64,
}

impl Default for PfcConfig {
    fn default() -> Self {
        PfcConfig {
            enabled: true,
            xoff_bytes: 256 * 1024,
            xon_bytes: 128 * 1024,
        }
    }
}

/// Complete fabric configuration.
///
/// The default is a small two-tier pod useful for tests; experiments build
/// the paper-scale shapes via the constructors.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Hosts attached to each ToR switch (paper: 40).
    pub hosts_per_tor: u32,
    /// ToR switches per pod.
    pub tors_per_pod: u32,
    /// Leaf switches per pod (each ToR uplinks to all of them). May be 0
    /// only in the degenerate single-ToR topology.
    pub leaves_per_pod: u32,
    /// Number of pods.
    pub pods: u32,
    /// Spine switches (each leaf uplinks to all of them). May be 0 when
    /// there is a single pod.
    pub spines: u32,
    /// Per-priority egress queue capacity in bytes. Sized like a
    /// shared-buffer switch: it must exceed the sum of PFC XOFF allowances
    /// over the ports that can converge on one egress, or the "lossless"
    /// class tail-drops under incast.
    pub queue_limit_bytes: u64,
    pub ecn: EcnConfig,
    pub pfc: PfcConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            hosts_per_tor: 4,
            tors_per_pod: 2,
            leaves_per_pod: 2,
            pods: 1,
            spines: 0,
            queue_limit_bytes: 32 * 1024 * 1024,
            ecn: EcnConfig::default(),
            pfc: PfcConfig::default(),
        }
    }
}

impl FabricConfig {
    /// Two hosts under one ToR — the micro-benchmark topology (Fig 7).
    pub fn pair() -> FabricConfig {
        FabricConfig {
            hosts_per_tor: 2,
            tors_per_pod: 1,
            leaves_per_pod: 0,
            pods: 1,
            spines: 0,
            ..Default::default()
        }
    }

    /// A single rack of `n` hosts — incast experiments (Fig 10).
    pub fn rack(n: u32) -> FabricConfig {
        FabricConfig {
            hosts_per_tor: n,
            tors_per_pod: 1,
            leaves_per_pod: 0,
            pods: 1,
            spines: 0,
            ..Default::default()
        }
    }

    /// A production-like pod: `tors` racks of `hosts_per_tor` hosts behind
    /// `leaves` leaf switches (Figs 8, 9, 11, 12 scale-downs).
    pub fn pod(tors: u32, hosts_per_tor: u32, leaves: u32) -> FabricConfig {
        FabricConfig {
            hosts_per_tor,
            tors_per_pod: tors,
            leaves_per_pod: leaves,
            pods: 1,
            spines: 0,
            ..Default::default()
        }
    }

    /// The paper's sub-cluster shape scaled by `scale` (1.0 = 256 nodes:
    /// 8 racks × 32 hosts here, 4 leaves, 4 spines, 2 pods at scale 2).
    pub fn cluster(pods: u32, tors_per_pod: u32, hosts_per_tor: u32) -> FabricConfig {
        FabricConfig {
            hosts_per_tor,
            tors_per_pod,
            leaves_per_pod: 4,
            pods,
            spines: if pods > 1 { 4 } else { 0 },
            ..Default::default()
        }
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

    /// Panic with a clear message if the shape is inconsistent.
    pub fn validate(&self) {
        assert!(self.hosts_per_tor >= 1, "need at least one host per ToR");
        assert!(self.tors_per_pod >= 1 && self.pods >= 1);
        if self.n_tors() > 1 {
            assert!(
                self.leaves_per_pod >= 1,
                "multi-ToR topology requires leaf switches"
            );
        }
        if self.pods > 1 {
            assert!(self.spines >= 1, "multi-pod topology requires spines");
        }
        assert!(
            self.pfc.xon_bytes <= self.pfc.xoff_bytes,
            "XON threshold must not exceed XOFF"
        );
        assert!(self.ecn.kmin_bytes <= self.ecn.kmax_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecn_probability_curve() {
        let e = EcnConfig {
            enabled: true,
            kmin_bytes: 100,
            kmax_bytes: 200,
            pmax: 0.5,
        };
        assert_eq!(e.mark_probability(50), 0.0);
        assert_eq!(e.mark_probability(100), 0.0);
        assert!((e.mark_probability(150) - 0.25).abs() < 1e-12);
        assert_eq!(e.mark_probability(200), 1.0);
        assert_eq!(e.mark_probability(10_000), 1.0);
    }

    #[test]
    fn ecn_disabled_never_marks() {
        let e = EcnConfig {
            enabled: false,
            ..Default::default()
        };
        assert_eq!(e.mark_probability(u64::MAX), 0.0);
    }

    #[test]
    fn shape_counts() {
        let c = FabricConfig::cluster(2, 8, 16);
        assert_eq!(c.n_hosts(), 256);
        assert_eq!(c.n_tors(), 16);
        assert_eq!(c.n_leaves(), 8);
        c.validate();
    }

    #[test]
    fn pair_is_valid() {
        FabricConfig::pair().validate();
        FabricConfig::rack(64).validate();
        FabricConfig::pod(4, 16, 2).validate();
    }

    #[test]
    #[should_panic(expected = "requires leaf switches")]
    fn multi_tor_without_leaves_panics() {
        FabricConfig {
            tors_per_pod: 2,
            leaves_per_pod: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "requires spines")]
    fn multi_pod_without_spines_panics() {
        FabricConfig {
            pods: 2,
            spines: 0,
            ..Default::default()
        }
        .validate();
    }
}
