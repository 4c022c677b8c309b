//! # xrdma-fabric — packet-level Clos fabric simulator
//!
//! Models the network substrate the paper's production clusters run on
//! (§II-B, "HAIL"): a three-tier Ethernet Clos (ToR / leaf / spine) carrying
//! RoCEv2, with
//!
//! * output-queued switches with finite per-priority egress queues,
//! * RED-style **ECN marking** (the signal DCQCN reacts to),
//! * **PFC** (802.1Qbb) ingress-accounted pause/resume for lossless classes,
//! * deterministic **ECMP** path selection hashed per flow (so RC queue
//!   pairs see in-order delivery, as on the real fabric),
//! * per-hop propagation + forwarding delay and store-and-forward
//!   serialization at configurable line rate.
//!
//! Congestion phenomena — incast queue growth, ECN marks, PFC pause storms,
//! head-of-line blocking by large messages — *emerge* from these mechanisms;
//! nothing above this layer fakes them. That is the property the paper's
//! Figure 10 (flow control) and §III Issue 2 (jitter) experiments need.
//!
//! The crate deliberately knows nothing about verbs or QPs: packets carry an
//! opaque `Box<dyn Any>` body that the RNIC layer downcasts.

pub mod config;
pub mod fabric;
pub mod lane;
pub mod packet;
pub mod port;
pub mod stats;
pub mod switch;
pub mod topology;

pub use config::{
    EcnConfig, FabricConfig, PfcConfig, LINK_GBPS, PROP_DELAY, SWITCH_DELAY, UPLINK_GBPS,
};
pub use fabric::{Fabric, NicSink};
pub use packet::{ecmp_hash, NodeId, Packet, NPRIO};
pub use stats::FabricStats;
pub use topology::Topology;

/// The determinism contract in a stack crate (DESIGN.md §7.1; the full set
/// of bans is proved in `xrdma-core`'s `contract` module). The marked test
/// must fire its clippy ban; the unmarked ones must stay clean, so any lint
/// in them fails `cargo clippy --all-targets -- -D warnings`.
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use xrdma_telemetry::span::SpanToken;
    use xrdma_telemetry::{span_end, span_hop, span_mark, span_open, tele};

    #[test]
    #[expect(clippy::disallowed_methods, reason = "contract: D1 must fire")]
    fn planting_instant_in_fabric_like_source_fails() {
        fn now_ns() -> u128 {
            std::time::Instant::now().elapsed().as_nanos()
        }
        assert!(now_ns() < 1_000_000_000_000);
    }

    /// A local fn whose name holds a banned one is no banned path.
    fn emit_raw_counts() -> u32 {
        0
    }

    #[test]
    fn t1_ignores_tele_macro_and_comments() {
        // emit_raw is the hub's delivery path; `tele!` tests `hub::active()`
        // first, and no hub is installed on a test thread.
        tele!(SeqDuplicate { seq: 1 });
        assert_eq!(emit_raw_counts(), 0);
    }

    #[test]
    fn t1_ignores_span_macros_and_lookalikes() {
        fn span_open_raw_counts() -> u32 {
            0
        }
        let tok = span_open!(0, 1, 2, 64);
        assert_eq!(tok, SpanToken::NONE);
        span_mark!(tok, Rx);
        span_hop!(tok, &Arc::from("sw0:1"), 0);
        span_end!(tok, 0);
        assert_eq!(span_open_raw_counts(), 0);
    }
}
