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
