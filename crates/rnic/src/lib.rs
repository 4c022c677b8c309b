//! # xrdma-rnic — simulated RDMA NIC and verbs layer
//!
//! A behavioural model of an RDMA-capable NIC (the paper's testbed uses
//! Mellanox ConnectX-4 Lx) exposed through a verbs-shaped API. The X-RDMA
//! middleware, the baselines (raw verbs / UCX / libfabric / xio models) and
//! the application layers all program against this crate, exactly as their
//! real counterparts program against `libibverbs`.
//!
//! What is modelled (because the paper's phenomena depend on it):
//!
//! * **Objects**: PD, MR (lkey/rkey, bounds + access checks, optional real
//!   backing bytes), CQ/CQE with one-shot notification arming, RC QPs with
//!   the RESET→INIT→RTR→RTS→ERR state machine, SRQ.
//! * **Operations**: Send/Recv, Write, Write-with-imm, Read, FetchAdd/CAS —
//!   with MTU segmentation, message-granular ACK/NAK, **RNR NAK** when the
//!   receive queue is empty (Fig 9), go-back-N retransmission with retry
//!   exhaustion → QP error (the failure keepalive relies on, §V-A).
//! * **DCQCN** (reaction point, notification point) driving a per-QP pacer,
//!   plus a round-robin injector with a bounded NIC egress queue — so large
//!   WRs block the pipe and flow control has something to fix (Fig 10).
//! * **QP-context SRAM cache** with a miss penalty (§VII-F scalability).
//! * **Connection management**: an `rdma_cm`-shaped handshake costing
//!   ~4 ms, split so QP reuse (X-RDMA's QP cache) can skip the QP-creation
//!   share (§VII-C: 3946 µs → 2451 µs), and a TCP model (~100 µs connect)
//!   for the Mock fallback and establishment comparisons.

pub mod cm;
pub mod config;
pub mod cq;
pub mod dcqcn;
pub mod engine;
pub mod lane;
pub mod mem;
pub mod qp;
pub mod tcp;
pub mod verbs;
pub mod wire;

pub use cm::{CmConfig, ConnManager};
pub use config::PageKind;
pub use config::RnicConfig;
pub use cq::{CompletionQueue, Cqe, CqeOpcode, CqeStatus, SharedCq};
pub use engine::Rnic;
pub use mem::{AccessFlags, Mr, Pd};
pub use qp::{Qp, QpCaps, QpState, Srq};
pub use verbs::{RecvWr, SendOp, SendWr, VerbsError};
/// Re-exported because `SendWr`/`Cqe` carry one: literal constructors in
/// dependent crates need the type without a direct telemetry dependency.
pub use xrdma_telemetry::SpanToken;
