//! # xrdma-faults — deterministic fault injection for the X-RDMA stack
//!
//! The paper's robustness claims (§V-A keepalive dead-peer detection, §V-B
//! seq-ack retransmission, §VI-C "Emulate Fault", §VII-F postmortems) are
//! about what the middleware does *when things break*. This crate lets tests
//! and benches break things on purpose, deterministically: a [`FaultPlan`]
//! schedules typed faults on the virtual clock, and tiny guarded hooks
//! at the stack's existing choke points (`fabric::port` enqueue, the RNIC
//! receive/completion paths, `rnic::cm` connect) consult the installed
//! [`FaultInjector`] on their way through.
//!
//! ## Overhead contract
//!
//! Fault injection is a runtime plane, present in every build. Each hook
//! group in the stack sits under one `if xrdma_faults::active()`, a read
//! of a const-initialised thread-local `Cell<bool>`; with no injector
//! installed that read is the whole cost, and no spec list is walked and
//! no label compared. The `ungated-fault-hook` xrdma-lint rule rejects a
//! hook call outside that guard.
//!
//! ## Determinism contract
//!
//! All randomness (probabilistic drop/corrupt/duplicate/reorder) flows from
//! the [`SimRng`] stream handed to [`FaultInjector::install`], and windows
//! open/close on the world's own calendar — same seed + same plan ⇒ the
//! same packets are dropped at the same virtual instants, byte for byte.
//! Every fault window and every injected action is announced on the
//! telemetry bus (`fault-window` run-log events, packet-level
//! `fault-injected` ring events), so the flight recorder captures what was
//! done to the run.

pub mod inject;
pub mod plan;

pub use inject::{
    active, cqe_delay, injected_count, node_paused, port_drop, port_limit, register_node,
    rnic_connect_fault, rnic_rx, ConnectFault, FaultInjector, FaultsGuard, NodeCmd, RxFault,
};
pub use plan::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
