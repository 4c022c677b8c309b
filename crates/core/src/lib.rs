//! # xrdma-core — the X-RDMA middleware
//!
//! The paper's primary contribution (§IV–§V): a compact user-space
//! communication middleware over verbs, built for production robustness
//! rather than micro-benchmark records. This crate implements, faithfully
//! to the paper:
//!
//! * **Three abstractions, eight APIs** (Table I): [`XrdmaContext`],
//!   [`XrdmaChannel`], [`XrdmaMsg`] and `send_msg` / `polling` /
//!   `get_event_fd` / `(de)reg_mem` / `set_flag` / `process_event` /
//!   `trace_request`.
//! * **Run-to-complete thread model** (§IV-B): one context per simulated
//!   CPU thread, lock-free by construction, hybrid polling.
//! * **Mixed message model** (§IV-C): eager Send below `small_msg_size`
//!   (default 4 KiB); above it, a descriptor travels eagerly and the
//!   *receiver* fetches the payload with RDMA Read — "Read Replace Write",
//!   which also serves large RPC responses.
//! * **Seq-Ack window** (§V-B, Algorithm 1): an application-layer
//!   ring-buffer window guaranteeing RNR-free operation, ACK numbers
//!   piggybacked on outgoing messages, standalone ACKs after N unacked
//!   receptions, and a NOP message to break bidirectional window deadlock.
//! * **KeepAlive** (§V-A): zero-byte RDMA-Write probes after S ms of
//!   silence; a dead peer surfaces as retry exhaustion and the channel's
//!   resources are released immediately.
//! * **Flow control** (§V-C): 64 KiB fragmentation of large transfers plus
//!   a bounded outstanding-WR queue, coordinating with (not replacing)
//!   DCQCN.
//! * **Resource management** (§IV-E): a per-context memory cache of 4 MiB
//!   MRs that grows and shrinks with demand (with the §VI-C high-address
//!   isolation mode), and a QP cache that recycles RESET QPs to cut
//!   connection establishment from ~3.9 ms to ~2.5 ms.
//! * **Online/offline configuration** (Table III) via `set_flag`.

pub mod channel;
pub mod config;
pub mod context;
pub mod error;
pub mod lane;
pub mod memcache;
pub mod mux;
pub mod proto;
pub mod qpcache;
pub mod seqack;
pub mod stats;

pub use channel::{XrdmaChannel, XrdmaMsg};
pub use config::{FlowCtlConfig, MemCacheConfig, MsgMode, PollMode, XrdmaConfig};
pub use context::{poll_gap_violates, slow_op_violates, XrdmaContext};
pub use error::XrdmaError;
pub use mux::{ChannelMux, LogicalChannel, LruSlots, MuxReply};
pub use proto::MuxDesc;
pub use stats::{ChannelStats, ContextStats, MuxStats};

#[cfg(test)]
mod contract;
