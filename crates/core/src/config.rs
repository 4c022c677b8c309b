//! X-RDMA configuration: the paper's Table III parameters (online vs
//! offline) plus the tunables the design sections fix by prose.
//!
//! "Online" parameters may be changed at runtime through
//! `XrdmaContext::set_flag` (the XR-Adm distribution path); "offline" ones
//! are fixed once the context is created, exactly as in the paper.
//!
//! Values that no experiment varies are `const`s below rather than
//! fields: the hybrid-polling window and wake-up cost, the per-call CPU
//! costs of tracing, doorbells and `poll_cq`, the message-size cap, the
//! flow-control fragment size and the CQ depth. All but the last are
//! design constants of this model; the CQ depth is a Table III offline
//! key, so `set_flag("cq_size", …)` still refuses it as one.

use serde::Serialize;
use xrdma_rnic::PageKind;
use xrdma_sim::Dur;

use crate::error::XrdmaError;

/// Busy-poll window for `PollMode::Hybrid`: a wake-up within this long of
/// the last pump finds the thread still spinning.
pub const HYBRID_WINDOW: Dur = Dur::micros(100);

/// Wake-up latency paid in Event mode (or Hybrid outside the window).
pub const WAKEUP_LATENCY: Dur = Dur::micros(2);

/// Extra host CPU cost per side when tracing headers are on (req-rsp mode).
pub const CPU_TRACE: Dur = Dur::nanos(100);

/// Host CPU cost of one doorbell ring (MMIO write + WQE flush). Paid once
/// per postlist when coalescing, once per WR otherwise.
pub const CPU_DOORBELL: Dur = Dur::nanos(800);

/// Host CPU cost of one `poll_cq` call (one CQ cacheline sweep),
/// independent of how many CQEs it drains — the per-call overhead
/// batching amortizes.
pub const CPU_POLL: Dur = Dur::nanos(250);

/// Completion queue depth (Table III `cq_size`, offline). The seq-ack
/// window must stay below it (§IV-D).
pub const CQ_SIZE: usize = 8192;

/// Maximum message size accepted by `send_msg`.
pub const MAX_MSG_SIZE: u64 = 64 * 1024 * 1024;

/// Fragment size for large transfers under flow control (§V-C). The paper
/// lands on 64 KiB: moderate fragments unblock the RNIC without saturating
/// it.
pub const FRAG_BYTES: u64 = 64 * 1024;

/// Message framing mode (§VI-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum MsgMode {
    /// Bare-data: minimal protocol header, maximum performance (default).
    BareData,
    /// Req-rsp: a tracing header is reconstructed into every payload,
    /// enabling `trace_request` at ~2–4 % ping-pong overhead.
    ReqRsp,
}

/// Polling strategy (§IV-B hybrid polling).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PollMode {
    /// Busy polling: zero wake-up latency, one core pegged.
    Busy,
    /// Event (epoll) mode: every wake-up pays the block/unblock cost.
    Event,
    /// NAPI-style hybrid: epoll first, then stay in busy polling while
    /// traffic keeps arriving within [`HYBRID_WINDOW`].
    Hybrid,
}

/// Flow-control parameters (§V-C).
#[derive(Clone, Copy, Debug)]
pub struct FlowCtlConfig {
    /// Fragment large transfers at [`FRAG_BYTES`] and gate data WRs.
    pub enabled: bool,
    /// Maximum outstanding data WRs per context; excess queues in
    /// software.
    pub max_outstanding: usize,
    /// Hard cap on the software queue before `Backpressure` errors.
    pub queue_cap: usize,
}

impl Default for FlowCtlConfig {
    fn default() -> Self {
        FlowCtlConfig {
            enabled: true,
            max_outstanding: 16,
            queue_cap: 100_000,
        }
    }
}

/// Memory-cache parameters (§IV-E).
#[derive(Clone, Copy, Debug)]
pub struct MemCacheConfig {
    /// Size of each cached MR. The paper uses 4 MiB to avoid the
    /// many-small-MRs slowdown LITE reported.
    pub mr_bytes: u64,
    /// Idle MRs kept around before the shrink timer reclaims them.
    pub keep_idle: usize,
    /// Hard cap on total cached MRs (0 = unlimited).
    pub max_mrs: usize,
    /// §VI-C isolation: place the cache in the high address range and keep
    /// it away from other allocations.
    pub isolation: bool,
    /// Materialize real bytes. Backing is sparse (only written ranges
    /// occupy host memory), so this defaults to on — protocol headers are
    /// real bytes even in size-only experiments.
    pub backed: bool,
}

impl Default for MemCacheConfig {
    fn default() -> Self {
        MemCacheConfig {
            mr_bytes: 4 * 1024 * 1024,
            keep_idle: 4,
            max_mrs: 0,
            isolation: true,
            backed: true,
        }
    }
}

/// Full middleware configuration.
#[derive(Clone, Debug)]
pub struct XrdmaConfig {
    // -------------------------- online (Table III) --------------------
    /// KeepAlive probe interval.
    pub keepalive_intv: Dur,
    /// Operations slower than this are recorded in the slow log.
    pub slow_threshold: Dur,
    /// Poll gaps longer than this trigger the poll-gap watchdog.
    pub polling_warn_cycle: Dur,
    /// Sample mask for tracing: a message is traced when
    /// `msg_seq & trace_sample_mask == 0`. `u32::MAX` disables tracing.
    pub trace_sample_mask: u32,

    // -------------------------- offline (Table III) -------------------
    /// Share one SRQ across the context's QPs (discouraged; §VII-F).
    pub use_srq: bool,
    /// SRQ depth when `use_srq`.
    pub srq_size: usize,
    /// Page mode for QP buffers and the memory cache.
    pub ibqp_alloc_type: PageKind,
    /// Below this, a message travels eagerly inside one Send.
    pub small_msg_size: u64,

    // -------------------------- design constants ----------------------
    /// Seq-ack window depth (in-flight message limit per channel; must be
    /// below the CQ depth, §IV-D).
    pub inflight_depth: u32,
    /// Send a standalone ACK after this many unacked receptions.
    pub ack_after: u32,
    /// Per-context timer period (keepalive scan, deadlock probe, shrink).
    pub timer_period: Dur,
    /// Window-stall duration after which a NOP message breaks a potential
    /// bidirectional deadlock (§V-B).
    pub nop_timeout: Dur,
    pub msg_mode: MsgMode,
    pub poll_mode: PollMode,
    /// Maximum CQEs drained per `poll_cq` call (the batch size of the
    /// shared-CQ fast path).
    pub cq_poll_batch: usize,
    /// Chain sends issued within one progress quantum into a single
    /// postlist ringing one doorbell. Off = one doorbell per WR
    /// (the pre-fast-path behaviour, kept for differential testing).
    pub doorbell_coalesce: bool,
    pub flowctl: FlowCtlConfig,
    pub memcache: MemCacheConfig,
    /// QP cache capacity (0 disables recycling).
    pub qp_cache: usize,

    // -------------------------- connection mux ------------------------
    /// Maximum live physical QP slots a `ChannelMux` holds before LRU
    /// eviction kicks in. Sized to the RNIC's QP-context SRAM so the pool
    /// stays cache-resident (the whole point of multiplexing). Offline.
    pub mux_pool: usize,
    /// Physical lanes per peer: logical channels to one peer hash over
    /// this many QPs, bounding head-of-line blocking without defeating
    /// the pool. Offline.
    pub mux_lanes: u64,

    // -------------------------- CPU cost model ------------------------
    /// Host CPU cost charged per send_msg call.
    pub cpu_send: Dur,
    /// Host CPU cost charged per delivered message.
    pub cpu_recv: Dur,
}

impl Default for XrdmaConfig {
    fn default() -> Self {
        XrdmaConfig {
            keepalive_intv: Dur::millis(100),
            slow_threshold: Dur::millis(1),
            polling_warn_cycle: Dur::millis(2),
            trace_sample_mask: u32::MAX,
            use_srq: false,
            srq_size: 4096,
            ibqp_alloc_type: PageKind::Anonymous,
            small_msg_size: 4096,
            inflight_depth: 64,
            ack_after: 16,
            timer_period: Dur::millis(10),
            nop_timeout: Dur::millis(20),
            msg_mode: MsgMode::BareData,
            poll_mode: PollMode::Hybrid,
            cq_poll_batch: 64,
            doorbell_coalesce: true,
            flowctl: FlowCtlConfig::default(),
            memcache: MemCacheConfig::default(),
            qp_cache: 64,
            // Pool well under the modeled QP-context SRAM (1024 entries)
            // so a mux-backed node never thrashes it; 2 lanes per peer
            // keeps fan-in bounded at the default scale.
            mux_pool: 64,
            mux_lanes: 2,
            // Host software cost per message: X-RDMA sits ~140 ns/side
            // above the raw-verbs reference loop (the ≤10 % of §VII-A).
            cpu_send: Dur::nanos(1570),
            cpu_recv: Dur::nanos(1570),
        }
    }
}

impl XrdmaConfig {
    /// Apply an online configuration change by key (the `set_flag` /
    /// XR-Adm path). Offline keys are rejected at runtime, exactly like
    /// the production tool would.
    pub fn set_flag(&mut self, key: &str, value: &str) -> Result<(), XrdmaError> {
        fn num(v: &str) -> Result<u64, XrdmaError> {
            v.parse::<u64>()
                .map_err(|_| XrdmaError::BadConfig("value must be an integer"))
        }
        match key {
            "keepalive_intv_ms" => {
                self.keepalive_intv = Dur::millis(num(value)?);
                Ok(())
            }
            "slow_threshold_us" => {
                self.slow_threshold = Dur::micros(num(value)?);
                Ok(())
            }
            "polling_warn_cycle_us" => {
                self.polling_warn_cycle = Dur::micros(num(value)?);
                Ok(())
            }
            "trace_sample_mask" => {
                self.trace_sample_mask = num(value)? as u32;
                Ok(())
            }
            "flowctl_enabled" => {
                self.flowctl.enabled = match value {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    _ => return Err(XrdmaError::BadConfig("expected bool")),
                };
                Ok(())
            }
            "flowctl_max_outstanding" => {
                self.flowctl.max_outstanding = num(value)? as usize;
                Ok(())
            }
            "msg_mode" => {
                self.msg_mode = match value {
                    "bare" => MsgMode::BareData,
                    "reqrsp" => MsgMode::ReqRsp,
                    _ => return Err(XrdmaError::BadConfig("expected bare|reqrsp")),
                };
                Ok(())
            }
            "poll_mode" => {
                self.poll_mode = match value {
                    "busy" => PollMode::Busy,
                    "event" => PollMode::Event,
                    "hybrid" => PollMode::Hybrid,
                    _ => return Err(XrdmaError::BadConfig("expected busy|event|hybrid")),
                };
                Ok(())
            }
            "doorbell_coalesce" => {
                self.doorbell_coalesce = match value {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    _ => return Err(XrdmaError::BadConfig("expected bool")),
                };
                Ok(())
            }
            // Offline parameters cannot change at runtime.
            "use_srq" | "cq_size" | "srq_size" | "ibqp_alloc_type" | "small_msg_size"
            | "cq_poll_batch" | "mux_pool" | "mux_lanes" => {
                Err(XrdmaError::BadConfig("offline parameter"))
            }
            _ => Err(XrdmaError::BadConfig("unknown key")),
        }
    }

    /// Is a message of `len` bytes "small" (eager) under this config?
    pub fn is_small(&self, len: u64) -> bool {
        len < self.small_msg_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = XrdmaConfig::default();
        assert_eq!(c.small_msg_size, 4096, "§IV-C: 4 KB threshold");
        assert_eq!(FRAG_BYTES, 64 * 1024, "§V-C: 64 KB fragments");
        assert_eq!(c.memcache.mr_bytes, 4 * 1024 * 1024, "§IV-E: 4 MB MRs");
        assert!(!c.use_srq, "§VII-F: SRQ supported but disabled by default");
        assert!(c.inflight_depth < CQ_SIZE as u32, "§IV-D depth < CQ depth");
        assert_eq!(c.poll_mode, PollMode::Hybrid, "§IV-B hybrid polling");
        assert_eq!(HYBRID_WINDOW, Dur::micros(100));
        assert_eq!(WAKEUP_LATENCY, Dur::micros(2));
        assert_eq!(CPU_TRACE, Dur::nanos(100));
        assert_eq!(CPU_DOORBELL, Dur::nanos(800));
        assert_eq!(CPU_POLL, Dur::nanos(250));
        assert_eq!(MAX_MSG_SIZE, 64 * 1024 * 1024);
    }

    #[test]
    fn online_flags_apply() {
        let mut c = XrdmaConfig::default();
        c.set_flag("keepalive_intv_ms", "250").unwrap();
        assert_eq!(c.keepalive_intv, Dur::millis(250));
        c.set_flag("slow_threshold_us", "500").unwrap();
        assert_eq!(c.slow_threshold, Dur::micros(500));
        c.set_flag("trace_sample_mask", "0").unwrap();
        assert_eq!(c.trace_sample_mask, 0);
        c.set_flag("flowctl_enabled", "false").unwrap();
        assert!(!c.flowctl.enabled);
        c.set_flag("msg_mode", "reqrsp").unwrap();
        assert_eq!(c.msg_mode, MsgMode::ReqRsp);
        c.set_flag("poll_mode", "event").unwrap();
        assert_eq!(c.poll_mode, PollMode::Event);
        c.set_flag("doorbell_coalesce", "0").unwrap();
        assert!(!c.doorbell_coalesce);
        assert!(c.set_flag("poll_mode", "adaptive").is_err());
        assert!(c.set_flag("poll_mode", "turbo").is_err());
    }

    #[test]
    fn offline_flags_rejected() {
        let mut c = XrdmaConfig::default();
        // Table III's offline keys — `cq_size` included, though it is a
        // constant here — plus the mux pool geometry, which pins physical
        // resources.
        for (key, value) in [
            ("use_srq", "true"),
            ("cq_size", "1024"),
            ("srq_size", "1024"),
            ("ibqp_alloc_type", "huge"),
            ("small_msg_size", "8192"),
            ("cq_poll_batch", "16"),
            ("mux_pool", "16"),
            ("mux_lanes", "4"),
        ] {
            assert_eq!(
                c.set_flag(key, value),
                Err(XrdmaError::BadConfig("offline parameter")),
                "{key}"
            );
        }
    }

    #[test]
    fn unknown_and_malformed() {
        let mut c = XrdmaConfig::default();
        assert!(c.set_flag("no_such_key", "1").is_err());
        // The retired adaptive poller's spin limit is no longer a key.
        let retired = ["poll", "spin", "limit"].join("_");
        assert_eq!(
            c.set_flag(&retired, "8"),
            Err(XrdmaError::BadConfig("unknown key"))
        );
        assert!(c.set_flag("keepalive_intv_ms", "soon").is_err());
        assert!(c.set_flag("flowctl_enabled", "maybe").is_err());
    }

    #[test]
    fn small_threshold() {
        let c = XrdmaConfig::default();
        assert!(c.is_small(0));
        assert!(c.is_small(4095));
        assert!(!c.is_small(4096));
    }
}
