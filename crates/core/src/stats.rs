//! Middleware statistics: the per-connection counters XR-Stat exports
//! (§VI-B) and the per-context aggregates the monitor collects.

use serde::Serialize;
use xrdma_sim::stats::HistSummary;

/// Per-channel counters — the `netstat`-like rows XR-Stat prints.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ChannelStats {
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Messages that travelled the eager (small) path.
    pub small_msgs: u64,
    /// Messages that travelled the rendezvous (large, read-replace-write)
    /// path.
    pub large_msgs: u64,
    /// Standalone ACK messages emitted.
    pub standalone_acks: u64,
    /// NOP deadlock-breakers emitted (§V-B).
    pub nops_sent: u64,
    /// KeepAlive probes emitted (§V-A).
    pub keepalive_probes: u64,
    /// Sends deferred because the seq-ack window was full.
    pub window_stalls: u64,
    /// WRs deferred by the flow-control outstanding limit (§V-C).
    pub flowctl_queued: u64,
    /// Fragments produced by flow-control fragmentation.
    pub fragments: u64,
    /// RPC requests currently awaiting a response.
    pub rpcs_outstanding: u64,
    /// Completed RPC round trips.
    pub rpcs_completed: u64,
    /// Inbound messages dropped because the local memory cache was
    /// exhausted (recovered by the sender's seq-ack retransmit).
    pub oom_drops: u64,
}

/// Per-context aggregates.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ContextStats {
    pub channels_open: usize,
    pub channels_closed_total: u64,
    /// Channels torn down by keepalive detecting a dead peer.
    pub keepalive_failures: u64,
    /// Connects served from the QP cache vs fresh creations.
    pub qp_cache_hits: u64,
    pub qp_cache_misses: u64,
    /// Memory-cache gauges (Fig 11c).
    pub memcache_occupied: u64,
    pub memcache_in_use: u64,
    /// Completion events processed by `polling`.
    pub events_polled: u64,
    /// Poll gaps exceeding `polling_warn_cycle` (§VI-A method II).
    pub poll_gap_warnings: u64,
    /// `poll_cq` calls issued by the progress engine, and the subset that
    /// drained no CQEs.
    pub cq_polls: u64,
    pub cq_empty_polls: u64,
    /// Doorbells rung and WRs they carried; `doorbell_wrs / doorbells_rung`
    /// is the postlist coalescing factor actually achieved.
    pub doorbells_rung: u64,
    pub doorbell_wrs: u64,
    /// RPC latency distribution (summarized).
    pub rpc_latency: Option<HistSummary>,
}

/// Connection-multiplexing counters (one `ChannelMux` per context).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct MuxStats {
    /// Logical channels ever opened (client + receiver side).
    pub logical_open: u64,
    /// Physical slot establishments, total (first-time + re-attach).
    pub establishments: u64,
    /// Establishments of a slot key that had been evicted before — the
    /// transparent re-establishment count.
    pub reestablishments: u64,
    /// Slots drained and closed by LRU pressure.
    pub evictions: u64,
    /// Frames handed to a live physical channel.
    pub frames_sent: u64,
    /// Frames parked while their slot was connecting or draining.
    pub frames_queued: u64,
    /// Frames a live slot absorbed because the context's flow cap was
    /// saturated (retried in order, never dropped).
    pub frames_deferred: u64,
    /// Frames delivered to logical channels on the receive side.
    pub frames_rx: u64,
    /// Duplicate logical frames dropped after a re-establishment race.
    pub dup_drops: u64,
    /// Live physical slots right now (gauge, filled on read).
    pub pool_live: u64,
    /// High-water mark of concurrently occupied slots.
    pub pool_peak: u64,
}
