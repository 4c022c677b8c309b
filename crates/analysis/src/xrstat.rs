//! XR-Stat (§VI-B): per-connection statistics à la `netstat`, plus the
//! network-health indexes the paper calls out as crucial (PFC status,
//! queue drops, buffer utilization).

use std::rc::Rc;

use serde::Serialize;
use xrdma_core::XrdmaContext;
use xrdma_fabric::Fabric;
use xrdma_telemetry::{HubGuard, StageStat};

/// One connection row.
#[derive(Clone, Debug, Serialize)]
pub struct StatRow {
    pub local_node: u32,
    pub peer_node: u32,
    pub qpn: u32,
    pub state: String,
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub small_msgs: u64,
    pub large_msgs: u64,
    pub window_stalls: u64,
    pub rpcs_outstanding: u64,
    pub keepalive_probes: u64,
    pub rate_gbps: f64,
    /// DCQCN congestion estimate α (0 = calm, → 1 under sustained CNPs).
    pub dcqcn_alpha: f64,
    /// CNPs received by this connection's reaction point.
    pub cnps_rx: u64,
    pub rnr_events: u64,
    pub retransmissions: u64,
    /// Median CQEs this connection contributed per `poll_cq` drain (the
    /// shared-CQ batching factor; 0 until the first completion).
    pub cqe_batch_p50: u64,
    /// Largest CQE batch observed for this connection in one drain.
    pub cqe_batch_max: u64,
}

/// Machine-level health indexes.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HealthRow {
    pub node: u32,
    pub qp_count: usize,
    pub registered_mb: f64,
    pub pfc_pauses_seen: u64,
    pub cnps_received: u64,
    pub rnr_naks_sent: u64,
    pub poll_gap_warnings: u64,
}

/// Collect the per-connection table for a context.
pub fn connection_table(ctx: &Rc<XrdmaContext>) -> Vec<StatRow> {
    ctx.channels()
        .iter()
        .map(|ch| {
            let s = ch.stats();
            StatRow {
                local_node: ctx.node().0,
                peer_node: ch.peer.0,
                qpn: ch.qp.qpn.0,
                state: format!("{:?}", ch.qp.state()),
                msgs_sent: s.msgs_sent,
                msgs_received: s.msgs_received,
                bytes_sent: s.bytes_sent,
                bytes_received: s.bytes_received,
                small_msgs: s.small_msgs,
                large_msgs: s.large_msgs,
                window_stalls: s.window_stalls,
                rpcs_outstanding: s.rpcs_outstanding,
                keepalive_probes: s.keepalive_probes,
                rate_gbps: ch.qp.current_rate_gbps(),
                dcqcn_alpha: ch.qp.dcqcn_alpha(),
                cnps_rx: ch.qp.cnp_count(),
                rnr_events: ch.qp.rnr_events.get(),
                retransmissions: ch.qp.retransmissions.get(),
                cqe_batch_p50: ch.cqe_batch_summary().map_or(0, |h| h.p50),
                cqe_batch_max: ch.cqe_batch_summary().map_or(0, |h| h.max),
            }
        })
        .collect()
}

/// Machine health indexes for a context's host.
pub fn health(ctx: &Rc<XrdmaContext>) -> HealthRow {
    let rs = ctx.rnic().stats();
    let cs = ctx.stats();
    HealthRow {
        node: ctx.node().0,
        qp_count: ctx.rnic().qp_count(),
        registered_mb: ctx.rnic().mem().registered_bytes() as f64 / (1024.0 * 1024.0),
        pfc_pauses_seen: rs.pfc_pauses_seen,
        cnps_received: rs.cnps_received,
        rnr_naks_sent: rs.rnr_naks_sent,
        poll_gap_warnings: cs.poll_gap_warnings,
    }
}

/// Fabric-level counters rendered alongside (queue drops, buffer usage).
pub fn fabric_health(fabric: &Rc<Fabric>) -> String {
    let c = fabric.stats().snapshot();
    format!(
        "pause={} resume={} host_tx_pause={} ecn={} drops={} delivered={} max_q={}B buffered={}B",
        c.pause_frames,
        c.resume_frames,
        c.host_tx_pause,
        c.ecn_marked,
        c.drops,
        c.delivered_pkts,
        fabric.stats().max_queue_depth(),
        fabric.buffered_bytes(),
    )
}

/// Summarize telemetry-hub events per kind — the quick "what happened on
/// this box" view xr-stat prints when a hub captured the run.
pub fn event_summary(events: &[xrdma_telemetry::Event]) -> String {
    let counts = xrdma_telemetry::export::event_counts(events);
    if counts.is_empty() {
        return String::from("EVENTS: none\n");
    }
    let mut out = String::from("EVENT           COUNT\n");
    for (name, n) in counts {
        out.push_str(&format!("{name:<15} {n}\n"));
    }
    out
}

/// Render the connection table like `netstat` would.
pub fn render_table(rows: &[StatRow]) -> String {
    let mut out = String::from(
        "LOCAL  PEER   QPN    STATE  TX-MSGS  RX-MSGS  TX-BYTES     RX-BYTES     SMALL  LARGE  STALLS  RATE(Gbps)  ALPHA  CNPS  CQB-P50  CQB-MAX\n",
    );
    for r in rows {
        out.push_str(&format!(
            "n{:<5} n{:<5} {:<6} {:<6} {:<8} {:<8} {:<12} {:<12} {:<6} {:<6} {:<7} {:<11.2} {:<6.3} {:<5} {:<8} {}\n",
            r.local_node,
            r.peer_node,
            r.qpn,
            r.state,
            r.msgs_sent,
            r.msgs_received,
            r.bytes_sent,
            r.bytes_received,
            r.small_msgs,
            r.large_msgs,
            r.window_stalls,
            r.rate_gbps,
            r.dcqcn_alpha,
            r.cnps_rx,
            r.cqe_batch_p50,
            r.cqe_batch_max,
        ));
    }
    out
}

/// Render the per-stage latency breakdown (DESIGN.md §8): one row per
/// pipeline stage in order, then the `e2e` summary row whose sum the
/// stage sums telescope to exactly. Rows come pre-sorted from
/// [`xrdma_telemetry::TelemetryHub::latency_breakdown`].
pub fn render_latency_breakdown(bd: &[StageStat]) -> String {
    if bd.is_empty() {
        return String::from("LATENCY-BREAKDOWN: no spans captured\n");
    }
    let mut out = String::from(
        "STAGE     COUNT    P50(ns)      P99(ns)      P999(ns)     MEAN(ns)       SUM(ns)\n",
    );
    for s in bd {
        out.push_str(&format!(
            "{:<9} {:<8} {:<12} {:<12} {:<12} {:<14.1} {}\n",
            s.stage, s.count, s.p50_ns, s.p99_ns, s.p999_ns, s.mean_ns, s.sum_ns,
        ));
    }
    out
}

/// Flight-recorder occupancy (ring-wrap visibility): events currently
/// held, total ever seen, and the count that wrapped out. Nonzero drops
/// mean a dump is a *suffix* of history, not all of it.
pub fn render_recorder_status(kept: usize, seen: u64, dropped: u64) -> String {
    format!("FLIGHT-RECORDER kept={kept} seen={seen} dropped={dropped}\n")
}

/// `xr-stat --format json`: the latency-breakdown table plus span/recorder
/// health as a deterministic JSON document — fixed key order, stably
/// sorted rows, no timestamps — following the same conventions as the
/// lint report (`crates/lint/src/json.rs`), so it can sit under a
/// golden-diff gate.
pub fn latency_breakdown_json(hub: &HubGuard) -> String {
    let bd = hub.latency_breakdown();
    let (kept, seen, dropped) = hub.recorder_occupancy();
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"summary\": {{\"stages\": {}, \"slow_trees\": {}, \"slow_dropped\": {}, \
         \"recorder_kept\": {}, \"recorder_seen\": {}, \"recorder_dropped\": {}}},\n",
        bd.len(),
        hub.slow_span_trees().len(),
        hub.slow_span_dropped(),
        kept,
        seen,
        dropped,
    ));
    out.push_str("  \"stages\": [");
    for (i, s) in bd.iter().enumerate() {
        if i == 0 {
            out.push_str("\n    ");
        } else {
            out.push_str(",\n    ");
        }
        out.push_str(&format!(
            "{{\"stage\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"mean_ns\": {:.1}, \"sum_ns\": {}}}",
            s.stage, s.count, s.p50_ns, s.p99_ns, s.p999_ns, s.mean_ns, s.sum_ns,
        ));
    }
    out.push_str("]\n}\n");
    out
}

/// QP-cache panel inputs: the two caches that govern connection
/// scalability (ROADMAP item 2) plus the mux pool sitting on top of them.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct QpCachePanel {
    pub node: u32,
    /// RNIC QP-context SRAM cache — charged per packet touch (TX WQE
    /// fetch + RX steering). Misses here are the per-send latency cliff.
    pub sram_hits: u64,
    pub sram_misses: u64,
    /// Middleware QP recycling cache — charged per connect (§IV-E).
    pub recycle_hits: u64,
    pub recycle_misses: u64,
    /// Connection-multiplexing counters, when a `ChannelMux` runs on this
    /// context.
    pub mux: Option<xrdma_core::MuxStats>,
    /// Shared receive queue `(posted, slot pool)`, when `use_srq` is on.
    pub srq: Option<(usize, usize)>,
}

impl QpCachePanel {
    /// Gather the panel from a live context (and its mux, if any).
    pub fn collect(
        ctx: &Rc<XrdmaContext>,
        mux: Option<&Rc<xrdma_core::ChannelMux>>,
    ) -> QpCachePanel {
        let r = ctx.rnic().stats();
        let c = ctx.stats();
        QpCachePanel {
            node: ctx.node().0,
            sram_hits: r.qp_cache_hits,
            sram_misses: r.qp_cache_misses,
            recycle_hits: c.qp_cache_hits,
            recycle_misses: c.qp_cache_misses,
            mux: mux.map(|m| m.stats()),
            srq: ctx.srq_depth(),
        }
    }
}

/// Render the QP-cache panel: SRAM residency (the per-send cliff),
/// middleware recycling, and — when a mux is attached — pool residency
/// with establishment/eviction churn. Deterministic: exact integer
/// counts, fixed column order.
pub fn render_qp_cache_panel(p: &QpCachePanel) -> String {
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            100.0
        } else {
            100.0 * h as f64 / (h + m) as f64
        }
    };
    let mut out = String::from("CACHE     HITS       MISSES     HIT%\n");
    out.push_str(&format!(
        "sram      {:<10} {:<10} {:.2}\n",
        p.sram_hits,
        p.sram_misses,
        rate(p.sram_hits, p.sram_misses),
    ));
    out.push_str(&format!(
        "recycle   {:<10} {:<10} {:.2}\n",
        p.recycle_hits,
        p.recycle_misses,
        rate(p.recycle_hits, p.recycle_misses),
    ));
    match &p.mux {
        Some(m) => {
            out.push_str(&format!(
                "MUX n{} logical={} pool={}/{} est={} reest={} evict={} dup-drop={}\n",
                p.node,
                m.logical_open,
                m.pool_live,
                m.pool_peak,
                m.establishments,
                m.reestablishments,
                m.evictions,
                m.dup_drops,
            ));
            out.push_str(&format!(
                "    frames sent={} queued={} rx={}\n",
                m.frames_sent, m.frames_queued, m.frames_rx,
            ));
        }
        None => out.push_str(&format!("MUX n{}: none\n", p.node)),
    }
    match p.srq {
        Some((posted, pool)) => {
            out.push_str(&format!("SRQ posted={posted}/{pool}\n"));
        }
        None => out.push_str("SRQ: off (per-channel receive slots)\n"),
    }
    out
}

/// Render the lane-engine panel (DESIGN.md §3.15): one row per lane with
/// lookahead rounds, executed events, cross-lane send/recv counts
/// (`MB-SENT`/`MB-RECV`) and telemetry records, plus a residency summary
/// naming the busiest and idlest lanes by executed-event share — so a
/// hot lane (an overloaded incast sink) is diagnosable without a trace
/// viewer. Deterministic: rows in lane order, shares from exact integer
/// counts.
pub fn render_lane_panel(stats: &[xrdma_sim::shard::LaneStats]) -> String {
    if stats.is_empty() {
        return String::from("LANES: none\n");
    }
    let total: u64 = stats.iter().map(|s| s.executed).sum();
    let mut out = String::from("LANE   ROUNDS   EXECUTED   MB-SENT   MB-RECV   RECORDS  SHARE%\n");
    for s in stats {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * s.executed as f64 / total as f64
        };
        out.push_str(&format!(
            "L{:<5} {:<8} {:<10} {:<9} {:<9} {:<8} {:.2}\n",
            s.lane, s.rounds, s.executed, s.cross_sent, s.cross_recv, s.records, share,
        ));
    }
    // Busiest/idlest by executed share; ties break toward the lower lane
    // id so the summary line is as deterministic as the rows.
    let busiest = stats
        .iter()
        .max_by_key(|s| (s.executed, std::cmp::Reverse(s.lane)))
        .expect("non-empty");
    let idlest = stats
        .iter()
        .min_by_key(|s| (s.executed, s.lane))
        .expect("non-empty");
    let pct = |e: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * e as f64 / total as f64
        }
    };
    out.push_str(&format!(
        "RESIDENCY busiest=L{} {:.2}% idlest=L{} {:.2}% lanes={} rounds={}\n",
        busiest.lane,
        pct(busiest.executed),
        idlest.lane,
        pct(idlest.executed),
        stats.len(),
        stats.first().map(|s| s.rounds).unwrap_or(0),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_rows() {
        let rows = vec![StatRow {
            local_node: 0,
            peer_node: 3,
            qpn: 17,
            state: "Rts".into(),
            msgs_sent: 10,
            msgs_received: 9,
            bytes_sent: 1000,
            bytes_received: 900,
            small_msgs: 8,
            large_msgs: 2,
            window_stalls: 1,
            rpcs_outstanding: 0,
            keepalive_probes: 3,
            rate_gbps: 25.0,
            dcqcn_alpha: 0.125,
            cnps_rx: 42,
            rnr_events: 0,
            retransmissions: 0,
            cqe_batch_p50: 7,
            cqe_batch_max: 31,
        }];
        let s = render_table(&rows);
        assert!(s.contains("n0"));
        assert!(s.contains("n3"));
        assert!(s.contains("25.00"));
        assert!(s.contains("0.125"), "DCQCN alpha column: {s}");
        assert!(s.contains("42"), "CNP column");
        assert!(s.contains("CQB-P50"), "batch columns in header: {s}");
        assert!(s.contains("31"), "batch max column");
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn qp_cache_panel_renders() {
        let mut p = QpCachePanel {
            node: 2,
            sram_hits: 900,
            sram_misses: 100,
            recycle_hits: 7,
            recycle_misses: 3,
            mux: None,
            srq: None,
        };
        let s = render_qp_cache_panel(&p);
        assert!(s.contains("sram"), "{s}");
        assert!(s.contains("90.00"), "sram hit rate: {s}");
        assert!(s.contains("70.00"), "recycle hit rate: {s}");
        assert!(s.contains("MUX n2: none"));
        assert!(s.contains("SRQ: off"));

        let mut m = xrdma_core::MuxStats::default();
        m.logical_open = 100_000;
        m.pool_live = 64;
        m.pool_peak = 64;
        m.establishments = 180;
        m.reestablishments = 116;
        m.evictions = 116;
        p.mux = Some(m);
        p.srq = Some((4000, 4096));
        let s = render_qp_cache_panel(&p);
        assert!(s.contains("logical=100000"), "{s}");
        assert!(s.contains("pool=64/64"));
        assert!(s.contains("reest=116"));
        assert!(s.contains("SRQ posted=4000/4096"));
    }

    #[test]
    fn latency_breakdown_renders_rows_and_empty_marker() {
        assert_eq!(
            render_latency_breakdown(&[]),
            "LATENCY-BREAKDOWN: no spans captured\n"
        );
        let bd = vec![
            StageStat {
                stage: "submit",
                count: 4,
                p50_ns: 100,
                p99_ns: 180,
                p999_ns: 190,
                mean_ns: 120.5,
                sum_ns: 482,
            },
            StageStat {
                stage: "e2e",
                count: 4,
                p50_ns: 900,
                p99_ns: 1400,
                p999_ns: 1500,
                mean_ns: 1000.0,
                sum_ns: 4000,
            },
        ];
        let s = render_latency_breakdown(&bd);
        assert!(s.starts_with("STAGE"), "header first: {s}");
        assert!(s.contains("submit"));
        assert!(s.contains("120.5"));
        assert!(s.lines().last().unwrap().starts_with("e2e"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn recorder_status_renders_drop_count() {
        let s = render_recorder_status(256, 1000, 744);
        assert_eq!(s, "FLIGHT-RECORDER kept=256 seen=1000 dropped=744\n");
    }

    /// The JSON document must be byte-identical across renders of the
    /// same hub state (it sits under the golden-diff gate) and carry the
    /// fixed key order the lint report established.
    #[test]
    fn latency_breakdown_json_is_deterministic() {
        use xrdma_sim::World;
        use xrdma_telemetry::{HubConfig, TelemetryHub};
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        let a = latency_breakdown_json(&guard);
        let b = latency_breakdown_json(&guard);
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"version\": 1,\n"));
        assert!(a.contains("\"recorder_dropped\": 0"));
        assert!(a.contains("\"stages\": ["));
        assert!(a.ends_with("]\n}\n"));
    }

    #[test]
    fn event_summary_counts_by_kind() {
        use xrdma_sim::Time;
        use xrdma_telemetry::{Event, EventKind};
        let events = vec![
            Event {
                t: Time(1),
                kind: EventKind::CnpGenerated { node: 0, qpn: 1 },
            },
            Event {
                t: Time(2),
                kind: EventKind::CnpGenerated { node: 0, qpn: 1 },
            },
            Event {
                t: Time(3),
                kind: EventKind::SeqDuplicate { seq: 5 },
            },
        ];
        let s = event_summary(&events);
        assert!(s.contains("cnp"));
        assert!(s.lines().any(|l| l.starts_with("cnp") && l.ends_with('2')));
        assert!(s
            .lines()
            .any(|l| l.starts_with("seq-dup") && l.ends_with('1')));
        assert_eq!(event_summary(&[]), "EVENTS: none\n");
    }

    #[test]
    fn lane_panel_names_busiest_and_idlest() {
        use xrdma_sim::shard::LaneStats;
        let mk = |lane, executed, cross| LaneStats {
            lane,
            rounds: 12,
            executed,
            cross_sent: cross,
            cross_recv: cross,
            records: executed / 10,
        };
        let stats = [mk(0, 700, 5), mk(1, 100, 9), mk(2, 200, 3)];
        let s = render_lane_panel(&stats);
        assert!(s.starts_with("LANE   ROUNDS"));
        assert_eq!(s.lines().count(), 1 + 3 + 1, "header + rows + summary");
        assert!(s.contains("L0     12       700"));
        assert!(s.contains("busiest=L0 70.00%"));
        assert!(s.contains("idlest=L1 10.00%"));
        assert!(s.contains("lanes=3 rounds=12"));
        assert_eq!(render_lane_panel(&[]), "LANES: none\n");
    }

    /// The panel over a real lane run: rows cover every lane and the
    /// executed shares sum to ~100%.
    #[test]
    fn lane_panel_renders_a_real_shard_world() {
        use xrdma_sim::Time;
        let mut w = xrdma_sim::shard::incast(9, 7);
        w.run_until(Time(300_000));
        let stats = w.lane_stats();
        let s = render_lane_panel(&stats);
        assert_eq!(s.lines().count(), 1 + stats.len() + 1);
        assert!(s.contains("RESIDENCY busiest=L"));
        let share_sum: f64 = s
            .lines()
            .skip(1)
            .take(stats.len())
            .map(|l| l.split_whitespace().last().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((share_sum - 100.0).abs() < 0.1, "shares sum to {share_sum}");
    }
}
