//! # xrdma-telemetry — cross-layer observability for the X-RDMA stack
//!
//! The paper's §VI argues X-RDMA's production value came as much from its
//! diagnosis ecosystem (xr-stat, xr-ping, tracing, ADM) as from the
//! protocol. This crate is that ecosystem's backbone in the reproduction:
//! a structured event bus every layer emits into, a sim-time metrics
//! registry, exporters (JSONL, Chrome `trace_event`), and a bounded
//! flight recorder dumped on failure.
//!
//! ## Overhead contract
//!
//! Telemetry is a runtime plane, present in every build. Instrumented
//! crates emit through [`tele!`] and the `span_*!` macros, each of which
//! tests one const-initialised thread-local `Cell<bool>`
//! ([`hub::active`]) and does nothing else while no [`TelemetryHub`] is
//! installed: the event payload and the span operands are only evaluated
//! when a hub is live on the current thread. Rule T1 `raw-telemetry-emit`
//! keeps stack code honest: the workspace `clippy.toml` bans direct
//! `emit_raw` and `span_*_raw` calls, and only these macros' expansions
//! allow them.

pub mod event;
pub mod export;
pub mod hub;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use event::{Event, EventKind};
pub use hub::{HubConfig, HubGuard, TelemetryHub};
pub use metrics::MetricsRegistry;
pub use recorder::FlightRecorder;
pub use span::{SpanNode, SpanToken, Stage, StageStat};

/// Emit a telemetry event; one flag test when no hub is installed.
///
/// The operand is an [`EventKind`] variant body:
///
/// ```ignore
/// tele!(PktDrop { port: self.label.clone(), prio, bytes });
/// ```
///
/// Payload expressions are evaluated only when a hub is installed, so
/// `.clone()`s in operands are safe on hot paths.
#[macro_export]
macro_rules! tele {
    ($($ev:tt)+) => {{
        if $crate::hub::active() {
            #[allow(
                clippy::disallowed_methods,
                reason = "the macro's `hub::active()` test guards this call"
            )]
            $crate::hub::emit_raw($crate::event::EventKind::$($ev)+);
        }
    }};
}

/// Open a causal span for one operation (DESIGN.md §8), yielding its
/// [`span::SpanToken`]. Yields [`span::SpanToken::NONE`], evaluating no
/// operands, when no hub is installed, mirroring [`tele!`].
#[macro_export]
macro_rules! span_open {
    ($node:expr, $qpn:expr, $seq:expr, $bytes:expr) => {{
        if $crate::hub::active() {
            // Bound by a `let`: an attribute on a tail expression is
            // unstable. The `_` keeps a diverging operand from flagging
            // the binding as unused.
            #[allow(
                clippy::disallowed_methods,
                reason = "the macro's `hub::active()` test guards this call"
            )]
            let _tok = $crate::hub::span_open_raw($node, $qpn, $seq, $bytes);
            _tok
        } else {
            $crate::span::SpanToken::NONE
        }
    }};
}

/// Close the open stage of `tok`'s span at the current virtual time and
/// enter `Stage::$stage`. Ignored without a hub, for `SpanToken::NONE`
/// and for closed spans.
#[macro_export]
macro_rules! span_mark {
    ($tok:expr, $stage:ident) => {{
        if $crate::hub::active() {
            #[allow(
                clippy::disallowed_methods,
                reason = "the macro's `hub::active()` test guards this call"
            )]
            $crate::hub::span_mark_raw($tok, $crate::span::Stage::$stage);
        }
    }};
}

/// Record one per-hop fabric transit on `tok`'s span: started at
/// `$started_ns`, ending now, labelled with the egress port.
#[macro_export]
macro_rules! span_hop {
    ($tok:expr, $label:expr, $started_ns:expr) => {{
        if $crate::hub::active() {
            #[allow(
                clippy::disallowed_methods,
                reason = "the macro's `hub::active()` test guards this call"
            )]
            $crate::hub::span_hop_raw($tok, $label, $started_ns);
        }
    }};
}

/// Complete `tok`'s span at the explicit instant `$end_ns` (callers pass
/// `busy_until` so the final stage carries the handler's CPU charge).
#[macro_export]
macro_rules! span_end {
    ($tok:expr, $end_ns:expr) => {{
        if $crate::hub::active() {
            #[allow(
                clippy::disallowed_methods,
                reason = "the macro's `hub::active()` test guards this call"
            )]
            $crate::hub::span_end_raw($tok, $end_ns);
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::event::EventKind;
    use crate::hub::{self, HubConfig, TelemetryHub};
    use xrdma_sim::{Dur, World};

    #[test]
    fn tele_emits_into_the_installed_hub() {
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        world.run_for(Dur::micros(5));
        tele!(SeqDuplicate { seq: 42 });
        let evs = guard.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t.nanos(), 5_000);
        assert!(matches!(evs[0].kind, EventKind::SeqDuplicate { seq: 42 }));
    }

    // The `unreachable!` operands sit in the never-taken `active()` branch,
    // which trips the divergence lints even though nothing runs.
    #[test]
    #[allow(unreachable_code, clippy::diverging_sub_expression)]
    fn no_hub_means_no_payload_construction() {
        // No hub: active() is false, so the payload expression must not
        // run.
        assert!(!hub::active());
        tele!(PktDrop {
            port: unreachable!("no hub installed"),
            prio: 0,
            bytes: 0,
        });
    }

    #[test]
    fn packet_level_events_skip_the_log_but_reach_the_ring() {
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        guard.record(EventKind::PktEnqueue {
            port: "h0".into(),
            prio: 0,
            bytes: 1024,
            queued_bytes: 1024,
        });
        guard.record(EventKind::SeqDuplicate { seq: 9 });
        assert_eq!(guard.event_count(), 1, "enqueue filtered from the log");
        guard.dump_flight_recorder("test");
        assert_eq!(guard.last_dump().unwrap().len(), 2, "ring saw both");
    }

    #[test]
    fn install_is_scoped_to_the_guard() {
        let world = World::new();
        assert!(!hub::active());
        {
            let _g = TelemetryHub::install(&world, HubConfig::default());
            assert!(hub::active());
        }
        assert!(!hub::active());
    }

    /// An induced `invariant!` failure must dump the flight recorder:
    /// the observer fires before the panic propagates.
    #[test]
    fn invariant_failure_dumps_flight_recorder() {
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        for i in 0..10 {
            guard.record(EventKind::SeqDuplicate { seq: i });
        }
        let err = std::panic::catch_unwind(|| {
            xrdma_sim::invariant!(false, "induced flight-recorder test failure");
        })
        .expect_err("invariant fires under cfg(test)");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("induced flight-recorder"), "msg: {msg}");
        let dump = guard.last_dump().expect("recorder dumped");
        // 10 seq-dups plus the invariant event itself.
        assert_eq!(dump.len(), 11);
        assert!(matches!(
            dump.last().unwrap().kind,
            EventKind::InvariantFired { .. }
        ));
    }

    #[test]
    fn abnormal_close_dumps_flight_recorder() {
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        guard.record(EventKind::SeqDuplicate { seq: 1 });
        guard.record(EventKind::ChannelClose {
            node: 3,
            peer: 4,
            qpn: 8,
            reason: "local",
        });
        assert!(guard.last_dump().is_none(), "clean close: no dump");
        guard.record(EventKind::ChannelClose {
            node: 3,
            peer: 4,
            qpn: 8,
            reason: "peer-dead",
        });
        let dump = guard.last_dump().expect("peer-dead close dumps");
        assert_eq!(dump.len(), 3);
    }

    #[test]
    fn span_macros_build_trees_in_the_installed_hub() {
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        let tok = span_open!(1u32, 4u32, 7u32, 64u64);
        assert!(!tok.is_none());
        world.run_for(Dur::micros(2));
        span_mark!(tok, Doorbell);
        world.run_for(Dur::micros(3));
        span_end!(tok, world.now().nanos());
        let nodes = guard.span_nodes();
        assert_eq!(nodes.len(), 3, "root + submit + doorbell: {nodes:?}");
        assert_eq!(nodes[0].name, "op");
        assert_eq!(nodes[1].name, "submit");
        assert_eq!(nodes[2].name, "doorbell");
        let bd = guard.latency_breakdown();
        assert_eq!(bd.last().unwrap().stage, "e2e");
        assert_eq!(bd.last().unwrap().sum_ns, 5_000);
        let stage_sum: u128 = bd[..bd.len() - 1].iter().map(|s| s.sum_ns).sum();
        assert_eq!(stage_sum, 5_000);
    }

    /// Without a hub the span macros evaluate none of their operands and
    /// `span_open!` yields `SpanToken::NONE`.
    #[test]
    #[allow(unreachable_code, clippy::diverging_sub_expression)]
    fn span_macros_are_no_ops_without_a_hub() {
        assert!(!hub::active());
        let tok = span_open!(
            unreachable!("operands must not be evaluated"),
            0u32,
            0u32,
            0u64
        );
        assert!(tok.is_none());
        span_mark!(tok, Rx);
        span_end!(tok, unreachable!("operands must not be evaluated"));
    }

    /// Install A, install B, drop A: B stays installed, keeps the flag up,
    /// and its flight recorder still hears invariant failures.
    #[test]
    fn dropping_a_replaced_hub_leaves_the_current_one_wired() {
        let world = World::new();
        let a = TelemetryHub::install(&world, HubConfig::default());
        let b = TelemetryHub::install(&world, HubConfig::default());
        drop(a);
        assert!(hub::active());
        tele!(SeqDuplicate { seq: 1 });
        assert_eq!(b.event_count(), 1);
        let _ = std::panic::catch_unwind(|| {
            xrdma_sim::invariant_failure("induced after a replaced hub dropped");
        });
        let dump = b.last_dump().expect("B's recorder heard the failure");
        assert!(matches!(
            dump.last().unwrap().kind,
            EventKind::InvariantFired { .. }
        ));
        drop(b);
        assert!(!hub::active());
    }

    #[test]
    fn sampler_ticks_on_virtual_time() {
        let world = World::new();
        let guard = TelemetryHub::install(&world, HubConfig::default());
        guard.metrics().gauge_set("depth", 5.0);
        guard.hub().start_sampler(Dur::millis(1), |h| {
            h.metrics().sample_gauges(h.now().nanos())
        });
        world.run_for(Dur::millis(10));
        let rows = guard.metrics().series_rows("depth");
        // Ticks at 1..=10 ms land in buckets 1..=10; bucket 0 is empty.
        assert_eq!(rows.len(), 11);
        assert_eq!(rows.iter().filter(|r| r.1 == 5.0).count(), 10);
        // Dropping the guard stops the sampler with it.
        drop(guard);
        world.run_for(Dur::millis(10));
    }
}
