//! The cross-layer event bus.
//!
//! A [`TelemetryHub`] is installed per thread (one world per thread is the
//! workspace invariant, so per-thread means per-world) and collects every
//! event the stack emits through the [`tele!`](crate::tele) macro. The hub
//! owns three sinks:
//!
//! * the **run log** — an append-only `Vec<Event>` for exporters;
//! * the **flight recorder** — a bounded ring that also sees packet-level
//!   events, dumped when an `invariant!` fires or a channel dies abnormally;
//! * the **metrics registry** — counters/gauges/histograms/series sampled
//!   on a periodic virtual-time tick.
//!
//! Emission goes through two free functions, [`active`] and [`emit_raw`],
//! which `tele!` pairs so the payload is never even constructed when no hub
//! is installed. Calling `emit_raw` directly from stack code fails clippy
//! (rule T1 `raw-telemetry-emit`, a `disallowed-methods` entry in the
//! workspace `clippy.toml`): the macro is the only sanctioned
//! entry point, because its `active()` test is what keeps a run without a
//! hub down to one thread-local flag read per site.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use serde::Serialize;
use xrdma_sim::{Dur, Time, World};

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::recorder::FlightRecorder;

/// Flight-recorder ring capacity.
pub const RING_CAPACITY: usize = 256;
/// Bounded slow-op store capacity (whole trees; oldest dropped first).
pub const SLOW_SPAN_CAPACITY: usize = 32;

/// Capture policy for an installed hub. The run log always takes
/// protocol-level events and never packet-level ones (the flight
/// recorder sees both).
#[derive(Clone, Copy, Debug)]
pub struct HubConfig {
    /// Retain every closed span tree for export (span JSONL / Chrome
    /// trace). Slow-op forensics and the latency-breakdown histograms work
    /// regardless.
    pub capture_spans: bool,
    /// End-to-end latency (ns) at or above which an operation's full span
    /// tree is retained in the slow-op store.
    pub slow_span_ns: u64,
}

impl Default for HubConfig {
    fn default() -> HubConfig {
        HubConfig {
            capture_spans: true,
            slow_span_ns: 1_000_000,
        }
    }
}

pub struct TelemetryHub {
    world: Rc<World>,
    events: RefCell<Vec<Event>>,
    recorder: RefCell<FlightRecorder>,
    metrics: MetricsRegistry,
    /// Causal span bookkeeping (DESIGN.md §8).
    spans: RefCell<crate::span::SpanTracker>,
    /// The most recent flight-recorder dump, kept for tests and reports.
    last_dump: RefCell<Option<Vec<Event>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<TelemetryHub>>> = const { RefCell::new(None) };
    /// Mirrors `CURRENT.is_some()`: the one flag every emission site reads.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

impl TelemetryHub {
    /// Install a fresh hub for this thread's world and wire the sim-layer
    /// invariant observer to the flight recorder. The returned guard
    /// uninstalls both on drop; installing over an existing hub replaces
    /// it.
    pub fn install(world: &Rc<World>, cfg: HubConfig) -> HubGuard {
        let hub = Rc::new(TelemetryHub {
            world: world.clone(),
            events: RefCell::new(Vec::new()),
            recorder: RefCell::new(FlightRecorder::new(RING_CAPACITY)),
            metrics: MetricsRegistry::new(),
            spans: RefCell::new(crate::span::SpanTracker::new(
                cfg.capture_spans,
                cfg.slow_span_ns,
                SLOW_SPAN_CAPACITY,
            )),
            last_dump: RefCell::new(None),
        });
        CURRENT.with(|c| *c.borrow_mut() = Some(hub.clone()));
        ACTIVE.with(|a| a.set(true));
        let weak = Rc::downgrade(&hub);
        xrdma_sim::set_invariant_observer(move |msg| {
            if let Some(hub) = weak.upgrade() {
                hub.record(EventKind::InvariantFired {
                    msg: msg.to_string(),
                });
                hub.dump_flight_recorder(msg);
            }
        });
        HubGuard { hub }
    }

    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// Stamp and route one event. The flight recorder sees everything; the
    /// run log skips packet-level events. An abnormal channel close
    /// (`peer-dead`) dumps the recorder, the §VI "black box on a crash"
    /// behaviour.
    pub fn record(&self, kind: EventKind) {
        let ev = Event {
            t: self.world.now(),
            kind,
        };
        // The slow-op tracer retains any span that was in flight across a
        // watchdog violation, whatever its own latency.
        if matches!(
            &ev.kind,
            EventKind::PollGap { .. } | EventKind::SlowOp { .. }
        ) {
            self.spans.borrow_mut().note_violation(ev.t.nanos());
        }
        self.recorder.borrow_mut().push(ev.clone());
        let abnormal_close = matches!(
            &ev.kind,
            EventKind::ChannelClose {
                reason: "peer-dead",
                ..
            }
        );
        if !ev.kind.is_packet_level() {
            self.events.borrow_mut().push(ev);
        }
        if abnormal_close {
            self.dump_flight_recorder("abnormal channel close (peer-dead)");
        }
    }

    /// Snapshot of the run log.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    pub fn event_count(&self) -> usize {
        self.events.borrow().len()
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Write the flight-recorder contents to stderr (JSONL) and remember
    /// them in `last_dump`. Retained slow-op span trees are dumped
    /// alongside — the two together are the §VI "black box".
    pub fn dump_flight_recorder(&self, why: &str) {
        let snap = self.recorder.borrow().snapshot();
        let total = self.recorder.borrow().total_seen();
        let dropped = self.recorder.borrow().dropped();
        eprintln!(
            "[xrdma-telemetry] flight recorder dump ({why}): last {} of {} events \
             ({dropped} dropped by ring wrap) at {}",
            snap.len(),
            total,
            self.world.now()
        );
        let mut line = String::new();
        for ev in &snap {
            line.clear();
            ev.json_into(&mut line);
            eprintln!("[xrdma-telemetry] {line}");
        }
        let trees = self.spans.borrow().slow_trees();
        if !trees.is_empty() {
            eprintln!(
                "[xrdma-telemetry] slow-op spans: {} retained tree(s), {} dropped",
                trees.len(),
                self.spans.borrow().slow_dropped()
            );
            for tree in &trees {
                for node in tree {
                    line.clear();
                    node.json_into(&mut line);
                    eprintln!("[xrdma-telemetry] {line}");
                }
            }
        }
        *self.last_dump.borrow_mut() = Some(snap);
    }

    pub fn last_dump(&self) -> Option<Vec<Event>> {
        self.last_dump.borrow().clone()
    }

    /// Flight-recorder occupancy: `(kept, total_seen, dropped)`. Dropped
    /// events were overwritten by the bounded ring's wrap — xr-stat
    /// surfaces this so a truncated black box is never mistaken for a
    /// complete one.
    pub fn recorder_occupancy(&self) -> (usize, u64, u64) {
        let r = self.recorder.borrow();
        (r.len(), r.total_seen(), r.dropped())
    }

    // ------------------------------------------------------------------
    // Causal spans (DESIGN.md §8).
    // ------------------------------------------------------------------

    /// Flattened nodes of every closed span tree, in close order.
    pub fn span_nodes(&self) -> Vec<crate::span::SpanNode> {
        self.spans.borrow().closed_nodes()
    }

    /// Retained slow-op span trees (each a flattened root-first node list).
    pub fn slow_span_trees(&self) -> Vec<Vec<crate::span::SpanNode>> {
        self.spans.borrow().slow_trees()
    }

    /// Slow-op trees evicted from the bounded store.
    pub fn slow_span_dropped(&self) -> u64 {
        self.spans.borrow().slow_dropped()
    }

    /// Per-stage latency breakdown (one row per [`crate::span::Stage`] in
    /// pipeline order, then a final `e2e` row). Stably ordered.
    pub fn latency_breakdown(&self) -> Vec<crate::span::StageStat> {
        self.spans.borrow().breakdown()
    }

    pub(crate) fn span_open(
        &self,
        node: u32,
        qpn: u32,
        seq: u32,
        bytes: u64,
    ) -> crate::span::SpanToken {
        self.spans
            .borrow_mut()
            .open(self.world.now().nanos(), node, qpn, seq, bytes)
    }

    pub(crate) fn span_mark(&self, tok: crate::span::SpanToken, stage: crate::span::Stage) {
        self.spans
            .borrow_mut()
            .mark(tok, stage, self.world.now().nanos());
    }

    pub(crate) fn span_hop(
        &self,
        tok: crate::span::SpanToken,
        label: &std::sync::Arc<str>,
        started_ns: u64,
    ) {
        self.spans
            .borrow_mut()
            .hop(tok, label, started_ns, self.world.now().nanos());
    }

    pub(crate) fn span_end(&self, tok: crate::span::SpanToken, end_ns: u64) {
        self.spans.borrow_mut().end(tok, end_ns);
    }

    /// Schedule `f(hub)` every `period` of virtual time, starting one
    /// period from now. The tick holds only a weak reference: dropping the
    /// hub (guard) stops the sampler, and a hub outliving its world never
    /// fires. Combined with [`MetricsRegistry::sample_gauges`] this turns
    /// gauges into deterministic time series.
    pub fn start_sampler(self: &Rc<Self>, period: Dur, f: impl Fn(&TelemetryHub) + 'static) {
        fn arm(
            world: &Rc<World>,
            weak: Weak<TelemetryHub>,
            period: Dur,
            f: Rc<dyn Fn(&TelemetryHub)>,
        ) {
            let w2 = world.clone();
            world.schedule_in(period, move || {
                if let Some(hub) = weak.upgrade() {
                    f(&hub);
                    arm(&w2, Rc::downgrade(&hub), period, f);
                }
            });
        }
        arm(&self.world, Rc::downgrade(self), period, Rc::new(f));
    }
}

/// RAII handle for an installed hub.
pub struct HubGuard {
    hub: Rc<TelemetryHub>,
}

impl HubGuard {
    pub fn hub(&self) -> &Rc<TelemetryHub> {
        &self.hub
    }
}

impl std::ops::Deref for HubGuard {
    type Target = TelemetryHub;
    fn deref(&self) -> &TelemetryHub {
        &self.hub
    }
}

impl Drop for HubGuard {
    /// Uninstall, unless a later `install` already replaced this hub: the
    /// replacement keeps its flag and its invariant observer.
    fn drop(&mut self) {
        let current = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let current = cur.as_ref().is_some_and(|h| Rc::ptr_eq(h, &self.hub));
            if current {
                *cur = None;
            }
            current
        });
        if current {
            ACTIVE.with(|a| a.set(false));
            xrdma_sim::clear_invariant_observer();
        }
    }
}

/// Is a hub installed on this thread? `tele!` and the `span_*!` macros
/// test this before building any payload.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Deliver one event to the installed hub, if any. Do not call this from
/// stack code — emit through `tele!` (T1 `raw-telemetry-emit`, banned in
/// `clippy.toml`).
pub fn emit_raw(kind: EventKind) {
    let hub = CURRENT.with(|c| c.borrow().clone());
    if let Some(hub) = hub {
        hub.record(kind);
    }
}

/// Run `f` against the installed hub, if any. For pull-style consumers
/// (the monitor mirroring gauges, xr-stat summaries) — not an emission
/// path.
pub fn with_active<R>(f: impl FnOnce(&TelemetryHub) -> R) -> Option<R> {
    let hub = CURRENT.with(|c| c.borrow().clone());
    hub.map(|h| f(&h))
}

/// Open a span tree for one operation and return its root token. Do not
/// call from stack code — use `span_open!` (T1 `raw-telemetry-emit`,
/// banned in `clippy.toml` like `emit_raw`).
pub fn span_open_raw(node: u32, qpn: u32, seq: u32, bytes: u64) -> crate::span::SpanToken {
    let hub = CURRENT.with(|c| c.borrow().clone());
    match hub {
        Some(h) => h.span_open(node, qpn, seq, bytes),
        None => crate::span::SpanToken::NONE,
    }
}

/// Close the open stage and enter `stage`, at the current virtual time.
/// Do not call from stack code — use `span_mark!`.
pub fn span_mark_raw(tok: crate::span::SpanToken, stage: crate::span::Stage) {
    let hub = CURRENT.with(|c| c.borrow().clone());
    if let Some(h) = hub {
        h.span_mark(tok, stage);
    }
}

/// Record one per-hop fabric transit that started at `started_ns` and
/// ends now. Do not call from stack code — use `span_hop!`.
pub fn span_hop_raw(tok: crate::span::SpanToken, label: &std::sync::Arc<str>, started_ns: u64) {
    let hub = CURRENT.with(|c| c.borrow().clone());
    if let Some(h) = hub {
        h.span_hop(tok, label, started_ns);
    }
}

/// Complete an operation at `end_ns` (explicit, so the caller can charge
/// handler CPU via `busy_until`). Do not call from stack code — use
/// `span_end!`.
pub fn span_end_raw(tok: crate::span::SpanToken, end_ns: u64) {
    let hub = CURRENT.with(|c| c.borrow().clone());
    if let Some(h) = hub {
        h.span_end(tok, end_ns);
    }
}
