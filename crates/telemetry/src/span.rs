//! Causal spans: per-operation latency breakdown (DESIGN.md §8).
//!
//! Every middleware operation (one sequenced message, submit → remote app
//! completion) owns a **span tree** rooted at a deterministic [`SpanToken`]
//! derived from `(virtual time, qpn, seq)` with the same multiply-rotate-xor
//! mix the RNIC uses for connection tokens. The token is a `Copy` value
//! carried *in* the data-path structs — `SendWr`, `Seg`, `Packet`, `Cqe` —
//! so causality survives doorbell coalescing, segmentation, retransmission
//! and shared-CQ batching without any side-band lookup.
//!
//! The stage taxonomy telescopes: each [`Stage`] mark closes the currently
//! open stage at `t` and opens the next at the same `t`, so the per-stage
//! durations of one operation tile `[open, end]` exactly and their sum
//! equals the end-to-end latency in integer nanoseconds — the invariant
//! `tests/spans.rs` asserts across message size × queue depth. Per-hop
//! fabric transit is recorded as overlapping `hop` children on their own
//! track; they are *not* part of the telescoping sum.
//!
//! Overhead contract: with no hub installed, each `span_*!` site costs one
//! read of the thread-local `hub::active()` flag and evaluates none of its
//! operands; the carried [`SpanToken`] is a plain `u64`. Raw `span_*_raw`
//! calls outside the macros fail clippy (T1 `raw-telemetry-emit`, banned
//! in `clippy.toml`), exactly like `emit_raw`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use serde::write_json_str;

/// A causal span identity, carried by value through the data path.
///
/// A non-zero `u64` span id, or 0 = none. `Copy`, so hot-path structs can
/// carry it by value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanToken(u64);

impl SpanToken {
    /// The absent token: marks against it are ignored.
    pub const NONE: SpanToken = SpanToken(0);

    /// Is this the absent token?
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw span id (0 = none).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Derive the deterministic root id for an operation, following the
    /// RNIC connection-token mixing idiom (`| 1` keeps it non-zero).
    pub fn derive(now_ns: u64, a: u64, b: u64) -> SpanToken {
        SpanToken(mix(now_ns, a, b))
    }
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        ^ b.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        ^ c.rotate_left(29);
    h ^= h >> 31;
    h.wrapping_mul(0xC4CE_B9FE_1A85_EC53) | 1
}

/// The stage taxonomy, in pipeline order. Every mark names the stage that
/// *begins*; the stage that was open is closed at the mark's timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// `XrdmaChannel::transmit` accepted the message: send-path CPU plus
    /// any doorbell-coalesce wait.
    Submit,
    /// The WR reached the RNIC send queue: SQ residency plus injector
    /// scheduling, up to first-fragment WQE processing.
    Doorbell,
    /// The WQE pipeline: segmentation and DCQCN pacing, up to the last
    /// fragment actually leaving the NIC port.
    Wqe,
    /// Last-fragment wire transit across the fabric.
    Fabric,
    /// Remote RX processing: the `rx_process` deferral and reassembly, up
    /// to receive-CQE creation.
    Rx,
    /// CQE delivery: creation → shared-CQ poll → middleware dispatch
    /// (an injected CQE-delay fault lands here).
    Cqe,
    /// App completion: inbox delivery (including any rendezvous fetch) and
    /// the request handler's own CPU cost.
    App,
}

impl Stage {
    pub const ALL: [Stage; 7] = [
        Stage::Submit,
        Stage::Doorbell,
        Stage::Wqe,
        Stage::Fabric,
        Stage::Rx,
        Stage::Cqe,
        Stage::App,
    ];

    /// Stable wire name (JSONL `name` field, Chrome-trace track).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::Doorbell => "doorbell",
            Stage::Wqe => "wqe",
            Stage::Fabric => "fabric",
            Stage::Rx => "rx",
            Stage::Cqe => "cqe",
            Stage::App => "app",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One flattened node of a closed span tree.
///
/// The root carries `name = "op"` and `parent = None`; stage children
/// telescope across `[root.start_ns, root.end_ns]`; `hop` children overlap
/// the pipeline stages and carry the egress-port label.
#[derive(Clone, Debug)]
pub struct SpanNode {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Egress-port label for `hop` nodes.
    pub label: Option<Arc<str>>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub node: u32,
    pub qpn: u32,
    pub seq: u32,
    pub bytes: u64,
}

impl SpanNode {
    /// Compact JSONL encoding, mirroring the event log's
    /// `{"t":…,"ev":…}` idiom: fixed key order, `label` only when present.
    pub fn json_into(&self, out: &mut String) {
        out.push_str("{\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"parent\":");
        match self.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        write_json_str(self.name, out);
        if let Some(label) = &self.label {
            out.push_str(",\"label\":");
            write_json_str(label, out);
        }
        out.push_str(",\"start\":");
        out.push_str(&self.start_ns.to_string());
        out.push_str(",\"end\":");
        out.push_str(&self.end_ns.to_string());
        out.push_str(",\"node\":");
        out.push_str(&self.node.to_string());
        out.push_str(",\"qpn\":");
        out.push_str(&self.qpn.to_string());
        out.push_str(",\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"bytes\":");
        out.push_str(&self.bytes.to_string());
        out.push('}');
    }
}

/// One row of the latency-breakdown table (per stage, plus a final `e2e`
/// row). Percentiles come from the log-bucketed HDR-style histograms;
/// `sum_ns` and `mean_ns` are exact, which is what makes the stage sums
/// reconcile with `e2e` to the nanosecond.
#[derive(Clone, Debug)]
pub struct StageStat {
    pub stage: &'static str,
    pub count: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub mean_ns: f64,
    pub sum_ns: u128,
}

/// Span bookkeeping owned by the hub (one per thread/world).
pub(crate) struct SpanTracker {
    /// Open operations by root id.
    open: BTreeMap<u64, OpenSpan>,
    /// Flattened nodes of every closed tree, in close order.
    closed: Vec<SpanNode>,
    capture: bool,
    /// Per-stage residency histograms (completed ops only, so the stage
    /// sums always reconcile with `e2e`).
    stage_hists: [xrdma_sim::stats::Histogram; 7],
    e2e_hist: xrdma_sim::stats::Histogram,
    /// Slow-op forensics: retained full trees, bounded.
    slow: VecDeque<Vec<SpanNode>>,
    slow_threshold_ns: u64,
    slow_cap: usize,
    slow_dropped: u64,
    /// Virtual time of the last `poll-gap` / `slow-op` violation event;
    /// any op that was in flight across it is retained too.
    last_violation_ns: Option<u64>,
}

struct OpenSpan {
    node: u32,
    qpn: u32,
    seq: u32,
    bytes: u64,
    opened: u64,
    stage: Stage,
    stage_start: u64,
    /// Closed children so far (stage segments and hops, in close order).
    children: Vec<SpanNode>,
    /// Stage residencies accumulated alongside `children` (histograms are
    /// only fed when the op completes).
    stage_durs: Vec<(Stage, u64)>,
    next_child: u32,
}

impl SpanTracker {
    pub(crate) fn new(capture: bool, slow_threshold_ns: u64, slow_cap: usize) -> SpanTracker {
        SpanTracker {
            open: BTreeMap::new(),
            closed: Vec::new(),
            capture,
            stage_hists: std::array::from_fn(|_| xrdma_sim::stats::Histogram::new()),
            e2e_hist: xrdma_sim::stats::Histogram::new(),
            slow: VecDeque::new(),
            slow_threshold_ns,
            slow_cap: slow_cap.max(1),
            slow_dropped: 0,
            last_violation_ns: None,
        }
    }

    pub(crate) fn note_violation(&mut self, now_ns: u64) {
        self.last_violation_ns = Some(now_ns);
    }

    pub(crate) fn open(
        &mut self,
        now_ns: u64,
        node: u32,
        qpn: u32,
        seq: u32,
        bytes: u64,
    ) -> SpanToken {
        let tok = SpanToken::derive(
            now_ns,
            (u64::from(node) << 32) | u64::from(qpn),
            u64::from(seq),
        );
        self.open.insert(
            tok.raw(),
            OpenSpan {
                node,
                qpn,
                seq,
                bytes,
                opened: now_ns,
                stage: Stage::Submit,
                stage_start: now_ns,
                children: Vec::new(),
                stage_durs: Vec::new(),
                next_child: 0,
            },
        );
        tok
    }

    /// Close the open stage at `now` and open `next`. Unknown or already
    /// closed tokens are ignored: control WRs, duplicates arriving after
    /// delivery, and replays against completed ops are all legal.
    pub(crate) fn mark(&mut self, tok: SpanToken, next: Stage, now_ns: u64) {
        let root = tok.raw();
        let Some(op) = self.open.get_mut(&root) else {
            return;
        };
        let child = SpanNode {
            id: mix(root, u64::from(op.next_child) + 1, 0xA5A5),
            parent: Some(root),
            name: op.stage.name(),
            label: None,
            start_ns: op.stage_start,
            end_ns: now_ns,
            node: op.node,
            qpn: op.qpn,
            seq: op.seq,
            bytes: op.bytes,
        };
        op.stage_durs
            .push((op.stage, now_ns.saturating_sub(op.stage_start)));
        op.children.push(child);
        op.next_child += 1;
        op.stage = next;
        op.stage_start = now_ns;
    }

    /// Record one per-hop fabric transit `[started, now]` as an
    /// overlapping child (not part of the telescoping stage sum).
    pub(crate) fn hop(&mut self, tok: SpanToken, label: &Arc<str>, started_ns: u64, now_ns: u64) {
        let root = tok.raw();
        let Some(op) = self.open.get_mut(&root) else {
            return;
        };
        let child = SpanNode {
            id: mix(root, u64::from(op.next_child) + 1, 0xA5A5),
            parent: Some(root),
            name: "hop",
            label: Some(label.clone()),
            start_ns: started_ns,
            end_ns: now_ns,
            node: op.node,
            qpn: op.qpn,
            seq: op.seq,
            bytes: op.bytes,
        };
        op.children.push(child);
        op.next_child += 1;
    }

    /// Complete an operation: close the final stage at `end_ns`, feed the
    /// histograms, store the flattened tree, and retain it for forensics
    /// if it was slow or straddled a violation.
    pub(crate) fn end(&mut self, tok: SpanToken, end_ns: u64) {
        let root = tok.raw();
        let Some(mut op) = self.open.remove(&root) else {
            return;
        };
        let final_child = SpanNode {
            id: mix(root, u64::from(op.next_child) + 1, 0xA5A5),
            parent: Some(root),
            name: op.stage.name(),
            label: None,
            start_ns: op.stage_start,
            end_ns,
            node: op.node,
            qpn: op.qpn,
            seq: op.seq,
            bytes: op.bytes,
        };
        op.stage_durs
            .push((op.stage, end_ns.saturating_sub(op.stage_start)));
        op.children.push(final_child);

        for &(stage, dur) in &op.stage_durs {
            self.stage_hists[stage.index()].record(dur);
        }
        let e2e = end_ns.saturating_sub(op.opened);
        self.e2e_hist.record(e2e);

        let mut nodes = Vec::with_capacity(op.children.len() + 1);
        nodes.push(SpanNode {
            id: root,
            parent: None,
            name: "op",
            label: None,
            start_ns: op.opened,
            end_ns,
            node: op.node,
            qpn: op.qpn,
            seq: op.seq,
            bytes: op.bytes,
        });
        nodes.extend(op.children);

        let violated = self
            .last_violation_ns
            .is_some_and(|t| t >= op.opened && t <= end_ns);
        if e2e >= self.slow_threshold_ns || violated {
            if self.slow.len() == self.slow_cap {
                self.slow.pop_front();
                self.slow_dropped += 1;
            }
            self.slow.push_back(nodes.clone());
        }
        if self.capture {
            self.closed.extend(nodes);
        }
    }

    pub(crate) fn closed_nodes(&self) -> Vec<SpanNode> {
        self.closed.clone()
    }

    pub(crate) fn slow_trees(&self) -> Vec<Vec<SpanNode>> {
        self.slow.iter().cloned().collect()
    }

    pub(crate) fn slow_dropped(&self) -> u64 {
        self.slow_dropped
    }

    pub(crate) fn breakdown(&self) -> Vec<StageStat> {
        let mut out = Vec::with_capacity(Stage::ALL.len() + 1);
        for stage in Stage::ALL {
            let h = &self.stage_hists[stage.index()];
            out.push(stat_row(stage.name(), h));
        }
        out.push(stat_row("e2e", &self.e2e_hist));
        out
    }
}

fn stat_row(stage: &'static str, h: &xrdma_sim::stats::Histogram) -> StageStat {
    StageStat {
        stage,
        count: h.count(),
        p50_ns: h.percentile(50.0),
        p99_ns: h.percentile(99.0),
        p999_ns: h.percentile(99.9),
        mean_ns: h.mean(),
        sum_ns: h.sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_deterministic_and_nonzero() {
        let a = SpanToken::derive(1000, 7, 3);
        let b = SpanToken::derive(1000, 7, 3);
        assert_eq!(a, b);
        assert!(!a.is_none());
        assert_ne!(a, SpanToken::derive(1001, 7, 3));
        assert_ne!(a, SpanToken::derive(1000, 8, 3));
    }

    #[test]
    fn stages_telescope_to_e2e() {
        let mut tr = SpanTracker::new(true, u64::MAX, 4);
        let tok = tr.open(100, 0, 5, 1, 64);
        tr.mark(tok, Stage::Doorbell, 150);
        tr.mark(tok, Stage::Wqe, 220);
        tr.mark(tok, Stage::Fabric, 300);
        tr.mark(tok, Stage::Rx, 900);
        tr.mark(tok, Stage::Cqe, 950);
        tr.mark(tok, Stage::App, 980);
        tr.end(tok, 1100);
        let bd = tr.breakdown();
        let e2e = bd.last().unwrap();
        assert_eq!(e2e.stage, "e2e");
        assert_eq!(e2e.sum_ns, 1000);
        let stage_sum: u128 = bd[..bd.len() - 1].iter().map(|s| s.sum_ns).sum();
        assert_eq!(stage_sum, e2e.sum_ns, "stage sums tile [open, end]");
        let nodes = tr.closed_nodes();
        assert_eq!(nodes.len(), 8, "root + 7 stage children");
        let root = &nodes[0];
        assert_eq!(root.name, "op");
        assert!(nodes[1..].iter().all(|n| n.parent == Some(root.id)));
        assert!(nodes[1..]
            .iter()
            .all(|n| n.start_ns >= root.start_ns && n.end_ns <= root.end_ns));
    }

    #[test]
    fn unknown_and_closed_tokens_are_ignored() {
        let mut tr = SpanTracker::new(true, u64::MAX, 4);
        tr.mark(SpanToken::NONE, Stage::Rx, 5);
        tr.end(SpanToken::NONE, 9);
        let tok = tr.open(10, 0, 1, 1, 8);
        tr.end(tok, 20);
        let n = tr.closed_nodes().len();
        tr.mark(tok, Stage::Rx, 30);
        tr.end(tok, 40);
        assert_eq!(tr.closed_nodes().len(), n, "replay after close is a no-op");
    }

    #[test]
    fn hops_overlap_but_do_not_skew_the_sum() {
        let mut tr = SpanTracker::new(true, u64::MAX, 4);
        let tok = tr.open(0, 0, 1, 1, 8);
        let label: Arc<str> = "h0".into();
        tr.hop(tok, &label, 10, 40);
        tr.hop(tok, &label, 40, 90);
        tr.end(tok, 100);
        let bd = tr.breakdown();
        let stage_sum: u128 = bd[..bd.len() - 1].iter().map(|s| s.sum_ns).sum();
        assert_eq!(stage_sum, 100);
        let nodes = tr.closed_nodes();
        assert_eq!(nodes.iter().filter(|n| n.name == "hop").count(), 2);
        assert!(nodes.iter().any(|n| n.label.as_deref() == Some("h0")));
    }

    #[test]
    fn slow_retention_threshold_and_violation() {
        let mut tr = SpanTracker::new(false, 500, 2);
        let fast = tr.open(0, 0, 1, 1, 8);
        tr.end(fast, 100);
        assert!(tr.slow_trees().is_empty());
        let slow = tr.open(1000, 0, 1, 2, 8);
        tr.end(slow, 1700);
        assert_eq!(tr.slow_trees().len(), 1);
        // A violation mid-flight retains even a fast op.
        let vic = tr.open(2000, 0, 1, 3, 8);
        tr.note_violation(2050);
        tr.end(vic, 2100);
        assert_eq!(tr.slow_trees().len(), 2);
        // Bounded: the oldest tree is dropped and counted.
        let extra = tr.open(3000, 0, 1, 4, 8);
        tr.end(extra, 9000);
        assert_eq!(tr.slow_trees().len(), 2);
        assert_eq!(tr.slow_dropped(), 1);
        // capture=false: nothing lands in the closed store.
        assert!(tr.closed_nodes().is_empty());
    }

    #[test]
    fn span_node_jsonl_shape() {
        let n = SpanNode {
            id: 7,
            parent: Some(3),
            name: "hop",
            label: Some("sw0.p1".into()),
            start_ns: 10,
            end_ns: 25,
            node: 1,
            qpn: 9,
            seq: 4,
            bytes: 64,
        };
        let mut s = String::new();
        n.json_into(&mut s);
        assert_eq!(
            s,
            "{\"id\":7,\"parent\":3,\"name\":\"hop\",\"label\":\"sw0.p1\",\
             \"start\":10,\"end\":25,\"node\":1,\"qpn\":9,\"seq\":4,\"bytes\":64}"
        );
    }
}
