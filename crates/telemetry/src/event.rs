//! Typed, sim-timestamped telemetry events.
//!
//! One variant per protocol-visible occurrence the paper's diagnosis
//! ecosystem (§VI) cares about, from packet-level fabric activity up to
//! middleware channel lifecycle. The taxonomy is deliberately flat: every
//! event is a timestamp plus a small payload, so the JSONL log is trivially
//! greppable and the Chrome-trace exporter needs no schema knowledge.

use std::sync::Arc;

use serde::{write_json_str, Serialize};
use xrdma_sim::Time;

/// A telemetry event: virtual-clock instant plus typed payload.
#[derive(Clone, Debug)]
pub struct Event {
    pub t: Time,
    pub kind: EventKind,
}

/// The event taxonomy (DESIGN.md §Telemetry).
///
/// Identity fields follow the layer that emits the event: fabric events
/// carry port labels, RNIC events carry `(node, qpn)`, middleware events
/// carry `(node, peer, qpn)`. `DcqcnRate` and `SeqDuplicate` are
/// identity-free because their emitters (the RP state machine, the seq-ack
/// window) do not know which QP owns them; the surrounding events provide
/// the correlation.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A packet entered an egress queue (packet-level, high volume).
    PktEnqueue {
        port: Arc<str>,
        prio: u8,
        bytes: u32,
        queued_bytes: u64,
    },
    /// A packet was tail-dropped at an egress queue.
    PktDrop {
        port: Arc<str>,
        prio: u8,
        bytes: u32,
    },
    /// RED/ECN marked a packet CE at a switch egress.
    EcnMark { port: Arc<str>, queued_bytes: u64 },
    /// PFC pause asserted on an upstream port.
    PfcXoff {
        port: Arc<str>,
        prio: u8,
        to_host: bool,
    },
    /// PFC pause released.
    PfcXon { port: Arc<str>, prio: u8 },
    /// The notification point generated a CNP toward the sender.
    CnpGenerated { node: u32, qpn: u32 },
    /// DCQCN reaction point updated its rate/alpha after a CNP.
    DcqcnRate {
        rate_gbps: f64,
        alpha: f64,
        cnps: u64,
    },
    /// A queue pair changed state.
    QpState {
        qpn: u32,
        from: &'static str,
        to: &'static str,
    },
    /// An RNR NAK was received for this QP.
    Rnr { node: u32, qpn: u32 },
    /// Timeout-driven retransmission of `msgs` outstanding messages.
    Retransmit { node: u32, qpn: u32, msgs: u64 },
    /// The seq-ack receive window saw a duplicate sequence number.
    SeqDuplicate { seq: u32 },
    /// The seq-ack send window filled; sends are now queued.
    WindowStall { node: u32, qpn: u32, queued: u64 },
    /// The send window drained its pending queue.
    WindowResume { node: u32, qpn: u32 },
    /// A keepalive probe was sent on an idle channel.
    KeepaliveProbe { node: u32, qpn: u32 },
    /// A channel tore down; `reason` is `local`, `remote` or `peer-dead`.
    ChannelClose {
        node: u32,
        peer: u32,
        qpn: u32,
        reason: &'static str,
    },
    /// The poll-gap watchdog saw completions wait longer than the warn cycle.
    PollGap { node: u32, gap_ns: u64 },
    /// An operation exceeded the slow-op threshold.
    SlowOp {
        node: u32,
        what: &'static str,
        took_ns: u64,
    },
    /// Connection management established a channel.
    CmEstablished { node: u32, peer: u32, qpn: u32 },
    /// A runtime `invariant!` fired (the message precedes the panic).
    InvariantFired { msg: String },
    /// A scheduled fault window opened (`on = true`) or closed.
    FaultWindow {
        fault: &'static str,
        target: String,
        on: bool,
    },
    /// A single fault action fired (one dropped/duplicated/delayed packet,
    /// one node command, one sabotaged connect). High volume under storms,
    /// so it is packet-level: kept out of the run log, always in the ring.
    FaultInjected { fault: &'static str, target: String },
    /// An incoming message was dropped because the local memory cache was
    /// exhausted (the peer recovers via retransmission above our layer).
    MsgDropOom {
        node: u32,
        peer: u32,
        qpn: u32,
        seq: u32,
        bytes: u64,
    },
    /// A mux slot bound a peer-group of logical channels to a physical QP
    /// (`reattach` = this slot was previously evicted and came back).
    MuxEstablish {
        node: u32,
        peer: u32,
        lane: u64,
        qpn: u32,
        reattach: bool,
    },
    /// The mux LRU chose this slot as victim; drain-then-close began.
    MuxEvict {
        node: u32,
        peer: u32,
        lane: u64,
        qpn: u32,
    },
    /// A mux receiver dropped a duplicate logical frame (re-establishment
    /// race; the logical stream already consumed this lseq).
    MuxDupDrop { node: u32, lcid: u64, lseq: u64 },
}

impl EventKind {
    /// Stable wire name, used as the `ev` field in JSONL and the event name
    /// in Chrome traces.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PktEnqueue { .. } => "pkt-enqueue",
            EventKind::PktDrop { .. } => "pkt-drop",
            EventKind::EcnMark { .. } => "ecn-mark",
            EventKind::PfcXoff { .. } => "pfc-xoff",
            EventKind::PfcXon { .. } => "pfc-xon",
            EventKind::CnpGenerated { .. } => "cnp",
            EventKind::DcqcnRate { .. } => "dcqcn-rate",
            EventKind::QpState { .. } => "qp-state",
            EventKind::Rnr { .. } => "rnr",
            EventKind::Retransmit { .. } => "retx",
            EventKind::SeqDuplicate { .. } => "seq-dup",
            EventKind::WindowStall { .. } => "window-stall",
            EventKind::WindowResume { .. } => "window-resume",
            EventKind::KeepaliveProbe { .. } => "keepalive-probe",
            EventKind::ChannelClose { .. } => "channel-close",
            EventKind::PollGap { .. } => "poll-gap",
            EventKind::SlowOp { .. } => "slow-op",
            EventKind::CmEstablished { .. } => "cm-established",
            EventKind::InvariantFired { .. } => "invariant",
            EventKind::FaultWindow { .. } => "fault-window",
            EventKind::FaultInjected { .. } => "fault-injected",
            EventKind::MsgDropOom { .. } => "msg-drop-oom",
            EventKind::MuxEstablish { .. } => "mux-establish",
            EventKind::MuxEvict { .. } => "mux-evict",
            EventKind::MuxDupDrop { .. } => "mux-dup-drop",
        }
    }

    /// Packet-level events fire once per packet per hop; the hub keeps them
    /// out of the run log (they always enter the flight-recorder ring).
    pub fn is_packet_level(&self) -> bool {
        matches!(
            self,
            EventKind::PktEnqueue { .. } | EventKind::FaultInjected { .. }
        )
    }

    /// `(pid, tid)` grouping for the Chrome-trace exporter: process = node
    /// (0 for fabric/identity-free events), thread = QP number.
    pub fn pid_tid(&self) -> (u32, u32) {
        match *self {
            EventKind::CnpGenerated { node, qpn }
            | EventKind::Rnr { node, qpn }
            | EventKind::Retransmit { node, qpn, .. }
            | EventKind::WindowStall { node, qpn, .. }
            | EventKind::WindowResume { node, qpn }
            | EventKind::KeepaliveProbe { node, qpn }
            | EventKind::ChannelClose { node, qpn, .. }
            | EventKind::CmEstablished { node, qpn, .. } => (node, qpn),
            EventKind::QpState { qpn, .. } => (0, qpn),
            EventKind::PollGap { node, .. } | EventKind::SlowOp { node, .. } => (node, 0),
            EventKind::MsgDropOom { node, qpn, .. } => (node, qpn),
            EventKind::MuxEstablish { node, qpn, .. } | EventKind::MuxEvict { node, qpn, .. } => {
                (node, qpn)
            }
            EventKind::MuxDupDrop { node, .. } => (node, 0),
            _ => (0, 0),
        }
    }

    /// Append `,"key":value` pairs for this payload (empty for no fields).
    fn write_args(&self, out: &mut String) {
        fn kv_u(out: &mut String, k: &str, v: u64) {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            v.json_into(out);
        }
        fn kv_f(out: &mut String, k: &str, v: f64) {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            v.json_into(out);
        }
        fn kv_s(out: &mut String, k: &str, v: &str) {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            write_json_str(v, out);
        }
        fn kv_b(out: &mut String, k: &str, v: bool) {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            out.push_str(if v { "true" } else { "false" });
        }
        match self {
            EventKind::PktEnqueue {
                port,
                prio,
                bytes,
                queued_bytes,
            } => {
                kv_s(out, "port", port);
                kv_u(out, "prio", u64::from(*prio));
                kv_u(out, "bytes", u64::from(*bytes));
                kv_u(out, "queued_bytes", *queued_bytes);
            }
            EventKind::PktDrop { port, prio, bytes } => {
                kv_s(out, "port", port);
                kv_u(out, "prio", u64::from(*prio));
                kv_u(out, "bytes", u64::from(*bytes));
            }
            EventKind::EcnMark { port, queued_bytes } => {
                kv_s(out, "port", port);
                kv_u(out, "queued_bytes", *queued_bytes);
            }
            EventKind::PfcXoff {
                port,
                prio,
                to_host,
            } => {
                kv_s(out, "port", port);
                kv_u(out, "prio", u64::from(*prio));
                kv_b(out, "to_host", *to_host);
            }
            EventKind::PfcXon { port, prio } => {
                kv_s(out, "port", port);
                kv_u(out, "prio", u64::from(*prio));
            }
            EventKind::CnpGenerated { node, qpn } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "qpn", u64::from(*qpn));
            }
            EventKind::DcqcnRate {
                rate_gbps,
                alpha,
                cnps,
            } => {
                kv_f(out, "rate_gbps", *rate_gbps);
                kv_f(out, "alpha", *alpha);
                kv_u(out, "cnps", *cnps);
            }
            EventKind::QpState { qpn, from, to } => {
                kv_u(out, "qpn", u64::from(*qpn));
                kv_s(out, "from", from);
                kv_s(out, "to", to);
            }
            EventKind::Rnr { node, qpn } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "qpn", u64::from(*qpn));
            }
            EventKind::Retransmit { node, qpn, msgs } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "qpn", u64::from(*qpn));
                kv_u(out, "msgs", *msgs);
            }
            EventKind::SeqDuplicate { seq } => kv_u(out, "seq", u64::from(*seq)),
            EventKind::WindowStall { node, qpn, queued } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "qpn", u64::from(*qpn));
                kv_u(out, "queued", *queued);
            }
            EventKind::WindowResume { node, qpn } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "qpn", u64::from(*qpn));
            }
            EventKind::KeepaliveProbe { node, qpn } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "qpn", u64::from(*qpn));
            }
            EventKind::ChannelClose {
                node,
                peer,
                qpn,
                reason,
            } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "peer", u64::from(*peer));
                kv_u(out, "qpn", u64::from(*qpn));
                kv_s(out, "reason", reason);
            }
            EventKind::PollGap { node, gap_ns } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "gap_ns", *gap_ns);
            }
            EventKind::SlowOp {
                node,
                what,
                took_ns,
            } => {
                kv_u(out, "node", u64::from(*node));
                kv_s(out, "what", what);
                kv_u(out, "took_ns", *took_ns);
            }
            EventKind::CmEstablished { node, peer, qpn } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "peer", u64::from(*peer));
                kv_u(out, "qpn", u64::from(*qpn));
            }
            EventKind::InvariantFired { msg } => kv_s(out, "msg", msg),
            EventKind::FaultWindow { fault, target, on } => {
                kv_s(out, "fault", fault);
                kv_s(out, "target", target);
                kv_b(out, "on", *on);
            }
            EventKind::FaultInjected { fault, target } => {
                kv_s(out, "fault", fault);
                kv_s(out, "target", target);
            }
            EventKind::MsgDropOom {
                node,
                peer,
                qpn,
                seq,
                bytes,
            } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "peer", u64::from(*peer));
                kv_u(out, "qpn", u64::from(*qpn));
                kv_u(out, "seq", u64::from(*seq));
                kv_u(out, "bytes", *bytes);
            }
            EventKind::MuxEstablish {
                node,
                peer,
                lane,
                qpn,
                reattach,
            } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "peer", u64::from(*peer));
                kv_u(out, "lane", *lane);
                kv_u(out, "qpn", u64::from(*qpn));
                kv_b(out, "reattach", *reattach);
            }
            EventKind::MuxEvict {
                node,
                peer,
                lane,
                qpn,
            } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "peer", u64::from(*peer));
                kv_u(out, "lane", *lane);
                kv_u(out, "qpn", u64::from(*qpn));
            }
            EventKind::MuxDupDrop { node, lcid, lseq } => {
                kv_u(out, "node", u64::from(*node));
                kv_u(out, "lcid", *lcid);
                kv_u(out, "lseq", *lseq);
            }
        }
    }
}

// Payload enums are beyond the vendored derive shim, so the JSON shape is
// spelled out by hand: `{"t":<ns>,"ev":"<name>",...payload}`.
impl Serialize for Event {
    fn json_into(&self, out: &mut String) {
        out.push_str("{\"t\":");
        self.t.nanos().json_into(out);
        out.push_str(",\"ev\":");
        write_json_str(self.kind.name(), out);
        self.kind.write_args(out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shape() {
        let ev = Event {
            t: Time(1500),
            kind: EventKind::PfcXoff {
                port: "sw0.p3".into(),
                prio: 0,
                to_host: true,
            },
        };
        let mut s = String::new();
        ev.json_into(&mut s);
        assert_eq!(
            s,
            "{\"t\":1500,\"ev\":\"pfc-xoff\",\"port\":\"sw0.p3\",\"prio\":0,\"to_host\":true}"
        );
    }

    #[test]
    fn float_payloads_round_trip() {
        let ev = Event {
            t: Time(0),
            kind: EventKind::DcqcnRate {
                rate_gbps: 12.5,
                alpha: 0.053,
                cnps: 7,
            },
        };
        let mut s = String::new();
        ev.json_into(&mut s);
        assert!(s.contains("\"rate_gbps\":12.5"));
        assert!(s.contains("\"alpha\":0.053"));
    }

    #[test]
    fn names_are_stable_and_unique() {
        let kinds = [
            EventKind::PktDrop {
                port: "".into(),
                prio: 0,
                bytes: 0,
            },
            EventKind::SeqDuplicate { seq: 0 },
            EventKind::InvariantFired { msg: String::new() },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["pkt-drop", "seq-dup", "invariant"]);
    }

    #[test]
    fn mux_event_shapes() {
        let ev = Event {
            t: Time(77),
            kind: EventKind::MuxEstablish {
                node: 3,
                peer: 9,
                lane: 1,
                qpn: 42,
                reattach: true,
            },
        };
        let mut s = String::new();
        ev.json_into(&mut s);
        assert_eq!(
            s,
            "{\"t\":77,\"ev\":\"mux-establish\",\"node\":3,\"peer\":9,\
             \"lane\":1,\"qpn\":42,\"reattach\":true}"
        );
        let ev = Event {
            t: Time(80),
            kind: EventKind::MuxEvict {
                node: 3,
                peer: 9,
                lane: 1,
                qpn: 42,
            },
        };
        let mut s = String::new();
        ev.json_into(&mut s);
        assert_eq!(
            s,
            "{\"t\":80,\"ev\":\"mux-evict\",\"node\":3,\"peer\":9,\"lane\":1,\"qpn\":42}"
        );
        assert_eq!(
            EventKind::MuxDupDrop {
                node: 0,
                lcid: 5,
                lseq: 6
            }
            .name(),
            "mux-dup-drop"
        );
    }

    #[test]
    fn per_packet_volume_events_are_packet_level() {
        assert!(EventKind::PktEnqueue {
            port: "".into(),
            prio: 0,
            bytes: 0,
            queued_bytes: 0,
        }
        .is_packet_level());
        assert!(EventKind::FaultInjected {
            fault: "drop",
            target: String::new(),
        }
        .is_packet_level());
        assert!(!EventKind::PktDrop {
            port: "".into(),
            prio: 0,
            bytes: 0,
        }
        .is_packet_level());
        assert!(!EventKind::FaultWindow {
            fault: "link-down",
            target: String::new(),
            on: true,
        }
        .is_packet_level());
    }

    #[test]
    fn fault_event_shapes() {
        let ev = Event {
            t: Time(250),
            kind: EventKind::FaultWindow {
                fault: "link-down",
                target: "host0->tor0".into(),
                on: true,
            },
        };
        let mut s = String::new();
        ev.json_into(&mut s);
        assert_eq!(
            s,
            "{\"t\":250,\"ev\":\"fault-window\",\"fault\":\"link-down\",\
             \"target\":\"host0->tor0\",\"on\":true}"
        );
        let ev = Event {
            t: Time(9),
            kind: EventKind::MsgDropOom {
                node: 1,
                peer: 2,
                qpn: 3,
                seq: 4,
                bytes: 4096,
            },
        };
        let mut s = String::new();
        ev.json_into(&mut s);
        assert_eq!(
            s,
            "{\"t\":9,\"ev\":\"msg-drop-oom\",\"node\":1,\"peer\":2,\"qpn\":3,\
             \"seq\":4,\"bytes\":4096}"
        );
    }
}
