//! Per-host fabric endpoint for the `Send` lane engine (DESIGN.md §3.15).
//!
//! The serial world models the whole Clos fabric as shared switch state
//! behind `Rc<Fabric>`. Lanes cannot share a switch: every piece of
//! mutable state must be owned by exactly one lane. This module is the
//! port of the fabric's *per-host observable behaviour* onto lane-owned
//! state:
//!
//! * **Egress** (`HostNicLane::egress_*`): a FIFO serialized at line rate
//!   — one packet on the wire at a time, store-and-forward, exactly like
//!   `port.rs`. The glue schedules one local event per serialization and
//!   then ships the packet cross-lane with the two-hop propagation delay
//!   (host → ToR → host, the lookahead floor).
//! * **Ingress** (`HostNicLane::rx_admit`): the receiver's downlink queue
//!   is where incast congestion physically lives, and the downlink is
//!   owned by the receiving host — so the queue, its drain rate, and its
//!   ECN marking all move to the *receiver's* lane. Arrivals are admitted
//!   into a busy-until horizon (virtual queue in nanoseconds); a packet
//!   is delivered when the downlink has drained everything ahead of it,
//!   and is ECN-marked when the backlog it met exceeds the threshold.
//!   That reproduces the switch egress-queue behaviour without any
//!   cross-lane shared state.
//!
//! The type is a plain-data state machine: no `Rc`, no `RefCell`, no
//! callbacks (the S1 `non-send-shard-state` lint walks it as a shard
//! root because the name ends in `Lane`). It never schedules anything
//! itself — methods return what the caller must schedule, keeping the
//! module unit-testable without a world.

use serde::Serialize;

/// A packet travelling between host NIC lanes. `B` is the opaque upper
/// -layer body (the RNIC lane's BTH equivalent); it must be `Send`
/// because packets cross lanes through the mailbox protocol.
#[derive(Clone, Debug)]
pub struct LanePkt<B> {
    pub src: u32,
    pub dst: u32,
    /// Wire size in bytes (headers included), driving serialization.
    pub bytes: u32,
    /// ECN congestion-experienced mark (set by the receiver's downlink
    /// admission when the backlog exceeds the threshold).
    pub ecn: bool,
    pub body: B,
}

/// Line-rate / delay / ECN tunables of one host port, mirroring the
/// serial fabric's defaults (25 Gb/s access links, 500 ns hops).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NicLaneConfig {
    pub line_rate_gbps: f64,
    /// Propagation + forwarding delay per hop; host→ToR→host is two.
    pub hop_ns: u64,
    /// Downlink backlog (in ns of drain time) above which an admitted
    /// packet is ECN-marked — the RED-style threshold of the serial
    /// switch, expressed in time units.
    pub ecn_threshold_ns: u64,
    /// Deterministic fault knob: drop every Nth egress packet (0 = off).
    /// Gives the chaos battery real loss + go-back-N recovery on the
    /// threaded engine without any shared fault injector.
    pub drop_every: u64,
}

impl Default for NicLaneConfig {
    fn default() -> NicLaneConfig {
        NicLaneConfig {
            line_rate_gbps: 25.0,
            hop_ns: 500,
            ecn_threshold_ns: 20_000,
            drop_every: 0,
        }
    }
}

/// Verdict of [`HostNicLane::rx_admit`]: when the packet clears the
/// downlink queue and whether it picked up an ECN mark on the way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RxAdmit {
    pub deliver_at_ns: u64,
    pub ecn: bool,
}

/// Owned per-host NIC endpoint state. One per lane; see module docs.
pub struct HostNicLane<B> {
    cfg: NicLaneConfig,
    /// Egress FIFO. `tx_busy` means the front packet is on the wire and
    /// a serialization-done event is pending.
    egress: std::collections::VecDeque<LanePkt<B>>,
    tx_busy: bool,
    /// Downlink (ingress) virtual queue: the instant the queue drains.
    rx_busy_until_ns: u64,
    /// Egress packet counter driving the deterministic drop knob.
    tx_seq: u64,
    // Counters (all deterministic; surfaced in digests and xr-stat).
    pub tx_pkts: u64,
    pub tx_bytes: u64,
    pub rx_pkts: u64,
    pub rx_bytes: u64,
    pub ecn_marked: u64,
    pub dropped: u64,
    pub max_backlog_ns: u64,
}

impl<B> HostNicLane<B> {
    pub fn new(cfg: NicLaneConfig) -> HostNicLane<B> {
        assert!(cfg.line_rate_gbps > 0.0, "need a positive line rate");
        HostNicLane {
            cfg,
            egress: std::collections::VecDeque::new(),
            tx_busy: false,
            rx_busy_until_ns: 0,
            tx_seq: 0,
            tx_pkts: 0,
            tx_bytes: 0,
            rx_pkts: 0,
            rx_bytes: 0,
            ecn_marked: 0,
            dropped: 0,
            max_backlog_ns: 0,
        }
    }

    pub fn cfg(&self) -> &NicLaneConfig {
        &self.cfg
    }

    /// Two-hop propagation delay for a host→ToR→host crossing — exactly
    /// the lane engine's lookahead floor.
    pub fn cross_delay_ns(&self) -> u64 {
        2 * self.cfg.hop_ns
    }

    /// Store-and-forward serialization time of `bytes` at line rate.
    pub fn ser_ns(&self, bytes: u32) -> u64 {
        let ns = (bytes as f64) * 8.0 / self.cfg.line_rate_gbps;
        (ns as u64).max(1)
    }

    /// Queue a packet for egress. Returns `Some(serialization_ns)` when
    /// the wire was idle — the caller must schedule [`Self::tx_done`]
    /// after that many nanoseconds. `None` means a completion event is
    /// already pending and will chain.
    pub fn egress_enqueue(&mut self, pkt: LanePkt<B>) -> Option<u64> {
        self.egress.push_back(pkt);
        if self.tx_busy {
            return None;
        }
        self.tx_busy = true;
        let front = self.egress.front().expect("just pushed");
        Some(self.ser_ns(front.bytes))
    }

    /// Serialization finished: take the packet off the wire. Returns the
    /// launched packet (`None` if the fault knob dropped it) and, when
    /// more packets are queued, the serialization time of the next one —
    /// the caller schedules the next `tx_done` accordingly.
    #[allow(clippy::type_complexity)]
    pub fn tx_done(&mut self) -> (Option<LanePkt<B>>, Option<u64>) {
        debug_assert!(self.tx_busy, "tx_done without a pending serialization");
        let pkt = self.egress.pop_front().expect("wire held a packet");
        self.tx_seq += 1;
        let dropped = self.cfg.drop_every != 0 && self.tx_seq.is_multiple_of(self.cfg.drop_every);
        let launched = if dropped {
            self.dropped += 1;
            None
        } else {
            self.tx_pkts += 1;
            self.tx_bytes += u64::from(pkt.bytes);
            Some(pkt)
        };
        let next = match self.egress.front() {
            Some(n) => Some(self.ser_ns(n.bytes)),
            None => {
                self.tx_busy = false;
                None
            }
        };
        (launched, next)
    }

    /// Admit an arriving packet into the downlink queue at `now_ns`.
    /// Returns when it is deliverable and whether it was ECN-marked by
    /// the backlog it met. Pure receiver-side congestion: the queue
    /// drains at line rate, one packet at a time, FIFO.
    pub fn rx_admit(&mut self, now_ns: u64, bytes: u32) -> RxAdmit {
        let backlog_ns = self.rx_busy_until_ns.saturating_sub(now_ns);
        self.max_backlog_ns = self.max_backlog_ns.max(backlog_ns);
        let start = self.rx_busy_until_ns.max(now_ns);
        let deliver_at_ns = start + self.ser_ns(bytes);
        self.rx_busy_until_ns = deliver_at_ns;
        self.rx_pkts += 1;
        self.rx_bytes += u64::from(bytes);
        let ecn = backlog_ns > self.cfg.ecn_threshold_ns;
        if ecn {
            self.ecn_marked += 1;
        }
        RxAdmit { deliver_at_ns, ecn }
    }

    /// Current downlink backlog in drain-nanoseconds.
    pub fn backlog_ns(&self, now_ns: u64) -> u64 {
        self.rx_busy_until_ns.saturating_sub(now_ns)
    }
}

impl<B> std::fmt::Debug for HostNicLane<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nic{{tx={}/{}B rx={}/{}B ecn={} drop={} maxq={}ns}}",
            self.tx_pkts,
            self.tx_bytes,
            self.rx_pkts,
            self.rx_bytes,
            self.ecn_marked,
            self.dropped,
            self.max_backlog_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> HostNicLane<u32> {
        HostNicLane::new(NicLaneConfig::default())
    }

    fn pkt(bytes: u32, body: u32) -> LanePkt<u32> {
        LanePkt {
            src: 0,
            dst: 1,
            bytes,
            ecn: false,
            body,
        }
    }

    #[test]
    fn egress_serializes_one_at_a_time() {
        let mut n = nic();
        let first = n.egress_enqueue(pkt(1000, 1));
        assert_eq!(first, Some(n.ser_ns(1000)), "idle wire starts now");
        assert_eq!(n.egress_enqueue(pkt(2000, 2)), None, "wire busy: chains");
        let (sent, next) = n.tx_done();
        assert_eq!(sent.unwrap().body, 1);
        assert_eq!(next, Some(n.ser_ns(2000)), "second packet takes the wire");
        let (sent, next) = n.tx_done();
        assert_eq!(sent.unwrap().body, 2);
        assert_eq!(next, None, "queue drained");
        assert_eq!(n.tx_pkts, 2);
        assert_eq!(n.tx_bytes, 3000);
    }

    #[test]
    fn ser_time_tracks_line_rate() {
        let n = nic();
        // 25 Gb/s → 0.32 ns per byte → 4 KiB ≈ 1310 ns.
        assert_eq!(n.ser_ns(4096), 1310);
        assert!(n.ser_ns(1) >= 1, "never zero");
    }

    #[test]
    fn rx_backlog_accumulates_and_marks_ecn() {
        let mut n = nic();
        let t0 = 1_000;
        let a = n.rx_admit(t0, 4096);
        assert_eq!(a.deliver_at_ns, t0 + n.ser_ns(4096));
        assert!(!a.ecn, "empty queue: no mark");
        // Pile on until the backlog crosses the threshold.
        let mut marked = false;
        for _ in 0..40 {
            marked |= n.rx_admit(t0, 4096).ecn;
        }
        assert!(marked, "a deep enough backlog must ECN-mark");
        assert!(n.max_backlog_ns > n.cfg().ecn_threshold_ns);
        // Once drained, marks stop.
        let later = n.rx_busy_until_ns + 1;
        assert!(!n.rx_admit(later, 4096).ecn);
    }

    #[test]
    fn rx_is_fifo_in_time() {
        let mut n = nic();
        let a = n.rx_admit(0, 1000);
        let b = n.rx_admit(0, 1000);
        assert!(b.deliver_at_ns > a.deliver_at_ns, "FIFO drain order");
    }

    #[test]
    fn drop_knob_drops_every_nth() {
        let mut n: HostNicLane<u32> = HostNicLane::new(NicLaneConfig {
            drop_every: 3,
            ..NicLaneConfig::default()
        });
        let mut launched = 0;
        for i in 0..9 {
            if n.egress_enqueue(pkt(100, i)).is_some() {
                // keep the wire busy; completions below
            }
            let (sent, _next) = n.tx_done();
            if sent.is_some() {
                launched += 1;
            }
        }
        assert_eq!(launched, 6, "every 3rd of 9 dropped");
        assert_eq!(n.dropped, 3);
    }
}
