//! The application-layer seq-ack window — Algorithm 1 of the paper (§V-B),
//! as pure state machines (no I/O) so the invariants are unit- and
//! property-testable in isolation.
//!
//! Why it exists: the RNIC's hardware ACK only proves a packet reached the
//! peer NIC, not that the peer *application* consumed it and freed the
//! buffer. X-RDMA therefore runs a message-granular window above verbs:
//!
//! * the **sender** may have at most `depth` unacknowledged messages; the
//!   window is a ring buffer with one slot reserved for NOP, so a
//!   deadlock-breaking message can always be sent;
//! * the **receiver** tracks WTA ("wait to ack": received messages) and
//!   RTA ("ready to ack": messages the application has consumed, advanced
//!   in order), and piggybacks `ACKED = RTA` on every outgoing message;
//! * because the sender never exceeds the window and the receiver pre-posts
//!   `depth` receive buffers, the receive queue can never underflow —
//!   **RNR-free by construction** (Fig 9).
//!
//! Naming follows the paper: `seq`/`acked` on the TX side; `wta`/`rta`/
//! `acked` on the RX side.

use xrdma_sim::invariant;
use xrdma_telemetry::tele;

/// Sender-side window over one channel.
#[derive(Clone, Debug)]
pub struct TxWindow {
    depth: u32,
    /// Next sequence number to assign (paper: `QP.tx.seq`).
    seq: u32,
    /// Cumulative peer acknowledgment (paper: `QP.tx.acked`): all
    /// sequences `< acked` are acknowledged.
    acked: u32,
}

impl TxWindow {
    /// `depth` is the in-flight message limit; the paper keeps it below
    /// the CQ depth and reserves one slot for NOP.
    pub fn new(depth: u32) -> TxWindow {
        assert!(depth >= 2, "window needs a data slot and the NOP slot");
        TxWindow {
            depth,
            seq: 0,
            acked: 0,
        }
    }

    /// Sequences in flight right now.
    pub fn in_flight(&self) -> u32 {
        self.seq.wrapping_sub(self.acked)
    }

    /// Can another *data* message be sent? One slot stays reserved for
    /// NOP so the deadlock breaker can always go out.
    pub fn can_send(&self) -> bool {
        self.in_flight() < self.depth - 1
    }

    /// Assign the next sequence number (paper: `SEND_MESSAGE: tx.seq++`).
    /// Caller must have checked `can_send`.
    pub fn next_seq(&mut self) -> u32 {
        // No sequence reuse: a slot is only re-assigned after the previous
        // occupant was cumulatively acked, which `can_send` guarantees.
        invariant!(self.can_send(), "window overrun: seq reuse at {}", self.seq);
        debug_assert!(self.can_send(), "window overrun");
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        s
    }

    /// Process a cumulative ACK from the peer (paper: `RECV_MESSAGE`).
    /// Returns the sequences newly acknowledged, in order — the caller
    /// runs `on_acked` for each (release buffers, complete sends).
    ///
    /// Wrapping-safe: `ack` may lag `acked` (duplicate) but never lead
    /// `seq`.
    pub fn on_ack(&mut self, ack: u32) -> impl Iterator<Item = u32> + use<> {
        // Bound the advance by what is actually in flight, so a corrupt or
        // reordered ack can never over-advance the window; a lag in the
        // upper half of the u32 circle is a stale (pre-wrap) duplicate.
        let lag = ack.wrapping_sub(self.acked);
        let newly = if lag > u32::MAX / 2 {
            0
        } else {
            lag.min(self.in_flight())
        };
        let start = self.acked;
        self.acked = self.acked.wrapping_add(newly);
        // Monotonicity: the cumulative-ack edge never regresses past `seq`
        // and the window never holds more than `depth` messages.
        invariant!(
            self.in_flight() <= self.depth,
            "ack regression: acked {} seq {} depth {}",
            self.acked,
            self.seq,
            self.depth
        );
        (0..newly).map(move |i| start.wrapping_add(i))
    }

    /// Lowest unacknowledged sequence, if any.
    pub fn oldest_unacked(&self) -> Option<u32> {
        if self.in_flight() > 0 {
            Some(self.acked)
        } else {
            None
        }
    }
}

/// What the receiver should do with an accepted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxAccept {
    /// In-order fresh message: process it.
    Fresh,
    /// Already seen (peer retransmitted after our ack was lost): re-ack,
    /// do not re-deliver.
    Duplicate,
}

/// Receiver-side window over one channel.
#[derive(Clone, Debug)]
pub struct RxWindow {
    depth: u32,
    /// Highest received + 1 (paper: `QP.rx.wta` — wait-to-ack edge).
    wta: u32,
    /// Consumed-in-order edge (paper: `QP.rx.rta` — ready-to-ack).
    rta: u32,
    /// Last ACK value actually transmitted to the peer.
    acked_sent: u32,
    /// Completion flags for the out-of-order-completion range
    /// [rta, wta), a ring whose edge is `rta` (paper: `msgs[i].recved`).
    recved: SeqRing<()>,
}

impl RxWindow {
    pub fn new(depth: u32) -> RxWindow {
        assert!(depth >= 2);
        RxWindow {
            depth,
            wta: 0,
            rta: 0,
            acked_sent: 0,
            recved: SeqRing::new(depth),
        }
    }

    pub fn wta(&self) -> u32 {
        self.wta
    }

    pub fn rta(&self) -> u32 {
        self.rta
    }

    /// A sequenced message arrived (paper: receiver `SEND_MESSAGE`
    /// prologue — `rx.wta++`). Returns whether it is fresh or a duplicate.
    pub fn on_arrival(&mut self, seq: u32) -> RxAccept {
        if seq.wrapping_sub(self.rta) >= self.depth {
            // Behind the window (or absurdly ahead, impossible on RC):
            // a retransmission of something we consumed.
            tele!(SeqDuplicate { seq });
            return RxAccept::Duplicate;
        }
        let next = self.wta;
        let verdict = if seq == next {
            self.wta = self.wta.wrapping_add(1);
            self.recved.remove(seq);
            RxAccept::Fresh
        } else if seq.wrapping_sub(self.rta) < next.wrapping_sub(self.rta) {
            tele!(SeqDuplicate { seq });
            RxAccept::Duplicate
        } else {
            // Ahead of wta: RC in-order delivery makes this unreachable,
            // but accept conservatively by advancing (fills gaps as
            // un-recved, which stalls rta — visible in tests).
            self.wta = seq.wrapping_add(1);
            RxAccept::Fresh
        };
        self.check_edges();
        verdict
    }

    /// Window-edge invariants (checked under `debug_invariants`):
    /// `rta ≤ wta ≤ rta + depth` and the last transmitted ack never leads
    /// `rta` — an ack for an unconsumed message would break the RNR-free
    /// construction.
    fn check_edges(&self) {
        invariant!(
            self.wta.wrapping_sub(self.rta) <= self.depth,
            "rx window wider than depth: rta {} wta {} depth {}",
            self.rta,
            self.wta,
            self.depth
        );
        invariant!(
            self.rta.wrapping_sub(self.acked_sent) <= self.depth,
            "transmitted ack {} leads rta {}",
            self.acked_sent,
            self.rta
        );
    }

    /// Mark a message completed (small message processed, or
    /// `rdma_read_done` for a large one) and advance RTA over every
    /// contiguous completed message (paper: `RDMA_READ_DONE`). Returns the
    /// sequences that became deliverable, in order.
    pub fn on_complete(&mut self, seq: u32) -> impl Iterator<Item = u32> + use<> {
        let start = self.rta;
        // A stale completion (behind the window) releases nothing.
        if seq.wrapping_sub(self.rta) < self.depth {
            self.recved.insert(seq, ());
            while self.rta != self.wta && self.recved.get_mut(self.rta).is_some() {
                self.recved.pop_front();
                self.rta = self.rta.wrapping_add(1);
            }
            self.check_edges();
        }
        let n = self.rta.wrapping_sub(start);
        (0..n).map(move |i| start.wrapping_add(i))
    }

    /// The ACK number to piggyback on the next outgoing message (paper:
    /// `msg.acked = QP.rx.acked = QP.rx.rta`). Records it as sent.
    pub fn take_ack(&mut self) -> u32 {
        self.acked_sent = self.rta;
        self.rta
    }

    /// How many completions the peer has not been told about.
    pub fn unsent_acks(&self) -> u32 {
        self.rta.wrapping_sub(self.acked_sent)
    }

    /// Should a standalone ACK be generated (after N receptions with no
    /// reverse traffic, §V-B)?
    pub fn needs_standalone_ack(&self, after: u32) -> bool {
        self.unsent_acks() >= after
    }
}

/// Per-message state for one window, indexed from the window edge
/// (Algorithm 1's `msgs[i]`): the entry for `seq` lives `seq − edge`
/// slots past the one holding `edge`. Offsets are wrapping differences,
/// so live seqs never share a slot across the u32 wrap, whatever the
/// depth — `seq % depth` aliases there unless the depth divides 2^32.
/// Slots are allocated as the window first reaches them, so memory
/// follows the deepest the window has been, capped at `depth`.
#[derive(Clone, Debug)]
pub(crate) struct SeqRing<T> {
    depth: usize,
    /// Sequence number at the window edge.
    edge: u32,
    /// Slot holding `edge`.
    head: usize,
    slots: Vec<Option<T>>,
}

impl<T> SeqRing<T> {
    pub(crate) fn new(depth: u32) -> SeqRing<T> {
        SeqRing {
            depth: depth as usize,
            edge: 0,
            head: 0,
            slots: Vec::new(),
        }
    }

    fn index(&self, seq: u32) -> Option<usize> {
        let off = seq.wrapping_sub(self.edge) as usize;
        (off < self.slots.len()).then(|| (self.head + off) % self.slots.len())
    }

    /// Store `v` for `seq`, which lies less than `depth` past the edge.
    pub(crate) fn insert(&mut self, seq: u32, v: T) {
        let off = seq.wrapping_sub(self.edge) as usize;
        invariant!(
            off < self.depth,
            "seq {} beyond ring edge {}",
            seq,
            self.edge
        );
        if off >= self.slots.len() {
            // Grow with the edge moved to slot 0, so offsets keep their
            // entries.
            self.slots.rotate_left(self.head);
            self.head = 0;
            let len = (off + 1).next_power_of_two().min(self.depth);
            self.slots.resize_with(len, || None);
        }
        if let Some(i) = self.index(seq) {
            self.slots[i] = Some(v);
        }
    }

    pub(crate) fn get_mut(&mut self, seq: u32) -> Option<&mut T> {
        let i = self.index(seq)?;
        self.slots[i].as_mut()
    }

    pub(crate) fn remove(&mut self, seq: u32) -> Option<T> {
        let i = self.index(seq)?;
        self.slots[i].take()
    }

    /// Take the entry at the edge (if any) and advance the edge by one.
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        self.edge = self.edge.wrapping_add(1);
        let v = self.slots.get_mut(self.head)?.take();
        self.head = (self.head + 1) % self.slots.len();
        v
    }

    /// Take every entry, in seq order from the edge (teardown).
    pub(crate) fn take_all(&mut self) -> impl Iterator<Item = T> + '_ {
        let (behind, ahead) = self.slots.split_at_mut(self.head);
        ahead.iter_mut().chain(behind).filter_map(Option::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_window_opens_and_closes() {
        let mut tx = TxWindow::new(4); // 3 data slots + NOP
        assert!(tx.can_send());
        let s0 = tx.next_seq();
        let s1 = tx.next_seq();
        let s2 = tx.next_seq();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert!(!tx.can_send(), "3 in flight = data slots exhausted");
        let acked: Vec<u32> = tx.on_ack(2).collect();
        assert_eq!(acked, vec![0, 1]);
        assert!(tx.can_send());
        assert_eq!(tx.in_flight(), 1);
        assert_eq!(tx.oldest_unacked(), Some(2));
    }

    #[test]
    fn tx_duplicate_ack_is_noop() {
        let mut tx = TxWindow::new(8);
        tx.next_seq();
        tx.next_seq();
        assert_eq!(tx.on_ack(1).count(), 1);
        assert_eq!(tx.on_ack(1).count(), 0, "duplicate");
        assert_eq!(tx.on_ack(0).count(), 0, "stale");
        assert_eq!(tx.in_flight(), 1);
    }

    #[test]
    fn tx_overdriven_ack_is_clamped() {
        let mut tx = TxWindow::new(8);
        tx.next_seq();
        // Ack claims 100 messages; only 1 is in flight.
        assert_eq!(tx.on_ack(100).count(), 1);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.oldest_unacked(), None);
    }

    #[test]
    fn tx_wraps_around_u32() {
        let mut tx = TxWindow::new(4);
        tx.seq = u32::MAX - 1;
        tx.acked = u32::MAX - 1;
        let a = tx.next_seq();
        let b = tx.next_seq();
        assert_eq!(a, u32::MAX - 1);
        assert_eq!(b, u32::MAX);
        let acked: Vec<u32> = tx.on_ack(1).collect(); // wrapped ack value
        assert_eq!(acked, vec![u32::MAX - 1, u32::MAX]);
        assert_eq!(tx.next_seq(), 0, "wrapped");
    }

    #[test]
    fn rx_in_order_flow() {
        let mut rx = RxWindow::new(4);
        assert_eq!(rx.on_arrival(0), RxAccept::Fresh);
        assert_eq!(rx.on_arrival(1), RxAccept::Fresh);
        assert_eq!(rx.wta(), 2);
        assert_eq!(rx.rta(), 0, "nothing consumed yet");
        assert!(rx.on_complete(0).eq([0]));
        assert!(rx.on_complete(1).eq([1]));
        assert_eq!(rx.rta(), 2);
    }

    #[test]
    fn rx_out_of_order_completion_stalls_rta() {
        // Large message 0 still being read while small 1 and 2 complete:
        // rta must wait for 0 (in-order delivery guarantee).
        let mut rx = RxWindow::new(8);
        for s in 0..3 {
            rx.on_arrival(s);
        }
        assert_eq!(rx.on_complete(1).count(), 0);
        assert_eq!(rx.on_complete(2).count(), 0);
        assert_eq!(rx.rta(), 0);
        assert!(rx.on_complete(0).eq([0, 1, 2]), "releases the batch");
        assert_eq!(rx.rta(), 3);
    }

    #[test]
    fn rx_ring_survives_the_u32_wrap_at_any_depth() {
        // Depth 10 does not divide 2^32: indexed by `seq % depth`,
        // u32::MAX − 3 and 2 would share a slot.
        let first = u32::MAX - 3;
        let mut rx = RxWindow::new(10);
        (rx.wta, rx.rta, rx.acked_sent, rx.recved.edge) = (first, first, first, first);
        let seqs: Vec<u32> = (0..7).map(|i| first.wrapping_add(i)).collect();
        for &s in &seqs {
            assert_eq!(rx.on_arrival(s), RxAccept::Fresh);
        }
        // The newest completes first (a late rendezvous read overtaken).
        assert_eq!(rx.on_complete(2).count(), 0);
        let mut delivered = Vec::new();
        for &s in &seqs[..6] {
            delivered.extend(rx.on_complete(s));
        }
        assert_eq!(delivered, seqs, "every seq delivered once, in order");
        assert_eq!(rx.rta(), 3);
    }

    #[test]
    fn seq_ring_grows_keeping_entries_at_their_seqs() {
        let mut ring: SeqRing<u32> = SeqRing::new(8);
        ring.insert(0, 0);
        ring.insert(1, 1);
        assert_eq!(ring.pop_front(), Some(0));
        ring.insert(2, 2); // wraps to slot 0 while the edge sits in slot 1
        ring.insert(4, 4); // grows 2 → 4 slots
        assert_eq!(ring.slots.len(), 4);
        assert_eq!(ring.remove(3), None);
        assert_eq!(ring.take_all().collect::<Vec<_>>(), [1, 2, 4]);
    }

    #[test]
    fn rx_duplicate_detection() {
        let mut rx = RxWindow::new(4);
        rx.on_arrival(0);
        let _ = rx.on_complete(0);
        assert_eq!(rx.on_arrival(0), RxAccept::Duplicate);
        rx.on_arrival(1);
        assert_eq!(
            rx.on_arrival(1),
            RxAccept::Duplicate,
            "received, unconsumed"
        );
    }

    #[test]
    fn rx_ack_bookkeeping() {
        let mut rx = RxWindow::new(8);
        for s in 0..5 {
            rx.on_arrival(s);
            let _ = rx.on_complete(s);
        }
        assert_eq!(rx.unsent_acks(), 5);
        assert!(rx.needs_standalone_ack(4));
        assert!(!rx.needs_standalone_ack(6));
        assert_eq!(rx.take_ack(), 5);
        assert_eq!(rx.unsent_acks(), 0);
        assert!(!rx.needs_standalone_ack(4));
    }

    #[test]
    fn end_to_end_window_conversation() {
        // Symmetric sender/receiver pair exchanging a full window.
        let depth = 8;
        let mut tx = TxWindow::new(depth);
        let mut rx = RxWindow::new(depth);
        let mut delivered = Vec::new();
        // Fill the data slots.
        let mut sent = Vec::new();
        while tx.can_send() {
            sent.push(tx.next_seq());
        }
        assert_eq!(sent.len() as u32, depth - 1);
        for &s in &sent {
            assert_eq!(rx.on_arrival(s), RxAccept::Fresh);
            delivered.extend(rx.on_complete(s));
        }
        assert_eq!(delivered, sent);
        // Receiver piggybacks its ack; sender fully drains.
        let ack = rx.take_ack();
        assert_eq!(tx.on_ack(ack).count() as u32, depth - 1);
        assert_eq!(tx.in_flight(), 0);
        assert!(tx.can_send());
    }

    #[test]
    #[should_panic(expected = "window needs")]
    fn tiny_window_rejected() {
        TxWindow::new(1);
    }

    #[test]
    #[should_panic(expected = "window overrun")]
    fn invariant_rejects_seq_reuse() {
        let mut tx = TxWindow::new(2);
        tx.next_seq(); // the single data slot
        tx.next_seq(); // overrun: would reuse a live slot
    }

    #[test]
    fn rx_edges_hold_under_sustained_traffic() {
        // Many full window cycles of in-order traffic: `check_edges` runs
        // on every arrival/completion and must never trip.
        let depth = 4u32;
        let mut rx = RxWindow::new(depth);
        let mut tx = TxWindow::new(depth);
        for _ in 0..20 {
            while tx.can_send() {
                let s = tx.next_seq();
                assert_eq!(rx.on_arrival(s), RxAccept::Fresh);
                let _ = rx.on_complete(s);
            }
            tx.on_ack(rx.take_ack()).count();
        }
        assert_eq!(tx.in_flight(), 0);
    }
}
