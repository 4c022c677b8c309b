//! An egress port: per-priority queues, strict-priority scheduling,
//! store-and-forward serialization, and PFC pause obedience.
//!
//! Every unidirectional link in the fabric is driven by the `Port` on its
//! sending side. Host NICs and switches both own ports; the only difference
//! is what happens on dequeue (switches decrement PFC ingress accounting)
//! and where arrivals go (the next switch or a host's `NicSink`).
//!
//! Per packet a port costs two events and no allocation: its re-armed
//! serialization timer, and one entry on the fabric's shared [`Cable`]
//! delay line, which carries the packet to [`Port::arrive`] one
//! propagation delay later.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use xrdma_sim::{time::wire_time, DelayLine, Dur, World};
use xrdma_telemetry::{span_hop, tele};

use crate::fabric::NicSink;
use crate::packet::{Packet, NPRIO};
use crate::stats::FabricStats;
use crate::switch::Switch;

/// Where packets leaving this port arrive.
pub(crate) enum PortDest {
    /// Arrive at a switch, tagged with the ingress index the switch knows
    /// this cable by.
    Switch { sw: Weak<Switch>, ingress: usize },
    /// Arrive at a host NIC. Held weakly: the NIC owns the fabric, not
    /// the other way around.
    Host {
        sink: RefCell<Option<Weak<dyn NicSink>>>,
    },
}

/// The fabric's cables: one delay line of the per-hop propagation delay,
/// shared by every port, carrying `(sending port, packet)`.
pub(crate) type Cable = DelayLine<(Rc<Port>, Packet)>;

/// A queued packet plus the ingress index it entered the owning switch by
/// (usize::MAX for host-owned ports, which have no ingress accounting).
struct QEntry {
    pkt: Packet,
    ingress: usize,
}

pub struct Port {
    world: Rc<World>,
    /// Shared so per-packet telemetry events tag the port by refcount
    /// bump instead of a `String` clone (`Arc` because event logs may be
    /// collected across sweep worker threads).
    pub label: std::sync::Arc<str>,
    rate_gbps: f64,
    /// The last `(size, wire_time(size, rate_gbps))`: traffic is runs of
    /// equal-sized packets, so the f64 divide runs once per size change.
    ser_memo: Cell<(u64, Dur)>,
    cable: Cable,
    /// Per-priority byte capacity; enqueue beyond it drops the packet.
    limit_bytes: u64,
    queues: RefCell<[VecDeque<QEntry>; NPRIO]>,
    queued_bytes: [Cell<u64>; NPRIO],
    /// Bit `p` set iff `queues[p]` is non-empty.
    nonempty: Cell<u8>,
    /// PFC pause state, bit per priority (set remotely by the downstream
    /// device).
    paused: Cell<u8>,
    busy: Cell<bool>,
    /// The switch owning this port, if any (for dequeue accounting).
    owner: RefCell<Weak<Switch>>,
    dest: PortDest,
    stats: Rc<FabricStats>,
    /// True when this port is a host NIC's uplink; pausing it counts as a
    /// host TX pause.
    pub(crate) host_owned: bool,
    /// For host-owned ports: the NIC sink of the host that owns this port,
    /// notified when PFC pauses the host's transmit path. Weak to avoid a
    /// fabric↔NIC reference cycle.
    peer_sink: RefCell<Option<Weak<dyn NicSink>>>,
    /// Backpressure hook: when total occupancy falls below the threshold
    /// after a transmit, the callback fires once (the NIC injector re-arms
    /// it each time it stops on a full port).
    drain_hook: RefCell<Option<(u64, Box<dyn Fn()>)>>,
    /// Total bytes ever transmitted (diagnostics / utilization).
    tx_bytes: Cell<u64>,
    /// Serialization timer: one rearmable slot per port instead of one
    /// boxed closure per packet. The packet rides in `in_flight` (a port
    /// serializes exactly one packet at a time).
    tx_timer: RefCell<Option<xrdma_sim::Timer>>,
    in_flight: RefCell<Option<QEntry>>,
}

// The pause and occupancy masks hold one bit per priority.
const _: () = assert!(NPRIO <= u8::BITS as usize);

impl Port {
    /// The delay line carrying packets across cables of `prop_delay`.
    pub(crate) fn cable(world: &Rc<World>, prop_delay: Dur) -> Cable {
        world.delay_line(prop_delay, |(port, pkt): (Rc<Port>, Packet)| {
            port.arrive(pkt)
        })
    }

    pub(crate) fn new(
        world: Rc<World>,
        label: String,
        rate_gbps: f64,
        cable: Cable,
        limit_bytes: u64,
        dest: PortDest,
        stats: Rc<FabricStats>,
        host_owned: bool,
    ) -> Rc<Port> {
        Rc::new(Port {
            world,
            label: label.into(),
            rate_gbps,
            ser_memo: Cell::new((0, Dur::ZERO)),
            cable,
            limit_bytes,
            queues: RefCell::new(std::array::from_fn(|_| VecDeque::new())),
            queued_bytes: std::array::from_fn(|_| Cell::new(0)),
            nonempty: Cell::new(0),
            paused: Cell::new(0),
            busy: Cell::new(false),
            owner: RefCell::new(Weak::new()),
            dest,
            stats,
            host_owned,
            peer_sink: RefCell::new(None),
            drain_hook: RefCell::new(None),
            tx_bytes: Cell::new(0),
            tx_timer: RefCell::new(None),
            in_flight: RefCell::new(None),
        })
    }

    pub(crate) fn set_owner(&self, sw: &Rc<Switch>) {
        *self.owner.borrow_mut() = Rc::downgrade(sw);
    }

    pub(crate) fn set_host_sink(&self, sink: &Rc<dyn NicSink>) {
        match &self.dest {
            PortDest::Host { sink: slot } => *slot.borrow_mut() = Some(Rc::downgrade(sink)),
            PortDest::Switch { .. } => panic!("{}: not a host-facing port", self.label),
        }
    }

    /// Current queue depth in bytes for a priority.
    pub fn queue_bytes(&self, prio: u8) -> u64 {
        self.queued_bytes[prio as usize].get()
    }

    /// Total bytes across all priorities.
    pub fn total_queued(&self) -> u64 {
        self.queued_bytes.iter().map(Cell::get).sum()
    }

    /// Total bytes ever transmitted.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes.get()
    }

    /// Whether the given priority is PFC-paused right now.
    pub fn is_paused(&self, prio: u8) -> bool {
        self.paused.get() & (1 << prio) != 0
    }

    pub fn rate_gbps(&self) -> f64 {
        self.rate_gbps
    }

    /// Enqueue a packet from the attached host NIC (no switch ingress
    /// accounting). Returns false (and counts a drop) on overflow.
    pub fn send(self: &Rc<Self>, pkt: Packet) -> bool {
        self.enqueue(pkt, usize::MAX)
    }

    /// Enqueue a packet for transmission. `ingress` is the owning switch's
    /// ingress index the packet arrived by (`usize::MAX` for host ports).
    /// Returns false (and counts a drop) if the priority queue is full.
    pub(crate) fn enqueue(self: &Rc<Self>, mut pkt: Packet, ingress: usize) -> bool {
        // Restamp the hop clock: each traversed port measures its own
        // queueing + serialization + propagation in the packet's span.
        pkt.hop_started_ns = self.world.now().nanos();
        let prio = pkt.prio as usize;
        let size = pkt.size_bytes as u64;
        // Edge fault hooks: a scheduled fault window on this port's label
        // may kill the packet outright (link-down / drop storm) or squeeze
        // the buffer limit for the tail-drop check below.
        #[cfg(feature = "faults")]
        if xrdma_faults::port_drop(&self.label) {
            self.stats.on_drop();
            tele!(PktDrop {
                port: self.label.clone(),
                prio: pkt.prio,
                bytes: pkt.size_bytes,
            });
            return false;
        }
        let limit_bytes = self.limit_bytes;
        #[cfg(feature = "faults")]
        let limit_bytes = xrdma_faults::port_limit(&self.label).unwrap_or(limit_bytes);
        if self.queued_bytes[prio].get() + size > limit_bytes {
            self.stats.on_drop();
            tele!(PktDrop {
                port: self.label.clone(),
                prio: pkt.prio,
                bytes: pkt.size_bytes,
            });
            return false;
        }
        self.queued_bytes[prio].set(self.queued_bytes[prio].get() + size);
        self.stats
            .observe_queue_depth(self.queued_bytes[prio].get());
        tele!(PktEnqueue {
            port: self.label.clone(),
            prio: pkt.prio,
            bytes: pkt.size_bytes,
            queued_bytes: self.queued_bytes[prio].get(),
        });
        self.queues.borrow_mut()[prio].push_back(QEntry { pkt, ingress });
        self.nonempty.set(self.nonempty.get() | 1 << prio);
        self.kick();
        true
    }

    /// Set or clear PFC pause for a priority (called by the downstream
    /// device after control-frame flight time).
    pub(crate) fn set_paused(self: &Rc<Self>, prio: u8, paused: bool) {
        let bit = 1u8 << prio;
        let mask = self.paused.get();
        self.paused
            .set(if paused { mask | bit } else { mask & !bit });
        if !paused {
            self.kick();
        }
    }

    /// Inform the attached host NIC that its uplink pause state changed
    /// (only meaningful on switch down-ports facing a host). The sink
    /// reference lives on the port whose `dest` is that host — i.e. the
    /// ToR's down-port — but the pause lands on the *host's* egress port,
    /// so the fabric wires a back-reference via `peer_sink`.
    pub(crate) fn notify_host_pause(&self, prio: u8, paused: bool) {
        if let Some(sink) = self.peer_sink.borrow().as_ref().and_then(Weak::upgrade) {
            sink.pfc_pause(prio, paused);
        }
    }

    pub(crate) fn set_peer_sink(&self, sink: &Rc<dyn NicSink>) {
        *self.peer_sink.borrow_mut() = Some(Rc::downgrade(sink));
    }

    /// Start transmitting if idle and something is sendable.
    pub(crate) fn kick(self: &Rc<Self>) {
        if self.busy.get() {
            return;
        }
        // Strict priority: lowest index served first.
        let sendable = self.nonempty.get() & !self.paused.get();
        if sendable == 0 {
            return;
        }
        let prio = sendable.trailing_zeros() as usize;
        let entry = {
            let queue = &mut self.queues.borrow_mut()[prio];
            let entry = queue.pop_front().expect("nonempty bit set");
            if queue.is_empty() {
                self.nonempty.set(self.nonempty.get() & !(1 << prio));
            }
            entry
        };
        let size = entry.pkt.size_bytes as u64;
        xrdma_sim::invariant!(
            self.queued_bytes[prio].get() >= size,
            "port queue underflow: prio {} has {} bytes, dequeuing {}",
            prio,
            self.queued_bytes[prio].get(),
            size
        );
        self.queued_bytes[prio].set(self.queued_bytes[prio].get() - size);
        self.busy.set(true);
        let ser = match self.ser_memo.get() {
            (memo_size, ser) if memo_size == size => ser,
            _ => {
                let ser = wire_time(size, self.rate_gbps);
                self.ser_memo.set((size, ser));
                ser
            }
        };
        *self.in_flight.borrow_mut() = Some(entry);
        if self.tx_timer.borrow().is_none() {
            // Weak: the timer slot must not pin the port (ports hold the
            // world, which owns the slot — a strong capture would cycle).
            let me = Rc::downgrade(self);
            *self.tx_timer.borrow_mut() = Some(self.world.timer(move || {
                let Some(me) = me.upgrade() else { return };
                let entry = me.in_flight.borrow_mut().take().expect("tx in flight");
                me.tx_done(entry);
            }));
        }
        self.tx_timer
            .borrow()
            .as_ref()
            .expect("just installed")
            .arm_in(ser);
    }

    /// Arm a one-shot drain notification: when total occupancy drops below
    /// `threshold` after a transmit, `cb` fires and the hook clears. Fires
    /// immediately if already below.
    pub fn arm_drain_hook(&self, threshold: u64, cb: impl Fn() + 'static) {
        if self.total_queued() < threshold {
            cb();
        } else {
            // xrdma-lint: allow(hot-path-alloc) -- armed once per drain wait, not per packet
            *self.drain_hook.borrow_mut() = Some((threshold, Box::new(cb)));
        }
    }

    /// Serialization finished: hand off to the wire, notify the owner for
    /// PFC accounting, and go look for more work.
    fn tx_done(self: &Rc<Self>, entry: QEntry) {
        let size = entry.pkt.size_bytes;
        self.tx_bytes.set(self.tx_bytes.get() + size as u64);
        // PFC dequeue accounting happens at transmit time: the buffer the
        // ingress counter protects is freed now.
        if entry.ingress != usize::MAX {
            if let Some(sw) = self.owner.borrow().upgrade() {
                sw.on_dequeued(entry.ingress, entry.pkt.prio, size);
            }
        }
        // Flight across the cable.
        self.cable.send((self.clone(), entry.pkt));
        self.busy.set(false);
        self.kick();
        // Fire the drain hook last, after kick() possibly refilled.
        let fire = match self.drain_hook.borrow().as_ref() {
            Some(&(threshold, _)) => self.total_queued() < threshold,
            None => false,
        };
        if fire {
            if let Some((_, cb)) = self.drain_hook.borrow_mut().take() {
                cb();
            }
        }
    }

    /// The far end of the cable, one propagation delay after
    /// [`Port::tx_done`]: close the packet's per-hop span and hand it to
    /// the next switch or the attached host.
    fn arrive(&self, pkt: Packet) {
        span_hop!(pkt.span, &self.label, pkt.hop_started_ns);
        match &self.dest {
            PortDest::Switch { sw, ingress } => {
                if let Some(sw) = sw.upgrade() {
                    sw.receive(pkt, *ingress);
                }
            }
            PortDest::Host { sink } => {
                self.stats.on_delivered(pkt.size_bytes);
                let sink = sink.borrow().as_ref().and_then(Weak::upgrade);
                if let Some(sink) = sink {
                    sink.deliver(pkt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, Packet};
    use std::any::Any;

    struct Collect {
        got: RefCell<Vec<(u64, u32)>>, // (arrival ns, size)
        world: Rc<World>,
    }
    impl NicSink for Collect {
        fn deliver(&self, pkt: Packet) {
            self.got
                .borrow_mut()
                .push((self.world.now().nanos(), pkt.size_bytes));
        }
        fn pfc_pause(&self, _prio: u8, _paused: bool) {}
    }

    fn host_port(world: &Rc<World>, rate: f64) -> (Rc<Port>, Rc<Collect>) {
        let stats = FabricStats::new();
        let port = Port::new(
            world.clone(),
            "test".into(),
            rate,
            Port::cable(world, Dur::nanos(100)),
            10_000,
            PortDest::Host {
                sink: RefCell::new(None),
            },
            stats,
            true,
        );
        let sink = Rc::new(Collect {
            got: RefCell::new(Vec::new()),
            world: world.clone(),
        });
        port.set_host_sink(&(sink.clone() as Rc<dyn NicSink>));
        (port, sink)
    }

    fn pkt(size: u32, prio: u8) -> Packet {
        Packet::new(
            NodeId(0),
            NodeId(1),
            prio,
            size,
            1,
            Box::new(()) as Box<dyn Any>,
        )
    }

    #[test]
    fn serialization_plus_prop_delay() {
        let w = World::new();
        let (port, sink) = host_port(&w, 25.0);
        port.enqueue(pkt(1000, 3), usize::MAX);
        w.run();
        // 1000 B at 25 Gb/s = 320 ns + 100 ns prop.
        assert_eq!(*sink.got.borrow(), vec![(420, 1000)]);
        assert_eq!(port.tx_bytes(), 1000);
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let w = World::new();
        let (port, sink) = host_port(&w, 25.0);
        port.enqueue(pkt(1000, 3), usize::MAX);
        port.enqueue(pkt(1000, 3), usize::MAX);
        w.run();
        let got = sink.got.borrow();
        assert_eq!(got[0].0, 420);
        assert_eq!(got[1].0, 740, "second waits for first's serialization");
    }

    #[test]
    fn strict_priority_preempts_between_packets() {
        let w = World::new();
        let (port, sink) = host_port(&w, 25.0);
        // Fill with low-prio, then a high-prio arrives: it should jump the
        // queue (but not the in-flight packet).
        port.enqueue(pkt(1000, 6), usize::MAX);
        port.enqueue(pkt(1000, 6), usize::MAX);
        port.enqueue(pkt(100, 0), usize::MAX);
        w.run();
        let got = sink.got.borrow();
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].1, 100, "high-prio served before second low-prio");
    }

    #[test]
    fn pause_blocks_only_that_priority() {
        let w = World::new();
        let (port, sink) = host_port(&w, 25.0);
        port.set_paused(3, true);
        port.enqueue(pkt(500, 3), usize::MAX);
        port.enqueue(pkt(500, 6), usize::MAX);
        w.run_for(Dur::micros(10));
        assert_eq!(sink.got.borrow().len(), 1, "only prio-6 flowed");
        port.set_paused(3, false);
        w.run();
        assert_eq!(sink.got.borrow().len(), 2);
    }

    #[test]
    fn full_queue_drops() {
        let w = World::new();
        let (port, _sink) = host_port(&w, 25.0);
        // Limit is 10_000 bytes.
        assert!(port.enqueue(pkt(6000, 3), usize::MAX));
        assert!(
            port.enqueue(pkt(6000, 3), usize::MAX),
            "first is in flight, queue has room"
        );
        // Now ~6000 queued (one transmitting); next 6000 would exceed.
        assert!(!port.enqueue(pkt(6000, 3), usize::MAX));
    }

    #[test]
    fn queue_bytes_tracks_occupancy() {
        let w = World::new();
        let (port, _sink) = host_port(&w, 25.0);
        port.enqueue(pkt(1000, 3), usize::MAX);
        port.enqueue(pkt(2000, 3), usize::MAX);
        // First packet started transmitting immediately (dequeued).
        assert_eq!(port.queue_bytes(3), 2000);
        w.run();
        assert_eq!(port.queue_bytes(3), 0);
        assert_eq!(port.total_queued(), 0);
    }
}
