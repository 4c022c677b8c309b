//! An egress port: per-priority queues, strict-priority scheduling,
//! store-and-forward serialization, and PFC pause obedience.
//!
//! Every unidirectional link in the fabric is driven by the `Port` on its
//! sending side. Host NICs and switches both own ports; the only difference
//! is what happens on dequeue (switches release PFC ingress accounting)
//! and where arrivals go (the next switch or a host's `NicSink`).
//!
//! A port commits a packet's whole hop when it starts serializing it. The
//! departure `busy_until = now + ser` is known then, and so is the arrival
//! `busy_until + hop_delay` at the far end: propagation, plus the
//! forwarding delay when a switch is there. The packet goes onto the
//! port's wire FIFO (arrivals on one port are monotone) and one re-armable
//! `arrive` timer fires for the FIFO's head, so a hop is one event and no
//! allocation. The `wake` timer fires at the departure only when something
//! needs that instant:
//!
//! * a sendable packet is waiting to start;
//! * a drain hook is armed;
//! * an XOFF is outstanding at the owning switch, whose XON must land at
//!   exactly the departure that releases it.
//!
//! A switch-owned port holds the PFC release of its in-flight packet and
//! applies it at its next wake or start; the switch applies every due
//! release itself before it decides an XOFF (DESIGN.md §3.17).

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use xrdma_sim::{invariant, time::wire_time, Dur, Time, Timer, World};
use xrdma_telemetry::{span_hop, tele};

use crate::config::{PROP_DELAY, SWITCH_DELAY};
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

/// A queued packet plus the ingress index it entered the owning switch by
/// (usize::MAX for host-owned ports, which have no ingress accounting).
struct QEntry {
    pkt: Packet,
    ingress: usize,
}

/// The PFC release a switch-owned port owes its switch for the packet it
/// started last: `size` bytes of class `prio` that entered by `ingress`
/// leave the switch at `depart`.
#[derive(Clone, Copy)]
pub(crate) struct Release {
    pub(crate) depart: Time,
    pub(crate) ingress: usize,
    pub(crate) prio: u8,
    pub(crate) size: u32,
}

/// The switch owning a port, and that switch's count of outstanding
/// XOFFs (shared, so a start reads it without upgrading the switch).
struct Owner {
    sw: Weak<Switch>,
    xoffs: Rc<Cell<u32>>,
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
    /// Departure to arrival at the far end: `PROP_DELAY`, plus
    /// `SWITCH_DELAY` when the far end is a switch.
    hop_delay: Dur,
    /// Per-priority byte capacity; enqueue beyond it drops the packet.
    limit_bytes: u64,
    queues: RefCell<[VecDeque<QEntry>; NPRIO]>,
    queued_bytes: [Cell<u64>; NPRIO],
    /// Bit `p` set iff `queues[p]` is non-empty.
    nonempty: Cell<u8>,
    /// PFC pause state, bit per priority (set remotely by the downstream
    /// device).
    paused: Cell<u8>,
    /// Departure of the packet started last: the port may start another
    /// at or after this instant.
    busy_until: Cell<Time>,
    /// Packets on the cable, `(depart, packet)`, oldest first.
    wire: RefCell<VecDeque<(Time, Packet)>>,
    /// Fires at the arrival of the wire's head.
    arrive: Timer,
    /// Fires at `busy_until` when the departure instant matters.
    wake: Timer,
    /// The PFC release of the packet started last, until applied.
    release: Cell<Option<Release>>,
    /// The switch owning this port, if any.
    owner: OnceCell<Owner>,
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
    /// at a departure, the callback fires once (the NIC injector re-arms
    /// it each time it stops on a full port).
    drain_hook: RefCell<Option<(u64, Box<dyn Fn()>)>>,
}

// The pause and occupancy masks hold one bit per priority.
const _: () = assert!(NPRIO <= u8::BITS as usize);

impl Port {
    pub(crate) fn new(
        world: Rc<World>,
        label: String,
        rate_gbps: f64,
        limit_bytes: u64,
        dest: PortDest,
        stats: Rc<FabricStats>,
        host_owned: bool,
    ) -> Rc<Port> {
        let hop_delay = match dest {
            PortDest::Switch { .. } => PROP_DELAY + SWITCH_DELAY,
            PortDest::Host { .. } => PROP_DELAY,
        };
        Rc::new_cyclic(|me: &Weak<Port>| {
            // Weak: a timer slot must not pin the port (ports hold the
            // world, which owns the slot — a strong capture would cycle).
            let timer = |fire: fn(&Port)| {
                let me = me.clone();
                world.timer(move || {
                    if let Some(me) = me.upgrade() {
                        fire(&me);
                    }
                })
            };
            Port {
                arrive: timer(Port::on_arrive),
                wake: timer(Port::on_wake),
                world: world.clone(),
                label: label.into(),
                rate_gbps,
                ser_memo: Cell::new((0, Dur::ZERO)),
                hop_delay,
                limit_bytes,
                queues: RefCell::new(std::array::from_fn(|_| VecDeque::new())),
                queued_bytes: std::array::from_fn(|_| Cell::new(0)),
                nonempty: Cell::new(0),
                paused: Cell::new(0),
                busy_until: Cell::new(Time::ZERO),
                wire: RefCell::new(VecDeque::new()),
                release: Cell::new(None),
                owner: OnceCell::new(),
                dest,
                stats,
                host_owned,
                peer_sink: RefCell::new(None),
                drain_hook: RefCell::new(None),
            }
        })
    }

    pub(crate) fn set_owner(&self, sw: &Rc<Switch>, xoffs: Rc<Cell<u32>>) {
        let owner = Owner {
            sw: Rc::downgrade(sw),
            xoffs,
        };
        assert!(self.owner.set(owner).is_ok(), "{}: owned twice", self.label);
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

    /// Whether the given priority is PFC-paused right now.
    pub fn is_paused(&self, prio: u8) -> bool {
        self.paused.get() & (1 << prio) != 0
    }

    /// Priorities with a packet waiting and no pause, bit per priority.
    fn sendable(&self) -> u8 {
        self.nonempty.get() & !self.paused.get()
    }

    /// Enqueue a packet from the attached host NIC (no switch ingress
    /// accounting). Returns false (and counts a drop) on overflow.
    pub fn send(&self, pkt: Packet) -> bool {
        self.enqueue(pkt, usize::MAX)
    }

    /// Enqueue a packet for transmission. `ingress` is the owning switch's
    /// ingress index the packet arrived by (`usize::MAX` for host ports).
    /// Returns false (and counts a drop) if the priority queue is full.
    pub(crate) fn enqueue(&self, mut pkt: Packet, ingress: usize) -> bool {
        // Restamp the hop clock: each traversed port measures its own
        // queueing + serialization + flight in the packet's span.
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
    pub(crate) fn set_paused(&self, prio: u8, paused: bool) {
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

    /// Start the next sendable packet if the port is free; while it is
    /// still serializing, make sure it wakes at the departure to do so.
    fn kick(&self) {
        if self.wake.is_armed() {
            return; // the wake starts it
        }
        let busy_until = self.busy_until.get();
        if self.world.now() < busy_until {
            if self.sendable() != 0 {
                self.wake.arm_at(busy_until);
            }
            return;
        }
        self.start();
    }

    /// The port is free: apply the PFC release of the packet started
    /// last, then commit the next sendable packet's whole hop — its
    /// departure, its arrival at the far end, and a wake at the departure
    /// if anything needs that instant.
    fn start(&self) {
        self.apply_release();
        // Strict priority: lowest index served first.
        let sendable = self.sendable();
        if sendable == 0 {
            return;
        }
        let now = self.world.now();
        invariant!(
            now >= self.busy_until.get(),
            "port {} started at {now:?} while serializing until {:?}",
            self.label,
            self.busy_until.get()
        );
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
        invariant!(
            self.queued_bytes[prio].get() >= size,
            "port queue underflow: prio {} has {} bytes, dequeuing {}",
            prio,
            self.queued_bytes[prio].get(),
            size
        );
        self.queued_bytes[prio].set(self.queued_bytes[prio].get() - size);
        let ser = match self.ser_memo.get() {
            (memo_size, ser) if memo_size == size => ser,
            _ => {
                let ser = wire_time(size, self.rate_gbps);
                self.ser_memo.set((size, ser));
                ser
            }
        };
        let depart = now + ser;
        self.busy_until.set(depart);
        if entry.ingress != usize::MAX {
            self.release.set(Some(Release {
                depart,
                ingress: entry.ingress,
                prio: entry.pkt.prio,
                size: entry.pkt.size_bytes,
            }));
        }
        {
            let mut wire = self.wire.borrow_mut();
            if wire.is_empty() {
                self.arrive.arm_at(depart + self.hop_delay);
            }
            wire.push_back((depart, entry.pkt));
        }
        let xoff_pending = self.owner.get().is_some_and(|o| o.xoffs.get() > 0);
        if self.sendable() != 0 || xoff_pending || self.drain_hook.borrow().is_some() {
            self.wake.arm_at(depart);
        }
    }

    /// Hand the pending PFC release to the owning switch. Called only when
    /// the port is free, so the release is due.
    fn apply_release(&self) {
        let Some(release) = self.release.take() else {
            return;
        };
        if let Some(sw) = self.owner.get().and_then(|o| o.sw.upgrade()) {
            sw.release(release);
        }
    }

    /// The pending release, if its departure is at or before `now` (the
    /// switch applies it itself before deciding an XOFF).
    pub(crate) fn take_due_release(&self, now: Time) -> Option<Release> {
        match self.release.get() {
            Some(r) if r.depart <= now => self.release.take(),
            _ => None,
        }
    }

    /// Whether a release whose departure is at or before `now` is still
    /// pending (checker state).
    pub(crate) fn has_due_release(&self, now: Time) -> bool {
        self.release.get().is_some_and(|r| r.depart <= now)
    }

    /// An XOFF went out at the owning switch: wake at the in-flight
    /// packet's departure so its release, and any XON it allows, lands at
    /// exactly that instant.
    pub(crate) fn wake_at_departure(&self) {
        let busy_until = self.busy_until.get();
        if self.world.now() < busy_until && !self.wake.is_armed() {
            self.wake.arm_at(busy_until);
        }
    }

    /// Arm a one-shot drain notification: when total occupancy is below
    /// `threshold` at a departure, `cb` fires and the hook clears. Fires
    /// immediately if already below.
    pub fn arm_drain_hook(&self, threshold: u64, cb: impl Fn() + 'static) {
        if self.total_queued() < threshold {
            cb();
        } else {
            // xrdma-lint: allow(hot-path-alloc) -- armed once per drain wait, not per packet
            *self.drain_hook.borrow_mut() = Some((threshold, Box::new(cb)));
            self.wake_at_departure();
        }
    }

    /// The departure of the packet started last: apply its release, start
    /// the next one, and fire the drain hook if occupancy fell below its
    /// threshold.
    fn on_wake(&self) {
        self.start();
        // Check the drain hook last, after start() dequeued the next packet.
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

    /// The wire's head reaches the far end, `hop_delay` after its
    /// departure: close the packet's per-hop span and hand it to the next
    /// switch or the attached host.
    fn on_arrive(&self) {
        let (depart, pkt) = {
            let mut wire = self.wire.borrow_mut();
            let head = wire
                .pop_front()
                .expect("the arrive timer fires for a packet on the wire");
            if let Some(&(next, _)) = wire.front() {
                self.arrive.arm_at(next + self.hop_delay);
            }
            head
        };
        invariant!(
            self.world.now() == depart + self.hop_delay,
            "port {}: packet departed at {depart:?} arrived at {:?}, hop delay {:?}",
            self.label,
            self.world.now(),
            self.hop_delay
        );
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
        got: RefCell<Vec<(u64, u32, u8)>>, // (arrival ns, size, prio)
        world: Rc<World>,
    }
    impl NicSink for Collect {
        fn deliver(&self, pkt: Packet) {
            self.got
                .borrow_mut()
                .push((self.world.now().nanos(), pkt.size_bytes, pkt.prio));
        }
        fn pfc_pause(&self, _prio: u8, _paused: bool) {}
    }

    /// A 25 Gb/s port into a host: 1000 B serialize in 320 ns and land
    /// `PROP_DELAY` (250 ns) after their departure.
    fn host_port(world: &Rc<World>) -> (Rc<Port>, Rc<Collect>) {
        let stats = FabricStats::new();
        let port = Port::new(
            world.clone(),
            "test".into(),
            25.0,
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
        let (port, sink) = host_port(&w);
        port.enqueue(pkt(1000, 3), usize::MAX);
        w.run();
        assert_eq!(*sink.got.borrow(), vec![(320 + 250, 1000, 3)]);
        assert_eq!(w.events_executed(), 1, "an uncongested hop is one event");
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let w = World::new();
        let (port, sink) = host_port(&w);
        port.enqueue(pkt(1000, 3), usize::MAX);
        port.enqueue(pkt(1000, 3), usize::MAX);
        w.run();
        let got = sink.got.borrow();
        assert_eq!(got[0].0, 570);
        assert_eq!(got[1].0, 890, "second waits for first's serialization");
        // Two arrivals plus one wake, at 320, to start the second.
        assert_eq!(w.events_executed(), 3);
    }

    #[test]
    fn strict_priority_preempts_between_packets() {
        let w = World::new();
        let (port, sink) = host_port(&w);
        // Fill with low-prio, then a high-prio arrives: it jumps the
        // queue, but not the packet already serializing.
        port.enqueue(pkt(1000, 6), usize::MAX);
        port.enqueue(pkt(1000, 6), usize::MAX);
        port.enqueue(pkt(100, 0), usize::MAX);
        w.run();
        // 100 B serialize in 32 ns: 320 + 32 + 250, then 352 + 320 + 250.
        assert_eq!(
            *sink.got.borrow(),
            vec![(570, 1000, 6), (602, 100, 0), (922, 1000, 6)]
        );
    }

    #[test]
    fn pause_blocks_only_that_priority() {
        let w = World::new();
        let (port, sink) = host_port(&w);
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
    fn class_paused_mid_queue_resumes_at_the_unpause() {
        let w = World::new();
        let (port, sink) = host_port(&w);
        for _ in 0..3 {
            port.enqueue(pkt(1000, 3), usize::MAX);
        }
        // Paused while the first serializes: it still leaves at 320, the
        // other two wait for the resume at 1000.
        let p = port.clone();
        w.schedule_at(Time(100), move || p.set_paused(3, true));
        let p = port.clone();
        w.schedule_at(Time(1_000), move || p.set_paused(3, false));
        w.run();
        assert_eq!(
            *sink.got.borrow(),
            vec![(570, 1000, 3), (1_570, 1000, 3), (1_890, 1000, 3)]
        );
    }

    #[test]
    fn full_queue_drops() {
        let w = World::new();
        let (port, _sink) = host_port(&w);
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
        let (port, _sink) = host_port(&w);
        port.enqueue(pkt(1000, 3), usize::MAX);
        port.enqueue(pkt(2000, 3), usize::MAX);
        // First packet started transmitting immediately (dequeued).
        assert_eq!(port.queue_bytes(3), 2000);
        w.run();
        assert_eq!(port.queue_bytes(3), 0);
        assert_eq!(port.total_queued(), 0);
    }

    #[test]
    fn drain_hook_fires_at_the_departure_that_empties_the_queue() {
        let w = World::new();
        let (port, _sink) = host_port(&w);
        for _ in 0..3 {
            port.enqueue(pkt(1000, 3), usize::MAX);
        }
        let fired = Rc::new(Cell::new(None));
        let (f, weak) = (fired.clone(), Rc::downgrade(&w));
        port.arm_drain_hook(1000, move || {
            f.set(Some(weak.upgrade().expect("world alive").now().nanos()))
        });
        w.run();
        // 2000 B wait behind the first; the third starts at 640.
        assert_eq!(fired.get(), Some(640));
    }
}
