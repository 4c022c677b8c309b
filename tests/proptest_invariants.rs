//! Property-based tests over the core data structures and protocol
//! invariants (DESIGN.md §6): the seq-ack window, the wire header, the
//! sparse memory backing, fragmentation arithmetic, ECMP bounds, and the
//! histogram.

use proptest::prelude::*;

use xrdma_core::proto::{Header, LargeDesc, MsgKind, TraceHdr};
use xrdma_core::seqack::{RxAccept, RxWindow, TxWindow};
use xrdma_fabric::ecmp_hash;
use xrdma_rnic::mem::MemTable;
use xrdma_rnic::{AccessFlags, PageKind, RnicConfig};
use xrdma_sim::stats::Histogram;

proptest! {
    /// The seq-ack pair never deadlocks, never delivers out of order or
    /// twice, and the sender window never exceeds its depth — under any
    /// interleaving of send / complete / ack actions.
    #[test]
    fn seqack_window_invariants(
        depth in 2u32..32,
        actions in proptest::collection::vec(0u8..4, 1..400),
    ) {
        let mut tx = TxWindow::new(depth);
        let mut rx = RxWindow::new(depth);
        // Messages sent but not yet "arrived" at the receiver.
        let mut wire: std::collections::VecDeque<u32> = Default::default();
        // Arrived but not yet completed (e.g. large reads in flight).
        let mut pending: Vec<u32> = Vec::new();
        let mut delivered: Vec<u32> = Vec::new();

        for a in actions {
            match a {
                // Sender: send if window open.
                0 => {
                    if tx.can_send() {
                        wire.push_back(tx.next_seq());
                    }
                }
                // Receiver: accept the next arrival.
                1 => {
                    if let Some(seq) = wire.pop_front() {
                        match rx.on_arrival(seq) {
                            RxAccept::Fresh => pending.push(seq),
                            RxAccept::Duplicate => prop_assert!(false, "no dups on a loss-free wire"),
                        }
                    }
                }
                // Receiver: complete a random pending message (out of order).
                2 => {
                    if !pending.is_empty() {
                        let i = pending.len() / 2;
                        let seq = pending.remove(i);
                        delivered.extend(rx.on_complete(seq));
                    }
                }
                // Ack flows back to the sender.
                _ => {
                    let ack = rx.take_ack();
                    let _ = tx.on_ack(ack).count();
                }
            }
            prop_assert!(tx.in_flight() < depth, "window bound");
        }
        // Deliveries are exactly 0,1,2,... in order.
        for (i, &seq) in delivered.iter().enumerate() {
            prop_assert_eq!(seq, i as u32, "in-order exactly-once delivery");
        }
        // Drain everything: no deadlock at quiescence.
        while let Some(seq) = wire.pop_front() {
            rx.on_arrival(seq);
            pending.push(seq);
        }
        pending.sort_unstable();
        for seq in pending.drain(..) {
            delivered.extend(rx.on_complete(seq));
        }
        let _ = tx.on_ack(rx.take_ack()).count();
        prop_assert_eq!(tx.in_flight(), 0, "all acked at quiescence");
    }

    /// Header encode/decode is a bijection over its field space.
    #[test]
    fn header_roundtrip(
        kind in 0u8..6,
        seq in any::<u32>(),
        ack in any::<u32>(),
        rpc in any::<u32>(),
        len in any::<u64>(),
        large in proptest::option::of((any::<u64>(), any::<u32>())),
        trace in proptest::option::of((any::<u64>(), any::<u64>())),
    ) {
        let kind = match kind {
            0 => MsgKind::Request,
            1 => MsgKind::Response,
            2 => MsgKind::OneWay,
            3 => MsgKind::Ack,
            4 => MsgKind::Nop,
            _ => MsgKind::Close,
        };
        let mut h = Header::new(kind, seq, ack, rpc, len);
        h.large = large.map(|(addr, rkey)| LargeDesc { addr, rkey });
        h.trace = trace.map(|(t1_ns, trace_id)| TraceHdr { t1_ns, trace_id });
        let enc = h.encode();
        let (dec, used) = Header::decode(&enc).expect("decode");
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(dec, h);
    }

    /// Decoding arbitrary bytes never panics, and never "succeeds" on
    /// garbage without the magic byte.
    #[test]
    fn header_decode_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Some((_, used)) = Header::decode(&data) {
            prop_assert!(data[0] == 0xA7);
            prop_assert!(used <= data.len());
        }
    }

    /// Sparse MR backing behaves exactly like a flat byte array plus a
    /// written-bitmap under any sequence of writes (anywhere, or placed
    /// right after / right before / into the tail of the previous one — the
    /// adjacency the memcache bump allocator produces), reads, presence
    /// queries and atomics; zero-length writes, reads and queries included.
    #[test]
    fn sparse_memory_matches_reference(
        ops in proptest::collection::vec(
            (0u8..10, 0u8..4, 0u64..1024, proptest::collection::vec(any::<u8>(), 0..96), any::<u64>()),
            1..80
        ),
    ) {
        const LEN: u64 = 1024;
        let table = MemTable::new(0);
        let pd = table.alloc_pd();
        let mr = table.reg_mr(&pd, LEN, AccessFlags::FULL, PageKind::Anonymous, true, false);
        let mut flat = vec![0u8; LEN as usize];
        let mut written = vec![false; LEN as usize];
        let mut last = (0u64, 0u64); // [start, end) of the previous write
        for (kind, place, off, data, word) in &ops {
            let n = data.len() as u64;
            let cell = (*off).min(LEN - 8) as usize;
            let current = u64::from_le_bytes(flat[cell..cell + 8].try_into().unwrap());
            match kind {
                0..=4 => {
                    let at = match place {
                        0 => *off,
                        1 => last.1,
                        2 => last.0.saturating_sub(n),
                        _ => last.0 + off % (last.1 - last.0).max(1),
                    }
                    .min(LEN - n);
                    mr.write(mr.addr + at, data).unwrap();
                    flat[at as usize..(at + n) as usize].copy_from_slice(data);
                    written[at as usize..(at + n) as usize].fill(true);
                    last = (at, at + n);
                }
                5 | 6 => {
                    let len = (word % 200).min(LEN - off);
                    let got = mr.read(mr.addr + off, len).unwrap();
                    prop_assert_eq!(&got[..], &flat[*off as usize..(off + len) as usize]);
                    let mut into = vec![0xEEu8; len as usize];
                    mr.read_into(mr.addr + off, &mut into).unwrap();
                    prop_assert_eq!(into, got);
                }
                7 => {
                    let len = (word % 65).min(LEN - off);
                    let any = written[*off as usize..(off + len) as usize].contains(&true);
                    prop_assert_eq!(mr.has_data_in(mr.addr + off, len), any);
                }
                8 => {
                    prop_assert_eq!(mr.fetch_add(mr.addr + cell as u64, *word).unwrap(), current);
                    flat[cell..cell + 8].copy_from_slice(&current.wrapping_add(*word).to_le_bytes());
                    written[cell..cell + 8].fill(true);
                }
                _ => {
                    // Half the swaps expect the current value and land.
                    let expect = if word & 1 == 0 { current } else { !current };
                    prop_assert_eq!(mr.compare_swap(mr.addr + cell as u64, expect, *word).unwrap(), current);
                    if expect == current {
                        flat[cell..cell + 8].copy_from_slice(&word.to_le_bytes());
                        written[cell..cell + 8].fill(true);
                    }
                }
            }
            let stored = written.iter().filter(|&&w| w).count() as u64;
            prop_assert_eq!(mr.stored_bytes(), stored, "only written bytes are stored");
        }
        prop_assert_eq!(mr.read(mr.addr, LEN).unwrap(), flat);
    }

    /// Segmentation covers the message exactly with no gap or overlap.
    #[test]
    fn fragmentation_partitions_message(len in 0u64..10_000_000, mtu in 256u32..65536) {
        let mut cfg = RnicConfig::default();
        cfg.mtu = mtu;
        let nsegs = cfg.segments(len);
        if len == 0 {
            prop_assert_eq!(nsegs, 1);
        } else {
            prop_assert_eq!(nsegs, len.div_ceil(mtu as u64));
            // Reconstruct the fragment sizes as the engine does.
            let mut covered = 0u64;
            for _ in 0..nsegs {
                let frag = (len - covered).min(mtu as u64);
                prop_assert!(frag > 0);
                covered += frag;
            }
            prop_assert_eq!(covered, len);
        }
    }

    /// ECMP hashing is always in bounds and deterministic.
    #[test]
    fn ecmp_bounds(flow in any::<u64>(), stage in any::<u64>(), n in 1usize..64) {
        let a = ecmp_hash(flow, stage, n);
        prop_assert!(a < n);
        prop_assert_eq!(a, ecmp_hash(flow, stage, n));
    }

    /// Histogram percentiles are monotone and bounded by min/max; the mean
    /// is exact.
    #[test]
    fn histogram_properties(values in proptest::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        let exact_mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - exact_mean).abs() < 1e-6);
        let mut last = 0;
        for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= last, "percentiles monotone");
            prop_assert!(v >= h.min() && v <= h.max());
            last = v;
        }
    }

    /// Bounded-window ack arithmetic survives arbitrary (even hostile) ack
    /// No ack regression: under any interleaving of sends and (valid or
    /// duplicate) acks, the sequences reported acked by `on_ack` come out
    /// exactly once, in strictly increasing order — the cumulative edge
    /// never steps backward and never re-announces a sequence.
    #[test]
    fn tx_window_no_ack_regression(
        depth in 2u32..64,
        acks in proptest::collection::vec((any::<u32>(), 0u32..8), 1..200),
    ) {
        let mut tx = TxWindow::new(depth);
        let mut next_expected_acked: u64 = 0;
        let mut issued: u64 = 0;
        for (raw_ack, sends) in acks {
            for _ in 0..sends {
                if tx.can_send() {
                    tx.next_seq();
                    issued += 1;
                }
            }
            // Mix hostile raw acks with the honest edge so progress happens.
            let ack = if raw_ack % 3 == 0 { raw_ack } else { issued as u32 };
            for seq in tx.on_ack(ack) {
                prop_assert_eq!(
                    seq,
                    next_expected_acked as u32,
                    "acked sequences must be consecutive, no regression/repeat"
                );
                next_expected_acked += 1;
            }
            prop_assert!(next_expected_acked <= issued, "never acks the unsent");
        }
    }

    /// No sequence reuse: `next_seq` never hands out a number that is
    /// still in flight — a slot is recycled only after the cumulative ack
    /// has covered its previous occupant.
    #[test]
    fn tx_window_no_seq_reuse(
        depth in 2u32..32,
        steps in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut tx = TxWindow::new(depth);
        let mut outstanding = std::collections::HashSet::new();
        for send in steps {
            if send {
                if tx.can_send() {
                    let s = tx.next_seq();
                    prop_assert!(outstanding.insert(s), "sequence {} reused while in flight", s);
                }
            } else if let Some(oldest) = tx.oldest_unacked() {
                for seq in tx.on_ack(oldest.wrapping_add(1)) {
                    prop_assert!(outstanding.remove(&seq), "acked a seq never sent");
                }
            }
            prop_assert!(outstanding.len() < depth as usize, "window bound");
        }
    }

    /// values without over-advancing.
    #[test]
    fn tx_window_hostile_acks(depth in 2u32..64, acks in proptest::collection::vec(any::<u32>(), 1..100)) {
        let mut tx = TxWindow::new(depth);
        let mut sent = 0u64;
        let mut acked = 0u64;
        for ack in acks {
            while tx.can_send() {
                tx.next_seq();
                sent += 1;
            }
            acked += tx.on_ack(ack).count() as u64;
            prop_assert!(acked <= sent, "never acks the unsent");
            prop_assert!(tx.in_flight() < depth);
        }
    }
}

/// Full-stack liveness under arbitrary (bounded) fault plans: for any
/// generated mix of drop, duplicate and reorder windows that stays below
/// the go-back-N retry budget, every accepted request eventually completes
/// or its channel closes with a typed reason — no silent loss, no hang.
/// A plan without drops loses nothing, so it must complete every request
/// and leave the channel open: duplicates and reorders only delay.
mod fault_plan_liveness {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use proptest::prelude::*;
    use xrdma_core::channel::CloseReason;
    use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
    use xrdma_fabric::{Fabric, FabricConfig, NodeId};
    use xrdma_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget};
    use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
    use xrdma_sim::{Dur, SimRng, World};

    const EDGES: [&str; 4] = ["host0->tor0", "host1->tor0", "tor0->host0", "tor0->host1"];

    /// (kind selector, at ms, dur ms, probability %, target selector).
    /// Probabilities cap at 30% and windows at 20 ms — far below the
    /// default retry budget (64 ms timeout × 7 retries), so the protocol
    /// is *supposed* to win every time.
    fn spec_strategy() -> impl Strategy<Value = (u8, u64, u64, u32, u8)> {
        (0u8..3, 18u64..40, 2u64..20, 1u32..30, 0u8..4)
    }

    fn build_spec(sel: (u8, u64, u64, u32, u8)) -> FaultSpec {
        let (kind_sel, at_ms, dur_ms, prob_pct, tgt_sel) = sel;
        let prob = prob_pct as f64 / 100.0;
        let (target, kind) = match kind_sel {
            // Drops live on fabric edges.
            0 => (
                FaultTarget::Edge(EDGES[tgt_sel as usize].to_string()),
                FaultKind::Drop { prob },
            ),
            // Duplicates and reorders live on the receiving RNIC.
            1 => (
                FaultTarget::Node(tgt_sel as u32 % 2),
                FaultKind::Duplicate { prob },
            ),
            _ => (
                FaultTarget::Node(tgt_sel as u32 % 2),
                FaultKind::Reorder {
                    prob,
                    delay_ns: 2_000_000,
                },
            ),
        };
        FaultSpec {
            at_ns: at_ms * 1_000_000,
            dur_ns: Some(dur_ms * 1_000_000),
            target,
            kind,
        }
    }

    /// What became of the 16 requests one plan run sent.
    struct Outcome {
        accepted: u32,
        completed: u32,
        errored: u32,
        closed: bool,
        reason: Option<CloseReason>,
    }

    /// Build a client/server pair under `plan`, send 16 requests of
    /// `size` bytes at 20 ms and run one second of simulated time.
    fn run_plan(seed: u64, plan: FaultPlan, size: u64) -> Outcome {
        let world = World::new();
        let rng = SimRng::new(seed);
        let _guard = FaultInjector::install(&world, plan, rng.fork("faults"));
        let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
        let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
        let server = XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(0),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        );
        server.listen(7, |ch| {
            ch.set_on_request(|c, _m, t| {
                c.respond_size(t, 64).ok();
            });
        });
        let client = XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(1),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        );
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        client.connect(NodeId(0), 7, move |r| *s2.borrow_mut() = Some(r.unwrap()));
        world.run_for(Dur::millis(20));
        let ch = slot
            .borrow()
            .clone()
            .expect("established before faults open");

        let reason: Rc<Cell<Option<CloseReason>>> = Rc::new(Cell::new(None));
        let r2 = reason.clone();
        ch.set_on_close(move |r| r2.set(Some(r)));
        let completed = Rc::new(Cell::new(0u32));
        let errored = Rc::new(Cell::new(0u32));
        let mut accepted = 0u32;
        for _ in 0..16 {
            let (c2, e2) = (completed.clone(), errored.clone());
            if ch
                .send_request_size(size, move |_, msg| {
                    if msg.is_error() {
                        e2.set(e2.get() + 1);
                    } else {
                        c2.set(c2.get() + 1);
                    }
                })
                .is_ok()
            {
                accepted += 1;
            }
        }
        // The retry budget tops out around 64 ms × 7; a second of sim
        // time is quiescence for any plan this module builds.
        world.run_for(Dur::secs(1));
        Outcome {
            accepted,
            completed: completed.get(),
            errored: errored.get(),
            closed: ch.is_closed(),
            reason: reason.get(),
        }
    }

    proptest! {
        // Each case is a full-stack simulation (case count comes from the
        // vendored shim's PROPTEST_CASES, default 256).
        #[test]
        fn no_silent_loss_no_hang(
            seed in any::<u64>(),
            sels in proptest::collection::vec(spec_strategy(), 1..4),
        ) {
            let lossless = sels.iter().all(|sel| sel.0 != 0);
            let mut plan = FaultPlan::new();
            for sel in sels {
                plan = plan.with(build_spec(sel));
            }
            let o = run_plan(seed, plan, 1024);
            if lossless {
                prop_assert_eq!(o.completed, o.accepted, "a plan without drops completes everything");
                prop_assert!(!o.closed, "a plan without drops keeps the channel");
            }
            prop_assert_eq!(
                o.completed + o.errored,
                o.accepted,
                "every accepted request resolved (no silent loss, no hang)"
            );
            if o.errored > 0 {
                prop_assert!(o.closed, "error replies only come from teardown");
                prop_assert!(
                    o.reason.is_some(),
                    "a torn-down channel reports a typed close reason"
                );
            } else {
                prop_assert_eq!(o.completed, o.accepted);
            }
        }
    }

    /// Two overlapping CQE-delay windows, one per NIC, over rendezvous
    /// (large-path) requests. Completions raised after a window closes
    /// must not overtake the ones it still holds: a stalled RNIC releases
    /// its completions in the order it raised them. When they overtook,
    /// none of the 16 requests resolved and no error was raised.
    #[test]
    fn cqe_delay_windows_keep_rendezvous_live() {
        let window = |node: u32, dur_ms: u64| FaultSpec {
            at_ns: 19_000_000,
            dur_ns: Some(dur_ms * 1_000_000),
            target: FaultTarget::Node(node),
            kind: FaultKind::CqeDelay {
                delay_ns: 1_000_000,
            },
        };
        let plan = FaultPlan::new().with(window(1, 6)).with(window(0, 5));
        let o = run_plan(7, plan, 300_000);
        assert_eq!(o.accepted, 16);
        assert_eq!(
            o.completed, 16,
            "errored {}, closed {}",
            o.errored, o.closed
        );
        assert!(!o.closed);
    }

    /// Reordering alone on the client, whose NIC answers the server's
    /// rendezvous READs: a READ that overtakes the request ahead of it
    /// opens a gap, and the gap costs one SeqError NAK however many READs
    /// arrive behind it. When every out-of-order READ sent its own NAK,
    /// each charged the stalled request a retry: the client's QP failed
    /// with `RetryExceeded`, none of the 16 requests completed and the
    /// channel closed with `PeerDead`.
    #[test]
    fn reorder_only_plan_keeps_rendezvous_live() {
        let plan = FaultPlan::new().with(FaultSpec {
            at_ns: 19_000_000,
            dur_ns: Some(19_000_000),
            target: FaultTarget::Node(1),
            kind: FaultKind::Reorder {
                prob: 0.12,
                delay_ns: 2_000_000,
            },
        });
        let o = run_plan(9868, plan, 9000);
        assert_eq!(o.accepted, 16);
        assert_eq!(
            (o.completed, o.closed),
            (16, false),
            "errored {}, close reason {:?}",
            o.errored,
            o.reason
        );
    }
}

mod more_invariants {
    use proptest::prelude::*;
    use xrdma_apps::workload::{LoadSchedule, Phase};
    use xrdma_fabric::LINK_GBPS;
    use xrdma_rnic::dcqcn::{DcqcnRp, MIN_RATE_GBPS};
    use xrdma_sim::{Dur, Time};

    proptest! {
        /// DCQCN's reaction point stays within physical bounds under any
        /// interleaving of CNPs, byte progress and timer ticks.
        #[test]
        fn dcqcn_bounds(
            events in proptest::collection::vec((0u8..3, 1u64..1000), 1..400),
        ) {
            let mut rp = DcqcnRp::new();
            let mut t = Time::ZERO;
            for (kind, step) in events {
                t += Dur::micros(step);
                match kind {
                    0 => rp.on_cnp(t),
                    1 => rp.on_bytes_sent(t, step * 4096),
                    _ => rp.on_timer(t),
                }
                prop_assert!(rp.rate_gbps() >= MIN_RATE_GBPS - 1e-9);
                prop_assert!(rp.rate_gbps() <= LINK_GBPS + 1e-9);
                prop_assert!((0.0..=1.0).contains(&rp.alpha()));
            }
        }

        /// A cut then sustained quiet always recovers to (near) line rate.
        #[test]
        fn dcqcn_always_recovers(cnps in 1u32..20) {
            let mut rp = DcqcnRp::new();
            let mut t = Time::ZERO;
            for _ in 0..cnps {
                t += Dur::micros(55);
                rp.on_cnp(t);
            }
            for _ in 0..2000 {
                t += Dur::micros(55);
                rp.on_timer(t);
            }
            prop_assert!(
                rp.rate_gbps() > LINK_GBPS * 0.95,
                "recovered to {}",
                rp.rate_gbps()
            );
        }

        /// Load schedules are total functions: the multiplier is always a
        /// configured phase multiplier, and interval scaling is inverse.
        #[test]
        fn load_schedule_total(
            phases in proptest::collection::vec((1u64..5000, 1u32..50), 1..6),
            probes in proptest::collection::vec(any::<u64>(), 1..50),
        ) {
            let phase_list: Vec<Phase> = phases
                .iter()
                .map(|&(ms, mx)| Phase {
                    duration: Dur::millis(ms),
                    multiplier: mx as f64 / 10.0,
                })
                .collect();
            let allowed: Vec<f64> = phase_list.iter().map(|p| p.multiplier).collect();
            let s = LoadSchedule::new(phase_list);
            for p in probes {
                let m = s.multiplier_at(Time(p % (10 * s.cycle().as_nanos())));
                prop_assert!(allowed.iter().any(|&a| (a - m).abs() < 1e-12));
                let base = Dur::micros(100);
                let iv = s.interval_at(Time(p % s.cycle().as_nanos()), base);
                let expect = base.as_nanos() as f64 / m;
                prop_assert!((iv.as_nanos() as f64 - expect).abs() <= 1.0);
            }
        }
    }
}
