//! §VII-C / §III Issue 3: connection-establishment latencies.
//!
//! Paper numbers:
//! * isolated `rdma_cm` connect: 3946 µs fresh → 2451 µs with the QP
//!   cache (−38 %);
//! * 4096 connections: ~3 s with X-RDMA vs ~10 s with plain `rdma_cm`;
//! * TCP connect ≈ 100 µs vs RDMA ≈ 4 ms.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::scenarios::{ctx, net};
use crate::Report;
use xrdma_core::XrdmaConfig;
use xrdma_fabric::{FabricConfig, NodeId};
use xrdma_rnic::tcp::TcpStack;
use xrdma_sim::{Dur, Time};

/// Measure one isolated connect, fresh or via warm caches.
fn isolated_connect_us(warm: bool, seed: u64) -> f64 {
    let n = net(FabricConfig::pair(), seed);
    let mut cfg = XrdmaConfig::default();
    cfg.qp_cache = 8;
    let client = ctx(&n, 0, cfg.clone());
    let server = ctx(&n, 1, cfg);
    server.listen(7, |_| {});
    if warm {
        // Prime both QP caches and the resolution cache with a
        // connect/close cycle...
        let done: Rc<RefCell<Option<Rc<xrdma_core::XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let d = done.clone();
        client.connect(NodeId(1), 7, move |r| *d.borrow_mut() = Some(r.unwrap()));
        n.world.run_for(Dur::millis(20));
        done.borrow().as_ref().unwrap().close();
        n.world.run_for(Dur::millis(5));
        // ...but measure the *pure QP-cache* effect at the paper's
        // operating point (an isolated connect resolves from scratch).
        n.cm.forget_resolution();
    }
    let t0 = n.world.now();
    let t_done = Rc::new(Cell::new(Time::ZERO));
    let td = t_done.clone();
    let w = n.world.clone();
    client.connect(NodeId(1), 7, move |r| {
        r.expect("connect");
        td.set(w.now());
    });
    n.world.run_for(Dur::millis(50));
    t_done.get().since(t0).as_micros_f64()
}

/// Time a chain of `count` sequential connects from one node (the storm
/// regime: resolution cached after the first).
fn storm_secs(count: u32, warm: bool, seed: u64) -> f64 {
    let n = net(FabricConfig::rack(2), seed);
    let mut cfg = XrdmaConfig::default();
    cfg.qp_cache = count as usize + 8;
    let client = ctx(&n, 0, cfg.clone());
    let server = ctx(&n, 1, cfg);
    server.listen(7, |_| {});
    if warm {
        // Prime pools: open & close `count` channels first.
        let open: Rc<RefCell<Vec<Rc<xrdma_core::XrdmaChannel>>>> =
            Rc::new(RefCell::new(Vec::new()));
        fn chain(
            client: Rc<xrdma_core::XrdmaContext>,
            open: Rc<RefCell<Vec<Rc<xrdma_core::XrdmaChannel>>>>,
            left: u32,
        ) {
            if left == 0 {
                return;
            }
            let c2 = client.clone();
            let o2 = open.clone();
            client.connect(NodeId(1), 7, move |r| {
                if let Ok(ch) = r {
                    o2.borrow_mut().push(ch);
                }
                chain(c2, o2, left - 1);
            });
        }
        chain(client.clone(), open.clone(), count);
        n.world.run_for(Dur::secs(60));
        for ch in open.borrow().iter() {
            ch.close();
        }
        n.world.run_for(Dur::millis(50));
    }

    let t0 = n.world.now();
    let done = Rc::new(Cell::new(Time::ZERO));
    let remaining = Rc::new(Cell::new(count));
    fn chain2(
        client: Rc<xrdma_core::XrdmaContext>,
        remaining: Rc<Cell<u32>>,
        done: Rc<Cell<Time>>,
    ) {
        if remaining.get() == 0 {
            done.set(client.world().now());
            return;
        }
        remaining.set(remaining.get() - 1);
        let c2 = client.clone();
        client.connect(NodeId(1), 7, move |r| {
            r.expect("storm connect");
            chain2(c2.clone(), remaining, done);
        });
    }
    chain2(client, remaining, done.clone());
    n.world.run_for(Dur::secs(120));
    done.get().since(t0).as_secs_f64()
}

/// TCP connect latency.
fn tcp_connect_us(seed: u64) -> f64 {
    let n = net(FabricConfig::pair(), seed);
    let a = ctx(&n, 0, XrdmaConfig::default());
    let b = ctx(&n, 1, XrdmaConfig::default());
    let ta = TcpStack::new(&n.fabric, a.rnic());
    let tb = TcpStack::new(&n.fabric, b.rnic());
    tb.listen(9, |_| {});
    let t0 = n.world.now();
    let t_done = Rc::new(Cell::new(Time::ZERO));
    let td = t_done.clone();
    let w = n.world.clone();
    ta.connect(NodeId(1), 9, move |_| td.set(w.now()));
    n.world.run_for(Dur::millis(10));
    t_done.get().since(t0).as_micros_f64()
}

pub fn run() -> Report {
    let fresh = isolated_connect_us(false, 1);
    let reuse = isolated_connect_us(true, 1);
    let tcp = tcp_connect_us(1);
    // 512-connection storm (scaled from 4096 to keep the run snappy; the
    // per-connection cost is what matters).
    let count = 512;
    let warm_storm = storm_secs(count, true, 2);
    let cold_storm = storm_secs(count, false, 2);
    let scale = 4096.0 / count as f64;

    let mut rep = Report::new(
        "tab_establishment",
        "connection-establishment latency: isolated, storm, and TCP",
    );
    rep.row(
        "isolated fresh connect",
        "3946µs",
        format!("{fresh:.0}µs"),
        (3300.0..4700.0).contains(&fresh),
    );
    rep.row(
        "isolated connect with QP cache",
        "2451µs (-38%)",
        format!("{reuse:.0}µs ({:.0}%)", (reuse / fresh - 1.0) * 100.0),
        (2000.0..2950.0).contains(&reuse),
    );
    rep.row(
        "TCP connect",
        "~100µs",
        format!("{tcp:.0}µs"),
        (80.0..200.0).contains(&tcp),
    );
    rep.row(
        "4096-conn storm, X-RDMA (extrapolated)",
        "~3 s",
        format!(
            "{:.1} s ({count} conns took {warm_storm:.2}s)",
            warm_storm * scale
        ),
        (1.5..6.0).contains(&(warm_storm * scale)),
    );
    rep.row(
        "4096-conn storm, rdma_cm only (extrapolated)",
        "~10 s",
        format!(
            "{:.1} s ({count} conns took {cold_storm:.2}s)",
            cold_storm * scale
        ),
        (6.0..16.0).contains(&(cold_storm * scale)),
    );
    rep.row(
        "storm speedup from caches",
        "~3.3x",
        format!("{:.1}x", cold_storm / warm_storm),
        cold_storm / warm_storm > 2.0,
    );
    rep
}
