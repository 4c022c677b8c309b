//! §VII-F "Avoid to use continuous physical memory": compare the three
//! RDMA-memory page modes — non-continuous (anonymous 4 KiB pages),
//! physically continuous, and huge pages.
//!
//! Paper claim: "the non-continuous mode has comparable performance and
//! less fragmentations" — continuous memory is cache-friendly but risks
//! out-of-memory / reclaim stalls on long-running fragmented hosts.

use crate::Report;
use xrdma_baselines::pingpong_xrdma;
use xrdma_core::XrdmaConfig;
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{PageKind, Rnic, RnicConfig};
use xrdma_sim::{SimRng, World};

fn cfg(kind: PageKind) -> XrdmaConfig {
    let mut c = XrdmaConfig::default();
    c.ibqp_alloc_type = kind;
    c
}

pub fn run() -> Report {
    // Registration cost per mode (host-side, from the NIC cost model).
    let world = World::new();
    let rng = SimRng::new(1);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let nic = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("n"));
    let mb4 = 4 * 1024 * 1024;
    // A long-running storage server: hundreds of MB already pinned; the
    // continuous hunt pays reclaim/compaction under that pressure.
    let pd = nic.alloc_pd();
    for _ in 0..128 {
        nic.reg_mr(
            &pd,
            mb4,
            xrdma_rnic::AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
    }
    let reg_anon = nic.reg_mr_cost(mb4, PageKind::Anonymous).as_micros_f64();
    let reg_cont = nic.reg_mr_cost(mb4, PageKind::Continuous).as_micros_f64();
    let reg_huge = nic.reg_mr_cost(mb4, PageKind::Huge).as_micros_f64();

    // Data-path latency per mode (4 KiB ping-pong through the middleware).
    let lat = |kind: PageKind| pingpong_xrdma("memmode", cfg(kind), 4096, 150, 9).mean_us();
    let lat_anon = lat(PageKind::Anonymous);
    let lat_cont = lat(PageKind::Continuous);
    let lat_huge = lat(PageKind::Huge);

    println!(
        "{:<14} {:>14} {:>16}",
        "mode", "reg(4MB) µs", "4KB pingpong µs"
    );
    for (name, reg, l) in [
        ("anonymous", reg_anon, lat_anon),
        ("continuous", reg_cont, lat_cont),
        ("hugepage", reg_huge, lat_huge),
    ] {
        println!("{name:<14} {reg:>14.0} {l:>16.2}");
    }

    let spread = {
        let mx = lat_anon.max(lat_cont).max(lat_huge);
        let mn = lat_anon.min(lat_cont).min(lat_huge);
        mx / mn - 1.0
    };

    let mut rep = Report::new(
        "exp_memmode",
        "page modes: non-continuous vs continuous vs hugepage",
    );
    rep.row(
        "data-path latency spread across modes",
        "comparable performance",
        format!("{:.1}%", spread * 100.0),
        spread < 0.10,
    );
    rep.row(
        "continuous allocation cost on a fragmented host",
        "risky (reclaim / OOM pressure)",
        format!("{reg_cont:.0}µs vs {reg_anon:.0}µs anonymous (512MB pinned)"),
        reg_cont > reg_anon * 2.0,
    );
    rep.row(
        "hugepage translation entries",
        "fewest MPT/MTT entries",
        format!(
            "{} entries vs {} (4KB pages) per 4MB",
            mb4 / (2 * 1024 * 1024),
            mb4 / 4096
        ),
        true,
    );
    rep.row(
        "recommendation",
        "use non-continuous (default)",
        "PageKind::Anonymous is the default",
        matches!(XrdmaConfig::default().ibqp_alloc_type, PageKind::Anonymous),
    );
    rep
}
