//! `paper` — run the experiments and write their results.
//!
//! ```text
//! paper [--out DIR] [--list] [all | NAME…]
//! ```
//!
//! Each experiment prints its paper-vs-measured table and writes
//! `DIR/<name>.json` (default: the workspace `results/`). `all` runs the
//! registry in order; `--list` prints the registry. Exit status: 0 when every
//! requested experiment ran and wrote its files, 1 on a write error, 2 on
//! a bad command line. After the experiments it prints one line with the
//! run's wall time and the process's peak resident set (`VmHWM`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use xrdma_bench::experiments::EXPERIMENTS;

fn list() {
    for (name, _) in EXPERIMENTS {
        println!("{name}");
    }
}

fn bad_usage(msg: &str) -> ExitCode {
    eprintln!("paper: {msg}\nusage: paper [--out DIR] [--list] [all | NAME...]\nexperiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    ExitCode::from(2)
}

/// `VmHWM` from `/proc/self/status` in MB, where /proc exists.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out = dir.into(),
                None => return bad_usage("--out needs a directory"),
            },
            "--list" => {
                list();
                return ExitCode::SUCCESS;
            }
            _ => names.push(arg),
        }
    }
    if names.is_empty() {
        return bad_usage("name the experiments to run, or `all`");
    }

    let mut todo = Vec::new();
    if names.iter().any(|n| n == "all") {
        todo.extend(EXPERIMENTS.iter());
    } else {
        for name in &names {
            match EXPERIMENTS.iter().find(|(n, _)| n == name) {
                Some(exp) => todo.push(exp),
                None => return bad_usage(&format!("unknown experiment `{name}`")),
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the `paper` wall line reports host time; no world reads it"
    )]
    let start = Instant::now();
    for (name, run) in todo {
        if let Err(e) = run().write(&out) {
            eprintln!("paper: {name}: cannot write into {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    let rss = peak_rss_mb().map_or("n/a".to_string(), |mb| format!("{mb:.0} MB"));
    println!(
        "paper: {:.1} s wall, peak RSS {rss} (VmHWM)",
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
