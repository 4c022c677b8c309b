//! `paper` — run the experiments and write their results.
//!
//! ```text
//! paper [--out DIR] [--list] [all | NAME…]
//! ```
//!
//! Each experiment prints its paper-vs-measured table and writes
//! `DIR/<name>.json` (default: the workspace `results/`). `all` runs the
//! registry in order and names what it skips for a feature this build
//! lacks; `--list` prints the registry. Exit status: 0 when every
//! requested experiment ran and wrote its files, 1 on a write error, 2 on
//! a bad command line.

use std::path::PathBuf;
use std::process::ExitCode;

use xrdma_bench::experiments::{Entry, EXPERIMENTS};

fn list() {
    for (name, entry) in EXPERIMENTS {
        match entry {
            Entry::Run(_) => println!("{name}"),
            Entry::Needs(feature) => println!("{name} (needs --features {feature})"),
        }
    }
}

fn bad_usage(msg: &str) -> ExitCode {
    eprintln!("paper: {msg}\nusage: paper [--out DIR] [--list] [all | NAME...]\nexperiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    ExitCode::from(2)
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
                Some((_, Entry::Needs(feature))) => {
                    return bad_usage(&format!("{name} needs --features {feature}"))
                }
                Some(exp) => todo.push(exp),
                None => return bad_usage(&format!("unknown experiment `{name}`")),
            }
        }
    }

    for (name, entry) in todo {
        match entry {
            Entry::Run(run) => {
                if let Err(e) = run().write(&out) {
                    eprintln!("paper: {name}: cannot write into {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            }
            Entry::Needs(feature) => println!("skipped {name}: needs --features {feature}"),
        }
    }
    ExitCode::SUCCESS
}
