//! `xr-bench`: the repo's one benchmark. See `benchmark/README.md`.

pub mod child;
pub mod compare;
pub mod harness;
pub mod json;
pub mod ladder;
pub mod lane;
pub mod serial;
pub mod stats;
pub mod suite;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
    }
}

fn opts(args: &[String], default_seconds: f64) -> Result<suite::Opts, String> {
    let seconds: f64 = parsed(args, "--seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(suite::Opts {
        seed: parsed(args, "--seed", 42)?,
        seconds,
        out_dir: PathBuf::from(flag(args, "--out").unwrap_or("benchmark/out")),
    })
}

/// Entry point of both binaries.
pub fn cli() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args, process_start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xr-bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String], process_start: Instant) -> Result<i32, String> {
    let has = |name: &str| args.iter().any(|a| a == name);
    match args.first().map(String::as_str) {
        Some("child") => {
            let a = child::ChildArgs {
                workload: flag(args, "--workload")
                    .ok_or("child needs --workload")?
                    .to_string(),
                seed: parsed(args, "--seed", 42)?,
                span_ns: parsed(args, "--span-ns", 0)?,
                setup_only: has("--setup-only"),
                traced: has("--traced"),
                shards: parsed(args, "--shards", 1)?,
                trace_out: flag(args, "--trace-out").map(str::to_string),
            };
            println!("{}", child::run(&a, process_start)?);
            Ok(0)
        }
        Some("ladder") => {
            let rows = ladder::run(parsed(args, "--seed", 42)?, parsed(args, "--scale", 1.0)?);
            println!("{}", harness::metrics_json(&rows));
            Ok(0)
        }
        Some("run") => {
            let workload = flag(args, "--workload").ok_or("run needs --workload")?;
            let trace = match flag(args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad value `{other}` for --trace")),
            };
            suite::run_one(workload, trace, &opts(args, suite::FULL_SECONDS)?)
        }
        Some("suite") => {
            let quick = has("--quick");
            // `--quick`: every span and every ladder iteration count ÷ 20.
            let seconds = suite::FULL_SECONDS / if quick { 20.0 } else { 1.0 };
            suite::run_suite(&opts(args, seconds)?, quick)
        }
        Some("manifest") => {
            print!("{}", json::pretty(&suite::manifest()));
            Ok(0)
        }
        Some("compare") => match args {
            [_, a, b] => compare::run(a, b),
            _ => Err("usage: xr-bench compare <a.json> <b.json>".to_string()),
        },
        _ => Err(
            "usage: xr-bench run|suite|compare|manifest|child|ladder ... (see benchmark/README.md)"
                .to_string(),
        ),
    }
}
