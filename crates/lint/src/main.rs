//! CLI driver: `cargo run -p xrdma-lint -- [workspace-root] [options]`.
//!
//! Options:
//!
//! * `--format text|json` — output format (default `text`). JSON output
//!   is deterministic and stably sorted, suitable for committing
//!   (`results/lint.json`) under the CI golden-diff gate.
//! * `--out PATH` — write the report to a file (relative to the
//!   workspace root) instead of stdout; a one-line human summary still
//!   goes to stdout.
//!
//! Exit status: 0 when the workspace is clean — no diagnostics, zero
//! unused allows (A1), zero malformed annotations. 1 otherwise; 2 on
//! usage errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xrdma_lint::json;

struct Options {
    root: PathBuf,
    json_format: bool,
    out: Option<PathBuf>,
}

fn default_root() -> PathBuf {
    // crates/lint/../.. is the workspace root when run via `cargo run -p`.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        json_format: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json_format = true,
                Some("text") => opts.json_format = false,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("--out expects a path")?));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            root => opts.root = PathBuf::from(root),
        }
    }
    Ok(opts)
}

/// Resolve a possibly root-relative path.
fn under_root(root: &Path, p: &Path) -> PathBuf {
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        root.join(p)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xrdma-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.root.join("Cargo.toml").exists() {
        eprintln!(
            "xrdma-lint: no Cargo.toml at {} — pass the workspace root as the first argument",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let report = xrdma_lint::analyze_workspace(&opts.root);

    if opts.json_format {
        let doc = json::render_json(&report);
        match &opts.out {
            Some(out) => {
                let path = under_root(&opts.root, out);
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("xrdma-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            None => print!("{doc}"),
        }
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        for (file, line) in &report.malformed_allows {
            println!(
                "{}:{}: error [allow-syntax] malformed annotation; expected \
                 `// xrdma-lint: allow(<rule>) -- <reason>` with a non-empty reason",
                file.display(),
                line
            );
        }
        for u in &report.unused_allows {
            println!(
                "{}:{}: error [unused-allow] stale `allow({})` annotation suppresses \
                 nothing — delete it or re-justify it",
                u.file.display(),
                u.line,
                u.rule
            );
        }
    }

    let failures =
        report.violations.len() + report.malformed_allows.len() + report.unused_allows.len();
    let summary = format!(
        "xrdma-lint: {} finding{}, {} unused allow{}, {} malformed",
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
        report.unused_allows.len(),
        if report.unused_allows.len() == 1 {
            ""
        } else {
            "s"
        },
        report.malformed_allows.len(),
    );
    if !opts.json_format || opts.out.is_some() {
        println!("{summary}");
    } else {
        eprintln!("{summary}");
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
