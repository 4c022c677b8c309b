//! Machine-readable output.
//!
//! `--format json` renders the full report as a deterministic, stably
//! sorted JSON document (no timestamps, no map iteration, fixed key
//! order), so `results/lint.json` is byte-identical across runs on the
//! same tree and can sit under the CI golden-diff gate.

use std::path::Path;

use crate::{AllowSite, FileReport};

/// Render the report as deterministic JSON.
pub fn render_json(report: &FileReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"summary\": {{\"errors\": {}, \"unused_allows\": {}, \"malformed_allows\": {}}},\n",
        report.violations.len(),
        report.unused_allows.len(),
        report.malformed_allows.len(),
    ));

    out.push_str("  \"diagnostics\": [");
    for (i, v) in report.violations.iter().enumerate() {
        push_sep(&mut out, i);
        out.push_str(&format!(
            "{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \
             \"message\": \"{}\"}}",
            v.rule.name(),
            escape(&display_path(&v.file)),
            v.line,
            escape(v.snippet.trim()),
            escape(&v.message),
        ));
    }
    out.push_str("],\n");

    // Stale allows surface as A1 diagnostics: an escape hatch that no
    // longer suppresses anything is itself a contract violation.
    out.push_str("  \"unused_allows\": [");
    for (i, u) in report.unused_allows.iter().enumerate() {
        push_sep(&mut out, i);
        out.push_str(&format!(
            "{{\"rule\": \"unused-allow\", \"file\": \"{}\", \"line\": {}, \"stale_rule\": \"{}\"}}",
            escape(&display_path(&u.file)),
            u.line,
            u.rule.name(),
        ));
    }
    out.push_str("],\n");

    out.push_str("  \"malformed_allows\": [");
    for (i, (file, line)) in report.malformed_allows.iter().enumerate() {
        push_sep(&mut out, i);
        out.push_str(&format!(
            "{{\"file\": \"{}\", \"line\": {}}}",
            escape(&display_path(file)),
            line
        ));
    }
    out.push_str("],\n");

    out.push_str("  \"allows\": [");
    let mut allows: Vec<&AllowSite> = report.allows.iter().collect();
    allows.sort_by_key(|a| (display_path(&a.file), a.line));
    for (i, a) in allows.iter().enumerate() {
        push_sep(&mut out, i);
        out.push_str(&format!(
            "{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            a.rule.name(),
            escape(&display_path(&a.file)),
            a.line,
            escape(&a.reason),
        ));
    }
    out.push_str("]\n}\n");
    out
}

fn push_sep(out: &mut String, i: usize) {
    if i == 0 {
        out.push_str("\n    ");
    } else {
        out.push_str(",\n    ");
    }
}

/// Paths rendered with forward slashes regardless of platform, so the
/// committed JSON is portable.
pub fn display_path(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
