//! Fixture self-tests for the lint engine, plus the workspace meta-test.
//!
//! Every rule has one positive and one negative fixture under
//! `tests/fixtures/<rule-name>/{pos,neg}.rs`. The fixtures are *data*
//! (read at test time, never compiled), so they can reference types that
//! don't exist and plant contract violations without tripping the
//! workspace's own build or lint runs.
//!
//! The meta-test at the bottom is the enforcement loop closing on
//! itself: the live workspace must be diagnostic-clean, with zero unused
//! allows — the same check `scripts/ci.sh` runs through the CLI.

use std::path::{Path, PathBuf};

use xrdma_lint::{
    analyze_source, analyze_workspace, json, FileReport, Rule, RuleSet, API_RULES, FABRIC_RULES,
    SIM_RULES,
};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The rule set and synthetic analysis path each rule's fixtures run
/// under. P1 only applies to hot-path file names, D5 only to API crates;
/// everything else runs as a sim-crate source.
fn harness(rule: Rule) -> (RuleSet, &'static str) {
    match rule {
        Rule::UnwrapInApi => (API_RULES, "crates/core/src/fixture.rs"),
        Rule::HotPathAlloc => (FABRIC_RULES, "crates/fabric/src/port.rs"),
        _ => (SIM_RULES, "crates/sim/src/fixture.rs"),
    }
}

fn run_fixture(rule: Rule, which: &str) -> FileReport {
    let (rules, path) = harness(rule);
    let src = fixture(&format!("{}/{which}.rs", rule.name()));
    analyze_source(Path::new(path), &src, rules)
}

#[test]
fn every_rule_fires_on_its_positive_fixture() {
    for rule in Rule::ALL {
        let report = run_fixture(rule, "pos");
        if rule == Rule::UnusedAllow {
            assert!(
                !report.unused_allows.is_empty(),
                "{}: positive fixture produced no unused-allow finding",
                rule.name()
            );
        } else {
            assert!(
                report.violations.iter().any(|v| v.rule == rule),
                "{}: positive fixture produced no {} finding: {:?}",
                rule.name(),
                rule.name(),
                report.violations
            );
        }
    }
}

#[test]
fn every_rule_is_silent_on_its_negative_fixture() {
    for rule in Rule::ALL {
        let report = run_fixture(rule, "neg");
        assert!(
            report.violations.is_empty(),
            "{}: negative fixture produced findings: {:?}",
            rule.name(),
            report.violations
        );
        assert!(
            report.unused_allows.is_empty(),
            "{}: negative fixture produced unused allows: {:?}",
            rule.name(),
            report.unused_allows
        );
        assert!(
            report.malformed_allows.is_empty(),
            "{}: negative fixture produced malformed allows: {:?}",
            rule.name(),
            report.malformed_allows
        );
    }
}

/// Live-fire regression for the S-family on lane roots (PR 8): each
/// shard-safety rule has a second fixture pair built around a
/// deliberately non-Send `EventLane` — Rc/RefCell/raw-pointer fields,
/// thread-local lane singletons, a bare-`Time` mailbox heap — and must
/// fire on it (and stay silent on the Send-contract-honoring twin).
/// These fixtures are the only sanctioned place the S-rules see a
/// violation at all.
#[test]
fn s_family_fires_on_non_send_lane_fixtures() {
    for rule in [
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
    ] {
        let pos = run_fixture(rule, "lane_pos");
        assert!(
            pos.violations.iter().any(|v| v.rule == rule),
            "{}: lane-positive fixture produced no {} finding: {:?}",
            rule.name(),
            rule.name(),
            pos.violations
        );
        let neg = run_fixture(rule, "lane_neg");
        assert!(
            neg.violations.is_empty(),
            "{}: lane-negative fixture produced findings: {:?}",
            rule.name(),
            neg.violations
        );
        assert!(
            neg.unused_allows.is_empty() && neg.malformed_allows.is_empty(),
            "{}: lane-negative fixture produced allow noise",
            rule.name()
        );
    }
}

/// The S1 lane-positive fixture fires on *every* poisoned field shape —
/// the Rc, the aliased RefCell, and the raw pointer — not just one of
/// them; a matcher regression that silently drops a shape would
/// otherwise stay green.
#[test]
fn s1_lane_fixture_flags_all_three_field_shapes() {
    let report = run_fixture(Rule::NonSendShardState, "lane_pos");
    let s1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::NonSendShardState)
        .collect();
    assert!(
        s1.len() >= 3,
        "expected Rc + aliased RefCell + raw pointer findings, got {s1:#?}"
    );
}

/// Satellite regression: patterns inside string literals, doc comments,
/// and (nested) block comments never fire — the PR-1 false-positive
/// class. Run under the fabric hot-path harness so even the P1 patterns
/// are armed.
#[test]
fn stripping_regressions_stay_silent() {
    for file in ["strings.rs", "doc_comments.rs", "block_comments.rs"] {
        let src = fixture(&format!("stripping/{file}"));
        let report = analyze_source(Path::new("crates/fabric/src/port.rs"), &src, FABRIC_RULES);
        assert!(
            report.violations.is_empty(),
            "stripping/{file}: {:?}",
            report.violations
        );
        assert!(
            report.unused_allows.is_empty() && report.malformed_allows.is_empty(),
            "stripping/{file}: annotation text inside a literal was parsed as an allow"
        );
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

/// The live workspace is clean: zero diagnostics, zero unused allows,
/// zero malformed annotations.
#[test]
fn live_workspace_is_clean() {
    let report = analyze_workspace(&workspace_root());
    assert!(
        report.violations.is_empty(),
        "diagnostics: {:#?}",
        report.violations
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allow annotations (A1): {:?}",
        report.unused_allows
    );
    assert!(
        report.malformed_allows.is_empty(),
        "malformed allow annotations: {:?}",
        report.malformed_allows
    );
}

/// Two full, independent analysis passes render byte-identical JSON —
/// the property that lets `results/lint.json` sit under the CI
/// golden-diff gate.
#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = json::render_json(&analyze_workspace(&root));
    let b = json::render_json(&analyze_workspace(&root));
    assert_eq!(a, b);
}
