//! `xrdma-lint` — source-level enforcement of the determinism contract
//! (DESIGN.md "Determinism contract"): the half that clippy cannot check.
//!
//! The whole reproduction rests on the discrete-event simulation being
//! deterministic: same seed, same CQE timings, same Figure-10 CNP/PFC
//! dynamics. The bans a type checker can express — D1 `wall-clock`, D2
//! `ambient-randomness`, D3 `nondeterministic-iter`, D4
//! `intra-world-parallelism` (`thread::spawn`) and T1
//! `raw-telemetry-emit` — are clippy lints, configured in the workspace
//! `clippy.toml` and proved live by `crates/core/src/contract.rs`. What
//! is left needs file roles, guards and cross-file writer sets, which no
//! clippy lint has. This crate is a std-only static-analysis pass (the
//! build environment is offline, so no syn/rustc plumbing) built on a
//! small token pipeline:
//!
//! * [`lexer`] — a minimal Rust lexer. Rules match [`lexer::Token`]s, so
//!   patterns inside string literals, doc comments and block comments can
//!   never fire (the PR-1 false-positive class is gone by construction).
//! * [`scope`] — brace-depth scope tracking with structural
//!   `#[cfg(...)]`-attribute attachment: per-token `test` /
//!   `faults_guarded` / `pub_fn` flags.
//! * [`symbols`] — a two-pass workspace symbol table (struct/enum fields,
//!   manual `impl Ord` blocks) shared by all rules, so cross-file
//!   questions ("does anything outside `Default` write this config
//!   field?") have answers.
//!
//! The rule families:
//!
//! * **D5 `unwrap-in-api`** — `unwrap()`/`expect()` on public API paths
//!   of `xrdma-core`/`xrdma-rnic` must become `XrdmaError`/`VerbsError`
//!   results (internal invariants go through `debug_invariants`).
//! * **F1 `ungated-fault-hook`** — every `xrdma_faults::` hook call (a
//!   function other than `active`) must sit structurally inside an
//!   `if xrdma_faults::active()` block.
//! * **P1 `hot-path-alloc`** — no per-packet heap allocation in the
//!   fabric/RNIC data-path files; payloads ride `bytes::Bytes` windows.
//! * **S2 `cross-shard-static`** — `static mut` and interior-mutable or
//!   lazily-initialized `static`s in sim crates: process-global state is
//!   shared by every
//!   world in the process, and `paper` runs worlds concurrently on rayon
//!   workers, so it races. (A `thread_local!` is fine: a world never
//!   leaves its thread.)
//! * **S3 `unordered-cross-shard-merge`** — event
//!   containers keyed on bare `Time`, and manual `impl Ord` blocks for
//!   `Time`-carrying entry types that never consult `seq`: event merges
//!   must order on `(Time, seq)` or same-instant events interleave
//!   nondeterministically.
//! * **U2 `unvaried-knob`** — a leaf field of a `pub struct *Config`
//!   that nothing but the struct's own `impl Default` ever sets is a
//!   constant posing as a knob: make it a named `pub const` in the module
//!   that reads it, or delete it with the branch it guards. Writers are
//!   read from every crate's `src/`, `tests/` and `benches/`, from
//!   `tests/`, `examples/` and from `benchmark/src` (read-only roots: no
//!   rule runs there).
//! * **A1 `unused-allow`** — an `xrdma-lint: allow(...)` annotation that
//!   no longer suppresses any diagnostic is itself a diagnostic; stale
//!   escape hatches rot into silent holes in the contract.
//!
//! Every finding fails the run, as do unused allows and malformed
//! annotations. The only escape hatch, for reviewed exceptions, is a
//! comment annotation — it must carry a reason:
//!
//! ```text
//! // xrdma-lint: allow(hot-path-alloc) -- one-time topology construction
//! ```
//!
//! placed either on the offending line or on the line directly above it.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod json;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod symbols;

pub use rules::HOT_PATH_FILES;

use lexer::{CommentLine, Lexed, Token};
use scope::Flags;
use symbols::Symbols;

/// The contract rules clippy cannot check: determinism (D), faults (F),
/// performance (P), shard-safety (S), surface (U), and annotation
/// hygiene (A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// D5: unwrap/expect on public API paths.
    UnwrapInApi,
    /// F1: a fault-injection hook call (`xrdma_faults::f` for any function
    /// `f` but `active`) outside an `if xrdma_faults::active()` block,
    /// which would make every run pay for the hook's spec lookup, injector
    /// or not, and skew benchmark numbers.
    UngatedFaultHook,
    /// P1: a heap allocation (`Box::new`, `vec![`, `.to_vec()`,
    /// `Bytes::from`, or `.clone()` of a payload buffer) in one of the
    /// per-packet hot files of the fabric/RNIC data path.
    HotPathAlloc,
    /// S2: `static mut`, or an interior-mutable or lazily-initialized
    /// `static`, in a sim crate — state shared by every world in the
    /// process.
    CrossShardStatic,
    /// S3: event insertion keyed on bare `Time` (no `seq` tie-break) —
    /// event merges become nondeterministic at equal timestamps.
    UnorderedMerge,
    /// U2: a leaf field of a `pub struct *Config` with no writer outside
    /// the struct's own `impl Default`. Workspace-level; computed from
    /// the symbol table's writer sets.
    UnvariedKnob,
    /// A1: an `xrdma-lint: allow(...)` annotation that suppresses
    /// nothing. Reported via `FileReport::unused_allows`; the variant
    /// exists so the rule has a name and fixture coverage.
    UnusedAllow,
}

impl Rule {
    /// The annotation name, as written in `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapInApi => "unwrap-in-api",
            Rule::UngatedFaultHook => "ungated-fault-hook",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::CrossShardStatic => "cross-shard-static",
            Rule::UnorderedMerge => "unordered-cross-shard-merge",
            Rule::UnvariedKnob => "unvaried-knob",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }

    pub const ALL: [Rule; 7] = [
        Rule::UnwrapInApi,
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
        Rule::UnvariedKnob,
        Rule::UnusedAllow,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: Rule,
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub snippet: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message,
            self.snippet.trim()
        )
    }
}

/// An allow annotation that matched no violation (stale escape hatch,
/// rule A1).
#[derive(Clone, Debug)]
pub struct UnusedAllow {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
}

/// An allow annotation that *did* suppress a finding: the reviewed
/// exceptions, reported in the JSON output with their reasons.
#[derive(Clone, Debug)]
pub struct AllowSite {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub reason: String,
}

/// Which rules apply to a crate, derived from its role in the system.
#[derive(Clone, Copy, Debug)]
pub struct RuleSet {
    pub rules: &'static [Rule],
}

impl RuleSet {
    pub fn contains(&self, rule: Rule) -> bool {
        self.rules.contains(&rule)
    }
}

/// Simulation crates: every fault hook is gated (F1), nothing in a world
/// is process-global or merges events on bare `Time` (S2–S3), and the
/// configs they declare carry only knobs something varies (U2).
pub const SIM_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::UngatedFaultHook,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
        Rule::UnvariedKnob,
    ],
};

/// `xrdma-core` additionally exposes the public verbs and middleware API,
/// where panicking on caller input is a contract bug (D5). The
/// send/completion path (`channel.rs` via `HOT_PATH_FILES`) also carries
/// P1: the doorbell-coalescing fast path must not allocate per WR.
/// `xrdma-rnic` is both a public API surface and the other half of the
/// per-packet data path, so it shares this set.
pub const API_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::UnwrapInApi,
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
        Rule::UnvariedKnob,
    ],
};

/// `xrdma-fabric` carries the per-packet data path: the simulation rules
/// plus P1, which keeps the zero-copy payload contract from regressing.
pub const FABRIC_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
        Rule::UnvariedKnob,
    ],
};

/// Crates the pass walks, with their rule sets (the crate's `src/` tree).
pub fn workspace_targets() -> Vec<(&'static str, RuleSet)> {
    vec![
        ("crates/sim", SIM_RULES),
        ("crates/fabric", FABRIC_RULES),
        ("crates/core", API_RULES),
        ("crates/rnic", API_RULES),
        // The layers above the middleware also run inside worlds; they get
        // the simulation rules (not D5 — they are experiment drivers, not
        // a public API).
        ("crates/apps", SIM_RULES),
        ("crates/analysis", SIM_RULES),
        ("crates/baselines", SIM_RULES),
        // Neither calls itself through the `xrdma_faults` path, so F1 is
        // vacuous in these two but harmless.
        ("crates/telemetry", SIM_RULES),
        ("crates/faults", SIM_RULES),
    ]
}

/// Read-only roots U2 takes config writers from, beyond the scanned
/// targets: every crate's `src/` (when not a target), `tests/` and
/// `benches/`, the workspace `tests/` and `examples/`, and the separate
/// `benchmark/` workspace's `src/`. No rule runs on these files; lint
/// fixtures (`fixtures/` directories) are data and are never read.
pub fn writer_roots(root: &Path) -> Vec<PathBuf> {
    let scanned: Vec<PathBuf> = workspace_targets()
        .into_iter()
        .map(|(rel, _)| root.join(rel).join("src"))
        .collect();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|it| it.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    crates
        .iter()
        .flat_map(|c| ["src", "tests", "benches"].map(|d| c.join(d)))
        .chain(["tests", "examples", "benchmark/src"].map(|d| root.join(d)))
        .filter(|d| d.is_dir() && !scanned.contains(d))
        .collect()
}

// ---------------------------------------------------------------------------
// Delimiter matching shared by scope/symbols/rules
// ---------------------------------------------------------------------------

/// Index of the token matching the opening delimiter at `open`;
/// `tokens.len()` when unbalanced.
pub(crate) fn scope_match_delim(
    tokens: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> usize {
    scope::match_delim(tokens, open, open_c, close_c)
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn scope_match_brace(tokens: &[Token], open: usize) -> usize {
    scope::match_delim(tokens, open, '{', '}')
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Result of analyzing one source file (or, via [`analyze_workspace`],
/// the whole tree).
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub unused_allows: Vec<UnusedAllow>,
    pub malformed_allows: Vec<(PathBuf, usize)>,
    /// Allow annotations that suppressed at least one finding.
    pub allows: Vec<AllowSite>,
}

impl FileReport {
    fn empty() -> FileReport {
        FileReport {
            violations: Vec::new(),
            unused_allows: Vec::new(),
            malformed_allows: Vec::new(),
            allows: Vec::new(),
        }
    }
}

/// Parse `xrdma-lint: allow(rule) -- reason` annotations out of the
/// comment stream. Returns `(line, rule, reason)` triples plus the lines
/// of malformed annotations (unknown rule, missing reason, bad syntax).
fn parse_allows(comments: &[CommentLine]) -> (Vec<(usize, Rule, String)>, Vec<usize>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("xrdma-lint:") else {
            continue;
        };
        let rest = c.text[pos + "xrdma-lint:".len()..].trim_start();
        let line = c.line as usize;
        let Some(args) = rest.strip_prefix("allow(") else {
            malformed.push(line);
            continue;
        };
        let Some(end) = args.find(')') else {
            malformed.push(line);
            continue;
        };
        let name = args[..end].trim();
        let tail = args[end + 1..].trim_start();
        let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        match (Rule::from_name(name), !reason.is_empty()) {
            (Some(rule), true) => allows.push((line, rule, reason.to_string())),
            _ => malformed.push(line),
        }
    }
    (allows, malformed)
}

/// Analyze a lexed file under a rule set, with a (possibly
/// workspace-wide) symbol table.
fn analyze_tokens(
    file: &Path,
    lexed: &Lexed,
    flags: &[Flags],
    rules: RuleSet,
    symbols: &Symbols,
) -> FileReport {
    let ctx = rules::FileCtx {
        file,
        tokens: &lexed.tokens,
        flags,
        raw_lines: &lexed.raw_lines,
    };
    let mut raw_violations = Vec::new();
    rules::check_file(&ctx, rules.rules, &mut raw_violations);

    let snippet = |line: usize| lexed.raw_lines.get(line - 1).cloned().unwrap_or_default();

    // Workspace-level rules, attributed to the declaring file so each
    // finding is emitted exactly once.
    if rules.contains(Rule::UnvariedKnob) {
        for k in symbols.unvaried_knobs() {
            if k.file != file {
                continue;
            }
            raw_violations.push(Violation {
                rule: Rule::UnvariedKnob,
                file: file.to_path_buf(),
                line: k.line as usize,
                snippet: snippet(k.line as usize),
                message: format!(
                    "config field `{}.{}` has no writer outside `impl Default for {}`; \
                     make it a named `pub const` in the module that reads it, or delete \
                     it with the branch it guards",
                    k.ty, k.field, k.ty
                ),
            });
        }
    }
    if rules.contains(Rule::UnorderedMerge) {
        for io in symbols.unordered_event_ords() {
            if io.file != file {
                continue;
            }
            raw_violations.push(Violation {
                rule: Rule::UnorderedMerge,
                file: file.to_path_buf(),
                line: io.line as usize,
                snippet: snippet(io.line as usize),
                message: format!(
                    "manual `impl Ord for {}` orders a `Time`-carrying event type \
                     without consulting `seq`; same-instant events would merge in \
                     arbitrary order — order by `(Time, seq)`",
                    io.ty
                ),
            });
        }
    }

    // Apply allow annotations: an allow on line N suppresses matching
    // violations on N (trailing comment) and N+1 (comment-above).
    let (allow_sites, malformed) = parse_allows(&lexed.comments);
    let mut used = vec![false; allow_sites.len()];
    raw_violations.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    let violations: Vec<Violation> = raw_violations
        .into_iter()
        .filter(|v| {
            for (ai, (aline, arule, _)) in allow_sites.iter().enumerate() {
                if *arule == v.rule && (v.line == *aline || v.line == *aline + 1) {
                    used[ai] = true;
                    return false;
                }
            }
            true
        })
        .collect();

    let mut unused_allows = Vec::new();
    let mut allows = Vec::new();
    for ((line, rule, reason), used) in allow_sites.into_iter().zip(used) {
        if used {
            allows.push(AllowSite {
                file: file.to_path_buf(),
                line,
                rule,
                reason,
            });
        } else {
            unused_allows.push(UnusedAllow {
                file: file.to_path_buf(),
                line,
                rule,
            });
        }
    }

    FileReport {
        violations,
        unused_allows,
        malformed_allows: malformed
            .into_iter()
            .map(|l| (file.to_path_buf(), l))
            .collect(),
        allows,
    }
}

/// Analyze one file's source text under a rule set. The symbol table is
/// built from this file alone, so workspace-level rules (S1, the
/// `impl Ord` half of S3, U2) see only local definitions and writers —
/// which is exactly what the fixture self-tests exercise.
pub fn analyze_source(file: &Path, source: &str, rules: RuleSet) -> FileReport {
    let lexed = lexer::lex(source);
    let flags = scope::scopes(&lexed.tokens);
    let mut symbols = Symbols::default();
    symbols.absorb(file, &lexed.tokens, &flags);
    symbols.absorb_writers(&lexed.tokens);
    analyze_tokens(file, &lexed, &flags, rules, &symbols)
}

/// Recursively collect `.rs` files under `dir`.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        // Deterministic walk order — the lint practices what it preaches.
        children.sort();
        for path in children {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Walk the workspace at `root` in two passes: absorb every target
/// file's items (and the [`writer_roots`]' config writers) into one
/// symbol table, then run all rules per file with the workspace-wide
/// table. Violations come back stably sorted by
/// `(file, line, rule, message)`.
pub fn analyze_workspace(root: &Path) -> FileReport {
    struct Prepared {
        display: PathBuf,
        lexed: Lexed,
        flags: Vec<Flags>,
        rules: RuleSet,
    }

    let mut symbols = Symbols::default();
    let mut prepared: Vec<Prepared> = Vec::new();
    for (rel, rules) in workspace_targets() {
        for file in rust_files(&root.join(rel).join("src")) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let display = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let lexed = lexer::lex(&text);
            let flags = scope::scopes(&lexed.tokens);
            symbols.absorb(&display, &lexed.tokens, &flags);
            symbols.absorb_writers(&lexed.tokens);
            prepared.push(Prepared {
                display,
                lexed,
                flags,
                rules,
            });
        }
    }

    for dir in writer_roots(root) {
        for file in rust_files(&dir) {
            if file.components().any(|c| c.as_os_str() == "fixtures") {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(&file) {
                symbols.absorb_writers(&lexer::lex(&text).tokens);
            }
        }
    }

    let mut report = FileReport::empty();
    for p in &prepared {
        let mut r = analyze_tokens(&p.display, &p.lexed, &p.flags, p.rules, &symbols);
        report.violations.append(&mut r.violations);
        report.unused_allows.append(&mut r.unused_allows);
        report.malformed_allows.append(&mut r.malformed_allows);
        report.allows.append(&mut r.allows);
    }
    report.violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule.name(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.name(),
            &b.message,
        ))
    });
    report
        .unused_allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.malformed_allows.sort();
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, rules: RuleSet) -> Vec<Violation> {
        analyze_source(Path::new("test.rs"), src, rules).violations
    }

    /// Whole-token matching over the lexer's stream: comments, strings,
    /// doc comments and longer identifiers never match a rule pattern.
    #[test]
    fn tokens_ignore_comments_strings_and_longer_idents() {
        assert!(run("// xrdma_faults::note() once the window stalls", SIM_RULES).is_empty());
        assert!(run("let m = \"xrdma_faults::note()\";", SIM_RULES).is_empty());
        assert!(run("fn f() { xrdma_faults_shim::note(); }", SIM_RULES).is_empty());
        assert!(run("/* block xrdma_faults::note() comment */", SIM_RULES).is_empty());
        assert!(run("/// doc: xrdma_faults::note() is gated", SIM_RULES).is_empty());
        assert_eq!(run("fn f() { xrdma_faults::note(); }", SIM_RULES).len(), 1);
    }

    #[test]
    fn allow_annotation_suppresses_and_keeps_its_reason() {
        let src = "fn f() {\n\
                   // xrdma-lint: allow(ungated-fault-hook) -- probe outside any world\n\
                   xrdma_faults::note();\n\
                   }";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.unused_allows.is_empty());
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].reason, "probe outside any world");
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "// xrdma-lint: allow(ungated-fault-hook)\nfn f() {}";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert_eq!(report.malformed_allows.len(), 1);
    }

    #[test]
    fn unused_allow_reported() {
        let src = "// xrdma-lint: allow(cross-shard-static) -- no longer needed\nfn f() {}";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert_eq!(report.unused_allows.len(), 1);
    }

    #[test]
    fn s2_flags_static_mut() {
        let v = run("static mut COUNTER: u64 = 0;", SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CrossShardStatic);
        assert!(v[0].message.contains("`static COUNTER` (`mut`)"), "{v:?}");
    }

    #[test]
    fn determinism_rules_skip_test_modules() {
        let body = "static REGISTRY: Mutex<u32> = Mutex::new(0);\n\
                    fn t() { xrdma_faults::note(); }";
        assert_eq!(run(body, SIM_RULES).len(), 2);
        let src = format!("#[cfg(test)]\nmod tests {{\n{body}\n}}");
        assert!(run(&src, SIM_RULES).is_empty());
    }

    #[test]
    fn d5_catches_unwrap_in_pub_fn_only() {
        let src = "pub fn api(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
                   fn internal(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
                   pub(crate) fn semi(x: Option<u32>) -> u32 {\n    x.unwrap()\n}";
        let v = run(src, API_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnwrapInApi);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn d5_skips_test_modules() {
        let src =
            "#[cfg(test)]\nmod tests {\n    pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n}";
        assert!(run(src, API_RULES).is_empty());
    }

    #[test]
    fn d5_not_applied_under_sim_rules() {
        let src = "pub fn api(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn f1_catches_ungated_fault_hook() {
        let v = run(
            "fn f(p: &Port) { if xrdma_faults::port_drop(&p.label) { return; } }",
            SIM_RULES,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UngatedFaultHook);
    }

    #[test]
    fn f1_accepts_gated_block_and_statement() {
        let src = "fn f(p: &Port) {\n\
                   let mut limit = 0;\n\
                   if xrdma_faults::active() {\n\
                       if xrdma_faults::port_drop(&p.label) {\n\
                           xrdma_faults::note();\n\
                           return;\n\
                       }\n\
                       limit = xrdma_faults::port_limit(&p.label).unwrap_or(limit);\n\
                   }\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    /// Types are not hooks: fields, signatures and `use`s may name them
    /// anywhere.
    #[test]
    fn f1_accepts_gated_fn_and_field() {
        let src = "use xrdma_faults::{active, plan::FaultSpec, NodeCmd};\n\
                   struct S {\n\
                   paused: RefCell<Vec<xrdma_faults::NodeCmd>>,\n\
                   other: u32,\n\
                   }\n\
                   fn cmd(c: xrdma_faults::NodeCmd) {\n\
                       use xrdma_faults::NodeCmd;\n\
                       drop(c);\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn f1_gate_survives_commas_in_the_item_head() {
        let src = "fn f() {\n\
                   if xrdma_faults::active() && ready(a, b) {\n\
                       match xrdma_faults::rnic_connect_fault(a.0, b.0) {\n\
                           None => {}\n\
                           Some(xrdma_faults::ConnectFault::Blackhole) => { go(); }\n\
                       }\n\
                   }\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    /// Brackets in the condition hide their contents: a closure body (with
    /// its own block, `;` and `||`) neither opens nor voids the guard.
    #[test]
    fn f1_guard_condition_may_hold_closures() {
        let src = "fn f(v: &[i32]) {\n\
                   if xrdma_faults::active() && v.iter().any(|x| { let y = *x; y > 0 || y < -1 }) {\n\
                       xrdma_faults::note();\n\
                   }\n\
                   xrdma_faults::note();\n\
                   }";
        let v = run(src, SIM_RULES);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [5], "{v:?}");
    }

    #[test]
    fn f1_gate_ends_with_its_region() {
        let src = "fn f() {\n\
                   if xrdma_faults::active() {\n\
                       xrdma_faults::note();\n\
                   } else {\n\
                       xrdma_faults::note();\n\
                   }\n\
                   xrdma_faults::note();\n\
                   }";
        let v = run(src, SIM_RULES);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [5, 7], "{v:?}");
    }

    /// Only the `xrdma_faults::active()` guard counts: a cfg gate,
    /// another crate's `active()`, an imported hook name, and a guard
    /// that a top-level `||` can bypass are all findings (the positive
    /// fixture carries the cfg case).
    #[test]
    fn f1_other_cfg_gates_do_not_count() {
        let src = "#[cfg(test_only)]\n\
                   fn f() { xrdma_faults::note(); }\n\
                   fn g() { if hub::active() { xrdma_faults::note(); } }\n\
                   use xrdma_faults::{FaultKind, port_drop};\n\
                   fn h(c: bool) { if xrdma_faults::active() || c { xrdma_faults::note(); } }\n\
                   fn k(c: bool) { if xrdma_faults::active() && c || c { xrdma_faults::note(); } }";
        let v = run(src, SIM_RULES);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 3, 4, 5, 6], "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::UngatedFaultHook));
        assert!(v[2].message.contains("xrdma_faults::port_drop"), "{v:?}");
    }

    #[test]
    fn p1_catches_alloc_in_hot_file() {
        let src = "fn deliver(pkt: Packet) { let b = pkt.data.to_vec(); sink(b); }";
        let v =
            analyze_source(Path::new("crates/fabric/src/port.rs"), src, FABRIC_RULES).violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HotPathAlloc);

        let v = analyze_source(
            Path::new("crates/rnic/src/engine.rs"),
            "fn seg() { let body = Box::new(TokenedBth { token: 0 }); }",
            API_RULES,
        )
        .violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HotPathAlloc);
    }

    #[test]
    fn p1_catches_payload_clone_but_not_handle_clone() {
        let src = "fn f(pkt: &Packet) { let d = pkt.payload.clone(); let p = port.clone(); }";
        let v =
            analyze_source(Path::new("crates/fabric/src/switch.rs"), src, FABRIC_RULES).violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("payload"), "{v:?}");
    }

    #[test]
    fn p1_ignores_non_hot_files() {
        let src = "fn build() { let v = vec![0u8; 64]; let b = Box::new(v); }";
        let v =
            analyze_source(Path::new("crates/fabric/src/stats.rs"), src, FABRIC_RULES).violations;
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn p1_suppressed_by_allow_annotation() {
        let src = "fn build() {\n\
                   // xrdma-lint: allow(hot-path-alloc) -- one-time topology construction\n\
                   let ports = vec![Vec::new(); n];\n\
                   }";
        let report = analyze_source(Path::new("crates/fabric/src/fabric.rs"), src, FABRIC_RULES);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.unused_allows.is_empty());
    }

    #[test]
    fn p1_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let b = vec![0u8; 9].to_vec(); }\n}";
        let v =
            analyze_source(Path::new("crates/fabric/src/port.rs"), src, FABRIC_RULES).violations;
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_strings_and_char_literals_do_not_confuse() {
        let src = "fn f() { let s = r#\"xrdma_faults::note() \"quoted\"\"#; let c = '\"'; let l: &'static str = \"x\"; }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    // --- S-family -----------------------------------------------------

    #[test]
    fn s2_flags_mutable_and_lazy_statics_not_thread_locals() {
        let src =
            "thread_local! {\n    static CURRENT: RefCell<Option<Hub>> = RefCell::new(None);\n}\n\
                   static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
                   static HUB: LazyLock<Hub> = LazyLock::new(Hub::new);";
        let v = run(src, SIM_RULES);
        let s2: Vec<_> = v
            .iter()
            .filter(|v| v.rule == Rule::CrossShardStatic)
            .collect();
        assert_eq!(s2.len(), 2, "{v:?}");
        assert_eq!(s2[0].line, 4);
        assert_eq!(s2[1].line, 5);
    }

    #[test]
    fn s2_silent_on_const_statics() {
        let src = "static NAME: &str = \"xrdma\";\nstatic SIZES: [usize; 3] = [64, 512, 4096];";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn s3_flags_impl_ord_without_seq_tiebreak() {
        let src = "struct Key { at: Time, target: u32 }\n\
                   impl Ord for Key {\n\
                   fn cmp(&self, o: &Self) -> Ordering { self.at.cmp(&o.at) }\n\
                   }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnorderedMerge);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn s3_accepts_impl_ord_with_seq() {
        let src = "struct Key { at: Time, seq: u64 }\n\
                   impl Ord for Key {\n\
                   fn cmp(&self, o: &Self) -> Ordering {\n\
                   self.at.cmp(&o.at).then(self.seq.cmp(&o.seq))\n\
                   }\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn s3_flags_bare_time_heap_and_map_decls() {
        let src = "struct Q { heap: BinaryHeap<Reverse<Time>>, byt: BTreeMap<Time, Event> }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::UnorderedMerge));
    }

    #[test]
    fn s3_accepts_keyed_heaps() {
        let src = "struct Q { heap: BinaryHeap<Reverse<Key>>, byt: BTreeMap<Key, Event> }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn s_rules_respect_allow_annotations() {
        let src =
            "// xrdma-lint: allow(cross-shard-static) -- one registry per process by design\n\
                   static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows.len(), 1);
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    // --- json ----------------------------------------------------------

    #[test]
    fn json_output_is_deterministic_and_escaped() {
        let src = "fn f() { xrdma_faults::note(); } // path \"quote\"\n";
        let report = analyze_source(Path::new("crates/sim/src/a.rs"), src, SIM_RULES);
        let a = json::render_json(&report);
        let b = json::render_json(&report);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quote\\\""), "{a}");
        assert!(a.contains("\"errors\": 1,"), "{a}");
    }
}
