//! `xrdma-lint` — source-level enforcement of the determinism contract
//! (DESIGN.md "Determinism contract").
//!
//! The whole reproduction rests on the discrete-event simulation being
//! deterministic: same seed, same CQE timings, same Figure-10 CNP/PFC
//! dynamics. Nothing in the type system enforces that — a stray
//! `Instant::now()`, an unseeded `thread_rng()`, or one iteration over a
//! `HashMap` in an event-scheduling path silently destroys
//! reproducibility. This crate is a std-only static-analysis pass (the
//! build environment is offline, so no syn/rustc plumbing) built on a
//! small token pipeline:
//!
//! * [`lexer`] — a minimal Rust lexer. Rules match [`lexer::Token`]s, so
//!   patterns inside string literals, doc comments and block comments can
//!   never fire (the PR-1 false-positive class is gone by construction).
//! * [`scope`] — brace-depth scope tracking with structural
//!   `#[cfg(...)]`-attribute attachment: per-token `test` /
//!   `faults_gated` / `pub_fn` flags.
//! * [`symbols`] — a two-pass workspace symbol table (struct/enum fields,
//!   type aliases, manual `impl Ord` blocks) shared by all rules, so
//!   cross-file questions ("is this field reachable from `World`?",
//!   "is this alias a `HashMap`?") have answers.
//!
//! The rule families:
//!
//! * **D1 `wall-clock`** — no `std::time::{Instant, SystemTime}` in the
//!   simulation crates; virtual time comes from `World::now()` only.
//! * **D2 `ambient-randomness`** — no `rand::thread_rng` / `rand::random`;
//!   all randomness flows through `xrdma_sim::rng::SimRng` forks.
//! * **D3 `nondeterministic-iter`** — no order-dependent iteration over
//!   `HashMap`/`HashSet` (including through `type` aliases); use
//!   `BTreeMap`/`BTreeSet` or sort keys first.
//! * **D4 `intra-world-parallelism`** — no `thread::spawn` / `static mut`
//!   inside a world; parallelism in this project happens across worlds.
//! * **D5 `unwrap-in-api`** — `unwrap()`/`expect()` on public API paths
//!   of `xrdma-core`/`xrdma-rnic` must become `XrdmaError`/`VerbsError`
//!   results (internal invariants go through `debug_invariants`).
//! * **T1 `raw-telemetry-emit`** — telemetry goes through the `tele!` and
//!   `span_*!` macros; direct `emit_raw`/`span_*_raw` calls defeat
//!   zero-overhead-when-off.
//! * **F1 `ungated-fault-hook`** — every `xrdma_faults::` hook must sit
//!   structurally under `#[cfg(feature = "faults")]`.
//! * **P1 `hot-path-alloc`** — no per-packet heap allocation in the
//!   fabric/RNIC data-path files; payloads ride `bytes::Bytes` windows.
//! * **S1 `non-send-shard-state`** — `Rc<_>` / `RefCell<_>` / `*mut`
//!   fields in types reachable from the shard roots (`World`, `*Lane`):
//!   lane state crosses worker-thread boundaries, so it must be `Send`.
//! * **S2 `cross-shard-static`** — mutable or
//!   lazily-initialized `static`s and `thread_local!` singletons in sim
//!   crates: per-thread or process-global state silently forks or races
//!   once one world's events execute on many worker threads.
//! * **S3 `unordered-cross-shard-merge`** — event
//!   containers keyed on bare `Time`, and manual `impl Ord` blocks for
//!   `Time`-carrying entry types that never consult `seq`: cross-shard
//!   merges must order on `(Time, seq)` or same-instant events interleave
//!   nondeterministically.
//! * **A1 `unused-allow`** — an `xrdma-lint: allow(...)` annotation that
//!   no longer suppresses any diagnostic is itself a diagnostic; stale
//!   escape hatches rot into silent holes in the contract.
//!
//! Every finding fails the run, as do unused allows and malformed
//! annotations. The only escape hatch, for reviewed exceptions, is a
//! comment annotation — it must carry a reason:
//!
//! ```text
//! // xrdma-lint: allow(nondeterministic-iter) -- lookup-only map, never iterated for scheduling
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

/// The contract rules: determinism (D), telemetry (T), faults (F),
/// performance (P), shard-safety (S), and annotation hygiene (A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// D1: wall-clock time sources in simulation crates.
    WallClock,
    /// D2: ambient (unseeded, order-dependent) randomness.
    AmbientRandomness,
    /// D3: order-dependent iteration over hash containers.
    NondeterministicIter,
    /// D4: threads or mutable globals inside a world.
    IntraWorldParallelism,
    /// D5: unwrap/expect on public API paths.
    UnwrapInApi,
    /// T1: telemetry emitted around the `tele!`/`span_*!` macros (direct
    /// `emit_raw` or `span_open_raw`/`span_mark_raw`/`span_hop_raw`/
    /// `span_end_raw` calls), which would defeat the
    /// zero-overhead-when-off contract.
    RawTelemetry,
    /// F1: a fault-injection hook (`xrdma_faults::...`) not under
    /// `#[cfg(feature = "faults")]`, which would leave injection code in
    /// production builds and skew benchmark numbers.
    UngatedFaultHook,
    /// P1: a heap allocation (`Box::new`, `vec![`, `.to_vec()`,
    /// `Bytes::from`, or `.clone()` of a payload buffer) in one of the
    /// per-packet hot files of the fabric/RNIC data path.
    HotPathAlloc,
    /// S1: `Rc<_>` / `RefCell<_>` / `*mut` in a type reachable from a
    /// shard root (`World`, `*Lane`) — cannot cross a rayon shard
    /// boundary. Workspace-level; computed from the symbol table.
    NonSendShardState,
    /// S2: mutable or lazily-initialized `static` (or `thread_local!`)
    /// in a sim crate — cross-shard shared state.
    CrossShardStatic,
    /// S3: event insertion keyed on bare `Time` (no `seq` tie-break) —
    /// cross-shard merges become nondeterministic at equal timestamps.
    UnorderedMerge,
    /// A1: an `xrdma-lint: allow(...)` annotation that suppresses
    /// nothing. Reported via `FileReport::unused_allows`; the variant
    /// exists so the rule has a name and fixture coverage.
    UnusedAllow,
}

impl Rule {
    /// The annotation name, as written in `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRandomness => "ambient-randomness",
            Rule::NondeterministicIter => "nondeterministic-iter",
            Rule::IntraWorldParallelism => "intra-world-parallelism",
            Rule::UnwrapInApi => "unwrap-in-api",
            Rule::RawTelemetry => "raw-telemetry-emit",
            Rule::UngatedFaultHook => "ungated-fault-hook",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::NonSendShardState => "non-send-shard-state",
            Rule::CrossShardStatic => "cross-shard-static",
            Rule::UnorderedMerge => "unordered-cross-shard-merge",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }

    pub const ALL: [Rule; 12] = [
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
        Rule::IntraWorldParallelism,
        Rule::UnwrapInApi,
        Rule::RawTelemetry,
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
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

/// Simulation crates: everything that runs inside a `World` must be fully
/// deterministic (D1–D4) and shard-migratable (S1–S3).
pub const SIM_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
        Rule::IntraWorldParallelism,
        Rule::RawTelemetry,
        Rule::UngatedFaultHook,
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
    ],
};

/// `xrdma-core` additionally exposes the public verbs and middleware API,
/// where panicking on caller input is a contract bug (D5). The
/// send/completion path (`channel.rs` via `HOT_PATH_FILES`) also carries
/// P1: the doorbell-coalescing fast path must not allocate per WR.
pub const API_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
        Rule::IntraWorldParallelism,
        Rule::UnwrapInApi,
        Rule::RawTelemetry,
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
    ],
};

/// `xrdma-fabric` carries the per-packet data path: the simulation rules
/// plus P1, which keeps the zero-copy payload contract from regressing.
pub const FABRIC_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
        Rule::IntraWorldParallelism,
        Rule::RawTelemetry,
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
    ],
};

/// `xrdma-rnic` is both a public API surface (D5) and the other half of
/// the per-packet data path (P1).
pub const RNIC_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
        Rule::IntraWorldParallelism,
        Rule::UnwrapInApi,
        Rule::RawTelemetry,
        Rule::UngatedFaultHook,
        Rule::HotPathAlloc,
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
    ],
};

/// `xrdma-telemetry` itself defines `emit_raw` (it is the hub's delivery
/// path under the `tele!` macro), so T1 does not apply there; the
/// determinism and shard-safety rules still do.
pub const TELEMETRY_CRATE_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
        Rule::IntraWorldParallelism,
        Rule::NonSendShardState,
        Rule::CrossShardStatic,
        Rule::UnorderedMerge,
    ],
};

/// Integration tests and examples drive simulations whose digests are
/// golden-file checked, so the core determinism rules apply; they run
/// outside worlds, so the structural rules (D4, D5, P1, S-family) do not.
pub const TEST_RULES: RuleSet = RuleSet {
    rules: &[
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::NondeterministicIter,
    ],
};

/// Benches legitimately read wall-clock time (they measure it); ambient
/// randomness and hash-order iteration would still make runs
/// incomparable.
pub const BENCH_RULES: RuleSet = RuleSet {
    rules: &[Rule::AmbientRandomness, Rule::NondeterministicIter],
};

/// Crates the pass walks, with their rule sets (the crate's `src/` tree).
pub fn workspace_targets() -> Vec<(&'static str, RuleSet)> {
    vec![
        ("crates/sim", SIM_RULES),
        ("crates/fabric", FABRIC_RULES),
        ("crates/core", API_RULES),
        ("crates/rnic", RNIC_RULES),
        // The layers above the middleware also run inside worlds; they get
        // the determinism rules (not D5 — they are experiment drivers, not
        // a public API).
        ("crates/apps", SIM_RULES),
        ("crates/analysis", SIM_RULES),
        ("crates/baselines", SIM_RULES),
        ("crates/telemetry", TELEMETRY_CRATE_RULES),
        // The fault injector runs inside worlds too (its windows are
        // events); it never calls itself through the `xrdma_faults` path,
        // so F1 is vacuous there but harmless.
        ("crates/faults", SIM_RULES),
    ]
}

/// Additional scan roots outside crate `src/` trees: integration tests,
/// examples, and the bench harness (directories, relative to the
/// workspace root).
pub fn extra_targets() -> Vec<(&'static str, RuleSet)> {
    vec![
        ("tests", TEST_RULES),
        ("examples", TEST_RULES),
        ("crates/bench/src", BENCH_RULES),
    ]
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
    let ctx = rules::FileCtx::new(file, &lexed.tokens, flags, &lexed.raw_lines, symbols);
    let mut raw_violations = Vec::new();
    rules::check_file(&ctx, rules.rules, &mut raw_violations);

    let snippet = |line: usize| lexed.raw_lines.get(line - 1).cloned().unwrap_or_default();

    // Workspace-level rules, attributed to the declaring file so each
    // finding is emitted exactly once.
    if rules.contains(Rule::NonSendShardState) {
        for f in symbols.non_send_shard_fields() {
            if f.file != file {
                continue;
            }
            raw_violations.push(Violation {
                rule: Rule::NonSendShardState,
                file: file.to_path_buf(),
                line: f.line as usize,
                snippet: snippet(f.line as usize),
                message: format!(
                    "field `{}.{}: {}` contains `{}` and is reachable from shard root \
                     `{}`; this state cannot migrate to a rayon shard — refactor to \
                     owned/Send state before the sharded kernel lands",
                    f.ty, f.field, f.rendered, f.pattern, f.root
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
                     arbitrary order across shards — order by `(Time, seq)`",
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
/// `impl Ord` half of S3) see only local definitions — which is exactly
/// what the fixture self-tests exercise.
pub fn analyze_source(file: &Path, source: &str, rules: RuleSet) -> FileReport {
    let lexed = lexer::lex(source);
    let flags = scope::scopes(&lexed.tokens);
    let mut symbols = Symbols::default();
    symbols.absorb(file, &lexed.tokens, &flags);
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
/// file's items into one symbol table, then run all rules per file with
/// the workspace-wide table. Violations come back stably sorted by
/// `(file, line, rule, message)`.
pub fn analyze_workspace(root: &Path) -> FileReport {
    struct Prepared {
        display: PathBuf,
        lexed: Lexed,
        flags: Vec<Flags>,
        rules: RuleSet,
    }

    let mut targets: Vec<(PathBuf, RuleSet)> = workspace_targets()
        .into_iter()
        .map(|(rel, rs)| (root.join(rel).join("src"), rs))
        .collect();
    targets.extend(
        extra_targets()
            .into_iter()
            .map(|(rel, rs)| (root.join(rel), rs)),
    );

    let mut symbols = Symbols::default();
    let mut prepared: Vec<Prepared> = Vec::new();
    for (dir, rules) in targets {
        for file in rust_files(&dir) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let display = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let lexed = lexer::lex(&text);
            let flags = scope::scopes(&lexed.tokens);
            symbols.absorb(&display, &lexed.tokens, &flags);
            prepared.push(Prepared {
                display,
                lexed,
                flags,
                rules,
            });
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

    #[test]
    fn d1_catches_instant_now() {
        let v = run("fn f() { let t = Instant::now(); }", SIM_RULES);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::WallClock);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn d1_catches_use_and_qualified_paths() {
        assert_eq!(run("use std::time::Instant;", SIM_RULES).len(), 1);
        assert_eq!(
            run("let t = std::time::SystemTime::now();", SIM_RULES).len(),
            1
        );
    }

    #[test]
    fn d1_ignores_comments_strings_and_longer_idents() {
        assert!(run("// the Instant the window stalled", SIM_RULES).is_empty());
        assert!(run("let m = \"Instant::now\";", SIM_RULES).is_empty());
        assert!(run("struct InstantaneousRate;", SIM_RULES).is_empty());
        assert!(run("/* block Instant comment */", SIM_RULES).is_empty());
        assert!(run("/// doc: Instant::now() is banned", SIM_RULES).is_empty());
    }

    #[test]
    fn d2_catches_thread_rng() {
        let v = run("let x = rand::thread_rng().gen::<u64>();", SIM_RULES);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AmbientRandomness);
    }

    #[test]
    fn d3_catches_hashmap_iteration() {
        let src = "struct S { qps: RefCell<HashMap<u32, Qp>> }\n\
                   fn f(s: &S) { for qp in s.qps.borrow().values() { qp.reset(); } }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NondeterministicIter);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn d3_catches_for_loop_over_hashset() {
        let src = "fn f() { let congested = HashSet::new();\n\
                   for q in &congested { go(q); } }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn d3_ignores_lookups_and_btreemap() {
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   fn f(s: &S) { s.m.get(&1); s.m.insert(2, 3); s.m.contains_key(&4); }";
        assert!(run(src, SIM_RULES).is_empty());
        let src2 = "struct S { m: BTreeMap<u32, u64> }\n\
                    fn f(s: &S) { for v in s.m.values() { use_it(v); } }";
        assert!(run(src2, SIM_RULES).is_empty());
    }

    #[test]
    fn d3_sees_through_type_aliases() {
        let src = "type QpMap = HashMap<u32, Qp>;\n\
                   struct S { qps: QpMap }\n\
                   fn f(s: &S) { for qp in s.qps.values() { qp.reset(); } }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NondeterministicIter);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn t1_catches_direct_emit_raw() {
        let v = run(
            "fn f() { xrdma_telemetry::hub::emit_raw(EventKind::SeqDuplicate { seq }); }",
            SIM_RULES,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RawTelemetry);
    }

    #[test]
    fn t1_ignores_tele_macro_and_comments() {
        assert!(run("fn f() { tele!(SeqDuplicate { seq: 1 }); }", SIM_RULES).is_empty());
        assert!(run("// emit_raw is the hub's delivery path", SIM_RULES).is_empty());
        assert!(run("fn emit_raw_counts() {}", SIM_RULES).is_empty());
    }

    #[test]
    fn t1_not_applied_to_the_telemetry_crate_itself() {
        let src = "pub fn emit_raw(kind: EventKind) {}";
        assert!(run(src, TELEMETRY_CRATE_RULES).is_empty());
        assert_eq!(run(src, SIM_RULES).len(), 1);
    }

    #[test]
    fn t1_catches_raw_span_calls() {
        for call in [
            "xrdma_telemetry::hub::span_open_raw(0, 1, 2, 64)",
            "xrdma_telemetry::hub::span_mark_raw(tok, Stage::Rx)",
            "hub::span_hop_raw(tok, &label, t0)",
            "span_end_raw(tok, now)",
        ] {
            let v = run(&format!("fn f() {{ {call}; }}"), SIM_RULES);
            assert_eq!(v.len(), 1, "{call}: {v:?}");
            assert_eq!(v[0].rule, Rule::RawTelemetry);
        }
    }

    #[test]
    fn t1_ignores_span_macros_and_lookalikes() {
        assert!(run("fn f() { span_mark!(tok, Rx); }", SIM_RULES).is_empty());
        assert!(run("fn f() { span_end!(tok, now); }", SIM_RULES).is_empty());
        assert!(run("// span_open_raw is the hub's entry point", SIM_RULES).is_empty());
        assert!(run("fn span_open_raw_counts() {}", SIM_RULES).is_empty());
        // The telemetry crate defines the raw span entry points, like
        // `emit_raw`.
        assert!(run(
            "pub fn span_mark_raw(tok: SpanToken, stage: Stage) {}",
            TELEMETRY_CRATE_RULES
        )
        .is_empty());
    }

    #[test]
    fn d3_allow_annotation_suppresses() {
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   // xrdma-lint: allow(nondeterministic-iter) -- lookup cache, order-free sum\n\
                   fn f(s: &S) -> u64 { s.m.values().sum() }";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.unused_allows.is_empty());
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].reason, "lookup cache, order-free sum");
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "// xrdma-lint: allow(nondeterministic-iter)\nfn f() {}";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert_eq!(report.malformed_allows.len(), 1);
    }

    #[test]
    fn unused_allow_reported() {
        let src = "// xrdma-lint: allow(wall-clock) -- no longer needed\nfn f() {}";
        let report = analyze_source(Path::new("t.rs"), src, SIM_RULES);
        assert_eq!(report.unused_allows.len(), 1);
    }

    #[test]
    fn d4_catches_thread_spawn_and_static_mut() {
        assert_eq!(
            run("fn f() { std::thread::spawn(|| {}); }", SIM_RULES).len(),
            1
        );
        assert_eq!(run("static mut COUNTER: u64 = 0;", SIM_RULES).len(), 1);
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
    fn determinism_rules_skip_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let s = HashSet::new();\n        for x in s.iter() { go(x); }\n        let t = Instant::now();\n    }\n}";
        assert!(run(src, SIM_RULES).is_empty());
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
                   #[cfg(feature = \"faults\")]\n\
                   if xrdma_faults::port_drop(&p.label) {\n\
                       xrdma_faults::note();\n\
                       return;\n\
                   }\n\
                   #[cfg(feature = \"faults\")]\n\
                   let limit = xrdma_faults::port_limit(&p.label).unwrap_or(0);\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn f1_accepts_gated_fn_and_field() {
        let src = "struct S {\n\
                   #[cfg(feature = \"faults\")]\n\
                   paused: RefCell<Vec<xrdma_faults::NodeCmd>>,\n\
                   other: u32,\n\
                   }\n\
                   #[cfg(feature = \"faults\")]\n\
                   fn cmd(c: xrdma_faults::NodeCmd) {\n\
                       use xrdma_faults::NodeCmd;\n\
                       drop(c);\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn f1_gate_survives_commas_in_the_item_head() {
        let src = "fn f() {\n\
                   #[cfg(feature = \"faults\")]\n\
                   match xrdma_faults::rnic_connect_fault(a.0, b.0) {\n\
                       None => {}\n\
                       Some(xrdma_faults::ConnectFault::Blackhole) => { go(); }\n\
                   }\n\
                   }\n\
                   #[cfg(feature = \"faults\")]\n\
                   fn cmd(self: &Rc<Self>, c: xrdma_faults::NodeCmd) {\n\
                       use xrdma_faults::NodeCmd;\n\
                   }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn f1_gate_ends_with_its_region() {
        let src = "fn f() {\n\
                   #[cfg(feature = \"faults\")]\n\
                   {\n\
                       xrdma_faults::note();\n\
                   }\n\
                   xrdma_faults::note();\n\
                   }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn f1_other_cfg_gates_do_not_count() {
        let v = run(
            "#[cfg(feature = \"telemetry\")]\nfn f() { xrdma_faults::note(); }",
            SIM_RULES,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UngatedFaultHook);
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
            RNIC_RULES,
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
        let src = "fn f() { let s = r#\"Instant::now() \"quoted\"\"#; let c = '\"'; let l: &'static str = \"x\"; }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn planting_instant_in_fabric_like_source_fails() {
        // The acceptance criterion: an Instant::now() planted in a
        // simulation crate must produce a violation.
        let src = "use std::time::Instant;\npub fn now_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }";
        let v = run(src, SIM_RULES);
        assert!(v.iter().any(|v| v.rule == Rule::WallClock));
    }

    // --- S-family -----------------------------------------------------

    #[test]
    fn s1_flags_refcell_field_on_world() {
        let src = "pub struct World {\n    now: Cell<Time>,\n    calendar: RefCell<Calendar>,\n}\n\
                   struct Calendar { wheel: Vec<u32> }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NonSendShardState);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("RefCell<_>"), "{v:?}");
    }

    #[test]
    fn s1_follows_reachability_through_fields() {
        let src = "pub struct World { calendar: Calendar }\n\
                   struct Calendar { slot: Rc<Slot> }\n\
                   struct Slot { n: u64 }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("reachable from shard root `World`"));
    }

    #[test]
    fn s1_lane_structs_are_roots() {
        let src = "pub struct EventLane { q: RefCell<Vec<u8>> }";
        let v = run(src, SIM_RULES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NonSendShardState);
    }

    #[test]
    fn s1_silent_on_send_safe_state_and_unreachable_types() {
        // Cell<T: Copy> is fine to migrate (it is Send); RefCell in a type
        // not reachable from a root is someone else's problem.
        let src = "pub struct World { now: Cell<Time>, slots: Vec<Slot> }\n\
                   struct Slot { n: u64 }\n\
                   struct Detached { inner: RefCell<u32> }";
        assert!(run(src, SIM_RULES).is_empty());
    }

    #[test]
    fn s2_flags_thread_local_and_lazy_statics() {
        let src =
            "thread_local! {\n    static CURRENT: RefCell<Option<Hub>> = RefCell::new(None);\n}\n\
                   static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());";
        let v = run(src, SIM_RULES);
        let s2: Vec<_> = v
            .iter()
            .filter(|v| v.rule == Rule::CrossShardStatic)
            .collect();
        assert_eq!(s2.len(), 2, "{v:?}");
        assert_eq!(s2[0].line, 1);
        assert_eq!(s2[1].line, 4);
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
        let src = "pub struct World {\n\
                   // xrdma-lint: allow(non-send-shard-state) -- migrates in the shard PR\n\
                   calendar: RefCell<Calendar>,\n\
                   }\n\
                   struct Calendar { wheel: Vec<u32> }";
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
        let src = "fn f() { let t = Instant::now(); } // path \"quote\"\n";
        let report = analyze_source(Path::new("crates/sim/src/a.rs"), src, SIM_RULES);
        let a = json::render_json(&report);
        let b = json::render_json(&report);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quote\\\""), "{a}");
        assert!(a.contains("\"errors\": 1,"), "{a}");
    }
}
