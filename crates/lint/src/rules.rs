//! Token-level rule checks.
//!
//! Each check walks a file's token stream (with per-token [`Flags`] from
//! the scope pass and the workspace [`Symbols`] table) and emits
//! [`Violation`]s. Because matching is token-exact, none of the PR-1
//! false-positive classes survive: patterns inside string literals, doc
//! comments and block comments never tokenize as identifiers, and
//! identifier matches are whole-token (`InstantaneousRate` is not
//! `Instant`).

use std::path::Path;

use crate::lexer::{TokKind, Token};
use crate::scope::Flags;
use crate::symbols::Symbols;
use crate::{Rule, Violation};

/// Files carrying the per-packet or per-WR data path, where P1 applies.
/// Everything else in the fabric/RNIC/core crates (config, memory
/// registration, stats aggregation) allocates at setup or teardown time
/// and is exempt. `cq.rs` is the shared-CQ drain and `channel.rs` the
/// send/completion path of the middleware; `qpcache.rs` sits on the
/// connect path and `mux.rs` on the per-frame logical-channel path;
/// `mem.rs` and `memcache.rs` are the MR byte path every eager message is
/// staged through (the first touch of a fresh extent and the owning
/// `read` carry reviewed allows).
pub const HOT_PATH_FILES: &[&str] = &[
    "port.rs",
    "switch.rs",
    "fabric.rs",
    "engine.rs",
    "wire.rs",
    "cq.rs",
    "channel.rs",
    "qpcache.rs",
    "mux.rs",
    "mem.rs",
    "memcache.rs",
];

/// Identifiers that name payload byte buffers; `.clone()` on one of these
/// in a hot file duplicates packet data.
const PAYLOAD_IDENTS: &[&str] = &["data", "payload", "body", "bytes", "buf", "frag", "gather"];

/// Iteration-shaped methods whose order leaks into behavior.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "values",
    "values_mut",
    "keys",
    "drain",
    "retain",
    "into_iter",
];

/// Method-chain adapters skipped when resolving the base of a call chain.
const CHAIN_ADAPTERS: &[&str] = &["borrow", "borrow_mut", "lock", "as_ref", "as_mut"];

/// Interior-mutable / lazily-initialized wrappers that make a `static`
/// cross-shard mutable state (S2). `static mut` itself is D4's.
const MUTABLE_STATIC_WRAPPERS: &[&str] = &[
    "Cell", "RefCell", "OnceCell", "OnceLock", "LazyLock", "Lazy", "Mutex", "RwLock",
];

/// Everything the per-file pass needs about one source file.
pub struct FileCtx<'a> {
    pub file: &'a Path,
    pub tokens: &'a [Token],
    pub flags: &'a [Flags],
    pub raw_lines: &'a [String],
    /// Identifiers known (by declaration, construction, or alias-typed
    /// field) to be hash-container values in this file.
    pub hash_idents: Vec<String>,
}

impl<'a> FileCtx<'a> {
    pub fn new(
        file: &'a Path,
        tokens: &'a [Token],
        flags: &'a [Flags],
        raw_lines: &'a [String],
        symbols: &Symbols,
    ) -> Self {
        let hash_idents = collect_hash_idents(tokens, symbols);
        FileCtx {
            file,
            tokens,
            flags,
            raw_lines,
            hash_idents,
        }
    }

    fn snippet(&self, line: u32) -> String {
        self.raw_lines
            .get(line as usize - 1)
            .cloned()
            .unwrap_or_default()
    }

    fn hit(&self, out: &mut Vec<Violation>, rule: Rule, line: u32, message: String) {
        out.push(Violation {
            rule,
            file: self.file.to_path_buf(),
            line: line as usize,
            snippet: self.snippet(line),
            message,
        });
    }
}

/// Run every token-scan rule in `rules` over the file. (S1 and the
/// `impl Ord` half of S3 are workspace-level — see [`Symbols`].)
pub fn check_file(ctx: &FileCtx, rules: &[Rule], out: &mut Vec<Violation>) {
    for rule in rules {
        match rule {
            Rule::WallClock => wall_clock(ctx, out),
            Rule::AmbientRandomness => ambient_randomness(ctx, out),
            Rule::NondeterministicIter => nondeterministic_iter(ctx, out),
            Rule::IntraWorldParallelism => intra_world_parallelism(ctx, out),
            Rule::UnwrapInApi => unwrap_in_api(ctx, out),
            Rule::RawTelemetry => raw_telemetry(ctx, out),
            Rule::UngatedFaultHook => ungated_fault_hook(ctx, out),
            Rule::HotPathAlloc => hot_path_alloc(ctx, out),
            Rule::CrossShardStatic => cross_shard_static(ctx, out),
            Rule::UnorderedMerge => unordered_merge_decls(ctx, out),
            // Workspace-level rules, handled by the driver.
            Rule::NonSendShardState | Rule::UnusedAllow => {}
        }
    }
}

fn live(ctx: &FileCtx, i: usize) -> bool {
    !ctx.flags[i].test
}

fn wall_clock(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if live(ctx, i) && (t.is_ident("Instant") || t.is_ident("SystemTime")) {
            ctx.hit(
                out,
                Rule::WallClock,
                t.line,
                format!(
                    "wall-clock `{}` in a simulation crate; use `World::now()` \
                     (virtual time) instead",
                    t.text
                ),
            );
        }
    }
}

fn ambient_randomness(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !live(ctx, i) || t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => true,
            "random" => {
                // `rand::random`
                i >= 3
                    && ctx.tokens[i - 1].is_punct(':')
                    && ctx.tokens[i - 2].is_punct(':')
                    && ctx.tokens[i - 3].is_ident("rand")
            }
            _ => false,
        };
        if hit {
            ctx.hit(
                out,
                Rule::AmbientRandomness,
                t.line,
                format!(
                    "ambient randomness `{}`; draw from a forked `xrdma_sim::SimRng` \
                     stream instead",
                    t.text
                ),
            );
        }
    }
}

fn intra_world_parallelism(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !live(ctx, i) {
            continue;
        }
        if toks[i].is_ident("spawn")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("thread")
        {
            ctx.hit(
                out,
                Rule::IntraWorldParallelism,
                toks[i].line,
                "`thread::spawn` inside a simulation crate; parallelism happens across \
                 worlds, never inside one"
                    .to_string(),
            );
        } else if toks[i].is_ident("static") && toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
            ctx.hit(
                out,
                Rule::IntraWorldParallelism,
                toks[i].line,
                "`static mut` shared state breaks world isolation; thread state through \
                 the `World`"
                    .to_string(),
            );
        }
    }
}

fn raw_telemetry(ctx: &FileCtx, out: &mut Vec<Violation>) {
    // The raw span entry points share `emit_raw`'s contract: stack code
    // goes through the `span_open!`/`span_mark!`/`span_hop!`/`span_end!`
    // macros, whose expansions vanish in telemetry-off builds.
    const RAW_ENTRY_POINTS: [&str; 5] = [
        "emit_raw",
        "span_open_raw",
        "span_mark_raw",
        "span_hop_raw",
        "span_end_raw",
    ];
    for (i, t) in ctx.tokens.iter().enumerate() {
        if live(ctx, i) && RAW_ENTRY_POINTS.iter().any(|name| t.is_ident(name)) {
            ctx.hit(
                out,
                Rule::RawTelemetry,
                t.line,
                "direct raw telemetry call bypasses the `tele!`/`span_*!` macros; \
                 emission outside the macros is not compiled out in telemetry-off builds"
                    .to_string(),
            );
        }
    }
}

fn ungated_fault_hook(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if live(ctx, i) && t.is_ident("xrdma_faults") && !ctx.flags[i].faults_gated {
            ctx.hit(
                out,
                Rule::UngatedFaultHook,
                t.line,
                "`xrdma_faults` hook outside a `#[cfg(feature = \"faults\")]` gate; \
                 fault hooks must compile to nothing when the feature is off"
                    .to_string(),
            );
        }
    }
}

fn unwrap_in_api(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !ctx.flags[i].pub_fn || ctx.flags[i].test {
            continue;
        }
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        let is_unwrap = m.is_ident("unwrap")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
        let is_expect = m.is_ident("expect") && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
        if is_unwrap || is_expect {
            ctx.hit(
                out,
                Rule::UnwrapInApi,
                m.line,
                format!(
                    "`.{}` on a public API path; return an error (XrdmaError / \
                     VerbsError) or assert via debug_invariants",
                    if is_unwrap { "unwrap()" } else { "expect(…)" }
                ),
            );
        }
    }
}

fn nondeterministic_iter(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !live(ctx, i) {
            continue;
        }
        // `.iter()` / `.values()` / … on a known hash identifier.
        if toks[i].is_punct('.') {
            if let Some(m) = toks.get(i + 1) {
                if m.kind == TokKind::Ident
                    && ITER_METHODS.contains(&m.text.as_str())
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                {
                    if let Some(base) = chain_base(toks, i) {
                        if ctx.hash_idents.contains(&base) {
                            ctx.hit(
                                out,
                                Rule::NondeterministicIter,
                                m.line,
                                format!(
                                    "order-dependent iteration over hash container `{base}` \
                                     (`.{}`); use BTreeMap/BTreeSet or sort keys first",
                                    m.text
                                ),
                            );
                        }
                    }
                }
            }
        }
        // `for x in &map` / `for x in map` over a known hash identifier.
        if toks[i].is_ident("for") {
            // Find `in` before the loop body opens.
            let mut j = i + 1;
            let mut depth = 0;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                    j = toks.len();
                } else if depth == 0 && t.is_ident("in") {
                    break;
                }
                j += 1;
            }
            if j >= toks.len() {
                continue;
            }
            // Expression tokens until the body `{`; accept only simple
            // `&`/`mut`/ident/`.` chains.
            let mut k = j + 1;
            let mut simple = true;
            let mut base: Option<String> = None;
            while k < toks.len() && !toks[k].is_punct('{') {
                let t = &toks[k];
                if t.kind == TokKind::Ident {
                    if t.text != "mut" {
                        base = Some(t.text.clone());
                    }
                } else if !(t.is_punct('&') || t.is_punct('.')) {
                    simple = false;
                    break;
                }
                k += 1;
            }
            if simple {
                if let Some(base) = base {
                    if ctx.hash_idents.contains(&base) {
                        ctx.hit(
                            out,
                            Rule::NondeterministicIter,
                            toks[i].line,
                            format!(
                                "order-dependent `for` loop over hash container `{base}`; \
                                 use BTreeMap/BTreeSet or sort keys first"
                            ),
                        );
                    }
                }
            }
        }
    }
}

fn hot_path_alloc(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let hot = ctx
        .file
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| HOT_PATH_FILES.contains(&n));
    if !hot {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !live(ctx, i) {
            continue;
        }
        let t = &toks[i];
        let mut alloc: Option<(&str, u32)> = None;
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("to_vec"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            alloc = Some((".to_vec()", toks[i + 1].line));
        } else if t.is_ident("vec") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            alloc = Some(("vec!", t.line));
        } else if (t.is_ident("Box") || t.is_ident("Bytes"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("new") || t.is_ident("from"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            let what = if t.is_ident("Box") {
                "Box::new"
            } else {
                "Bytes::from"
            };
            // `Box::from` / `Bytes::new` are fine-grained misses we accept.
            let matches = (t.is_ident("Box") && toks[i + 3].is_ident("new"))
                || (t.is_ident("Bytes") && toks[i + 3].is_ident("from"));
            if matches {
                alloc = Some((what, t.line));
            }
        }
        if let Some((what, line)) = alloc {
            ctx.hit(
                out,
                Rule::HotPathAlloc,
                line,
                format!(
                    "heap allocation `{what}` on the per-packet path; carry payloads as \
                     `bytes::Bytes` slices of the per-message gather buffer (annotate \
                     one-time setup sites with a reason)"
                ),
            );
            continue;
        }
        // `.clone()` of a payload buffer.
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("clone"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(base) = chain_base(toks, i) {
                if PAYLOAD_IDENTS.contains(&base.as_str()) {
                    ctx.hit(
                        out,
                        Rule::HotPathAlloc,
                        toks[i + 1].line,
                        format!(
                            "`.clone()` of payload buffer `{base}` on the per-packet path; \
                             `bytes::Bytes` windows are refcounted — slice instead of copying"
                        ),
                    );
                }
            }
        }
    }
}

fn cross_shard_static(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !live(ctx, i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        // `thread_local! { … }`: one finding for the whole block. Worlds
        // are per-thread today; under sharding, one world's events execute
        // on many rayon workers and per-thread singletons silently fork.
        if t.is_ident("thread_local") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            ctx.hit(
                out,
                Rule::CrossShardStatic,
                t.line,
                "`thread_local!` world-singleton: under sharded execution one world's \
                 events run on many worker threads, so per-thread state silently forks; \
                 carry it in the `World`/shard context instead"
                    .to_string(),
            );
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            i = crate::scope_match_brace(toks, j) + 1;
            continue;
        }
        // `static NAME: Wrapper<…>` with an interior-mutable or lazy
        // wrapper (`static mut` is D4's).
        if t.is_ident("static")
            && !toks.get(i + 1).is_some_and(|t| t.is_ident("mut"))
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut j = i + 3;
            while j < toks.len() && !(toks[j].is_punct('=') || toks[j].is_punct(';')) {
                let w = &toks[j];
                if w.kind == TokKind::Ident
                    && (MUTABLE_STATIC_WRAPPERS.contains(&w.text.as_str())
                        || w.text.starts_with("Atomic"))
                {
                    ctx.hit(
                        out,
                        Rule::CrossShardStatic,
                        t.line,
                        format!(
                            "mutable/lazy `static {}` (`{}`) is cross-shard shared state; \
                             worlds must own their state so shards replay deterministically",
                            toks[i + 1].text,
                            w.text
                        ),
                    );
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
}

/// S3, declaration half: event containers keyed by bare `Time` — ties
/// between same-instant events would merge in nondeterministic order.
fn unordered_merge_decls(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !live(ctx, i) {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("BinaryHeap") && toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            // BinaryHeap<Time>, BinaryHeap<Reverse<Time>>.
            let bare = (toks.get(i + 2).is_some_and(|t| t.is_ident("Time"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('>')))
                || (toks.get(i + 2).is_some_and(|t| t.is_ident("Reverse"))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
                    && toks.get(i + 4).is_some_and(|t| t.is_ident("Time"))
                    && toks.get(i + 5).is_some_and(|t| t.is_punct('>')));
            if bare {
                ctx.hit(
                    out,
                    Rule::UnorderedMerge,
                    t.line,
                    "event heap keyed by bare `Time`: same-instant entries pop in \
                     arbitrary order; key on `(Time, seq)` so cross-shard merges are \
                     deterministic"
                        .to_string(),
                );
            }
        }
        if t.is_ident("BTreeMap")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("Time"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(','))
        {
            ctx.hit(
                out,
                Rule::UnorderedMerge,
                t.line,
                "event map keyed by bare `Time`: a second event at the same instant \
                 overwrites or collides with the first; key on `(Time, seq)`"
                    .to_string(),
            );
        }
    }
}

/// The identifier a method chain hangs off: from the `.` at `dot`, walk
/// left over `(…)` groups and chain adapters (`borrow()`, `lock()`, …).
fn chain_base(toks: &[Token], dot: usize) -> Option<String> {
    let mut j = dot;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        if toks[j].is_punct(')') {
            // Skip back over the balanced group.
            let mut depth = 0;
            loop {
                if toks[j].is_punct(')') {
                    depth += 1;
                } else if toks[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j == 0 {
                return None;
            }
            j -= 1;
            // Must be an adapter call to keep walking.
            if toks[j].kind == TokKind::Ident && CHAIN_ADAPTERS.contains(&toks[j].text.as_str()) {
                if j == 0 || !toks[j - 1].is_punct('.') {
                    return None;
                }
                j -= 1; // at the '.', loop continues left of it
                continue;
            }
            return None;
        }
        if toks[j].kind == TokKind::Ident {
            return Some(toks[j].text.clone());
        }
        return None;
    }
}

/// Identifiers declared or constructed as hash containers in this file:
/// `name: HashMap<…>` (field, let, param — including through an alias) and
/// `name = HashMap::new()` / `= HashSet::with_capacity(…)`.
fn collect_hash_idents(toks: &[Token], symbols: &Symbols) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    let mut push = |s: &str| {
        if !idents.iter().any(|x| x == s) {
            idents.push(s.to_string());
        }
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_hash_name = t.text == "HashMap" || t.text == "HashSet";
        let is_hash_alias = !is_hash_name
            && symbols.aliases.get(&t.text).is_some_and(|rhs| {
                rhs.iter()
                    .any(|r| r.is_ident("HashMap") || r.is_ident("HashSet"))
            });
        if !is_hash_name && !is_hash_alias {
            continue;
        }
        // Construction: `… = [path::]HashMap::new(…)` — find the binding
        // ident just before the `=`.
        if is_hash_name
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut j = i;
            // Walk back over a leading path (`std::collections::`).
            while j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && toks[j - 3].kind == TokKind::Ident
            {
                j -= 3;
            }
            if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == TokKind::Ident {
                push(&toks[j - 2].text);
                continue;
            }
        }
        // Declaration: walk back to the `name :` that opened this type.
        // The hash ident appears inside the type, possibly nested
        // (`RefCell<HashMap<…>>`), so scan left for `Ident :` where the
        // `:` is not part of `::` and the ident is not a path segment.
        let mut j = i;
        while j >= 2 {
            let c = &toks[j - 1];
            if c.is_punct(';') || c.is_punct('{') || c.is_punct('}') || c.is_punct('=') {
                break;
            }
            if c.is_punct(':')
                && !toks.get(j).is_some_and(|t| t.is_punct(':'))
                && !(j >= 2 && toks[j - 2].is_punct(':'))
                && toks[j - 2].kind == TokKind::Ident
            {
                push(&toks[j - 2].text);
                break;
            }
            j -= 1;
        }
    }
    idents
}
