//! Token-level rule checks.
//!
//! Each check walks a file's token stream (with per-token [`Flags`] from
//! the scope pass) and emits [`Violation`]s. Because matching is
//! token-exact, none of the PR-1 false-positive classes survive: patterns
//! inside string literals, doc comments and block comments never tokenize
//! as identifiers, and identifier matches are whole-token (`Cellular` is
//! not `Cell`).

use std::path::Path;

use crate::lexer::{TokKind, Token};
use crate::scope::Flags;
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

/// Interior-mutable / lazily-initialized wrappers that make a `static`
/// process-global mutable state (S2), as `static mut` does.
const MUTABLE_STATIC_WRAPPERS: &[&str] = &[
    "Cell", "RefCell", "OnceCell", "OnceLock", "LazyLock", "Lazy", "Mutex", "RwLock",
];

/// Everything the per-file pass needs about one source file.
pub struct FileCtx<'a> {
    pub file: &'a Path,
    pub tokens: &'a [Token],
    pub flags: &'a [Flags],
    pub raw_lines: &'a [String],
}

impl FileCtx<'_> {
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

/// Run every token-scan rule in `rules` over the file. (The `impl Ord`
/// half of S3 and U2 are workspace-level — see
/// [`crate::symbols::Symbols`].)
pub fn check_file(ctx: &FileCtx, rules: &[Rule], out: &mut Vec<Violation>) {
    for rule in rules {
        match rule {
            Rule::UnwrapInApi => unwrap_in_api(ctx, out),
            Rule::UngatedFaultHook => ungated_fault_hook(ctx, out),
            Rule::HotPathAlloc => hot_path_alloc(ctx, out),
            Rule::CrossShardStatic => cross_shard_static(ctx, out),
            Rule::UnorderedMerge => unordered_merge_decls(ctx, out),
            // Workspace-level rules, handled by the driver.
            Rule::UnvariedKnob | Rule::UnusedAllow => {}
        }
    }
}

fn live(ctx: &FileCtx, i: usize) -> bool {
    !ctx.flags[i].test
}

fn ungated_fault_hook(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !(live(ctx, i) && t.is_ident("xrdma_faults")) || ctx.flags[i].faults_guarded {
            continue;
        }
        if let Some(hook) = fault_hook_named(ctx.tokens, i) {
            ctx.hit(
                out,
                Rule::UngatedFaultHook,
                t.line,
                format!(
                    "fault hook `xrdma_faults::{hook}` outside an `if xrdma_faults::active()` \
                     block; without the guard a run with no injector pays for the hook"
                ),
            );
        }
    }
}

/// The first hook a path starting at the `xrdma_faults` token `i` names:
/// a function (lower-case final segment) other than the `active` guard,
/// directly or inside a `use` group. Type paths are not hooks.
fn fault_hook_named(toks: &[Token], i: usize) -> Option<String> {
    let sep = |j: usize| {
        toks.get(j).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
    };
    let is_hook = |t: &Token| {
        t.kind == TokKind::Ident
            && t.text.starts_with(|c: char| c.is_ascii_lowercase())
            && !matches!(t.text.as_str(), "active" | "self")
    };
    let mut j = i + 1;
    while sep(j) {
        let seg = toks.get(j + 2)?;
        if seg.is_punct('{') {
            let end = crate::scope_match_brace(toks, j + 2);
            return (j + 3..end.min(toks.len()))
                .find(|&k| is_hook(&toks[k]) && !sep(k + 1))
                .map(|k| toks[k].text.clone());
        }
        j += 2;
        if !sep(j + 1) {
            return is_hook(seg).then(|| seg.text.clone());
        }
        j += 1;
    }
    None
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
            let base = i
                .checked_sub(1)
                .map(|b| &toks[b])
                .filter(|b| b.kind == TokKind::Ident && PAYLOAD_IDENTS.contains(&b.text.as_str()));
            if let Some(base) = base {
                ctx.hit(
                    out,
                    Rule::HotPathAlloc,
                    toks[i + 1].line,
                    format!(
                        "`.clone()` of payload buffer `{}` on the per-packet path; \
                         `bytes::Bytes` windows are refcounted — slice instead of copying",
                        base.text
                    ),
                );
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
        // `thread_local! { … }` is per-thread, and a world never leaves
        // its thread: skip the block, the statics inside it included.
        if t.is_ident("thread_local") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            i = crate::scope_match_brace(toks, j) + 1;
            continue;
        }
        // `static mut NAME`, or `static NAME: Wrapper<…>` with an
        // interior-mutable or lazy wrapper.
        let is_mut = toks.get(i + 1).is_some_and(|t| t.is_ident("mut"));
        let name = i + 1 + usize::from(is_mut);
        if t.is_ident("static")
            && toks.get(name).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(name + 1).is_some_and(|t| t.is_punct(':'))
        {
            let wrapper = if is_mut {
                Some("mut")
            } else {
                toks[name + 2..]
                    .iter()
                    .take_while(|w| !(w.is_punct('=') || w.is_punct(';')))
                    .find(|w| {
                        w.kind == TokKind::Ident
                            && (MUTABLE_STATIC_WRAPPERS.contains(&w.text.as_str())
                                || w.text.starts_with("Atomic"))
                    })
                    .map(|w| w.text.as_str())
            };
            if let Some(wrapper) = wrapper {
                ctx.hit(
                    out,
                    Rule::CrossShardStatic,
                    t.line,
                    format!(
                        "mutable/lazy `static {}` (`{wrapper}`) is process-global state shared \
                         by every world in the process; worlds must own their state so \
                         concurrent runs replay deterministically",
                        toks[name].text
                    ),
                );
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
