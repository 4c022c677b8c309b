//! Structural scope tracking over the token stream.
//!
//! The PR-1 scanner attached `#[cfg(...)]` attributes to code by *line
//! adjacency*, which breaks as soon as an attribute and its item are
//! separated by another attribute, a multi-line signature, or a generic
//! argument list with commas. This pass walks the token stream once,
//! tracking brace depth, and attaches attributes to the item or statement
//! that structurally follows them: everything up to the matching `}` of
//! the first brace the item opens, or up to the `;` / `,` that terminates
//! a brace-less statement or field at the attribute's own nesting level
//! (angle brackets, parentheses and square brackets all counted, so a
//! comma inside `BTreeMap<u32, Hook>` never ends the span early).
//!
//! The pass produces one [`Flags`] record per token:
//!
//! * `test` — inside a `#[cfg(test)]`-gated item (module, fn, impl…).
//!   Test code runs outside worlds and is exempt from determinism rules.
//! * `faults_guarded` — inside the block of an `if xrdma_faults::active()`
//!   (the condition may go on with `&& …`, but a `||` outside brackets
//!   voids the guard); the F1 rule requires every fault hook call to carry
//!   this flag. An `else` block is not guarded. A brace block at the
//!   condition's top level (`&& { … }`) is taken for the `if` block, which
//!   then reads as unguarded: the rule errs towards a finding.
//! * `pub_fn` — inside the body of a `pub fn` (not `pub(crate)`), where
//!   the D5 unwrap rule applies. Nested private `fn` items shadow the
//!   enclosing public region.

use crate::lexer::{TokKind, Token};

/// Per-token structural context.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flags {
    pub test: bool,
    pub faults_guarded: bool,
    pub pub_fn: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum FnKind {
    None,
    Pub,
    Priv,
}

struct Region {
    test: bool,
    faults: bool,
    fnk: FnKind,
}

/// What a parsed attribute group contributes to the item it covers.
#[derive(Clone, Copy, Default)]
struct AttrGate {
    test: bool,
}

/// Does `if xrdma_faults::active()` start at `tokens[i]`, followed by the
/// `if` block's `{` or by `&&`?
fn opens_faults_guard(tokens: &[Token], i: usize) -> bool {
    const GUARD: [&str; 7] = ["if", "xrdma_faults", ":", ":", "active", "(", ")"];
    let n = GUARD.len();
    let guard = tokens.get(i..i + n).is_some_and(|toks| {
        toks.iter()
            .zip(GUARD)
            .all(|(t, want)| matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == want)
    });
    let punct = |k: usize, c: char| tokens.get(i + k).is_some_and(|t| t.is_punct(c));
    guard && (punct(n, '{') || (punct(n, '&') && punct(n + 1, '&')))
}

/// Compute per-token [`Flags`] for a lexed token stream.
pub fn scopes(tokens: &[Token]) -> Vec<Flags> {
    let mut flags = vec![Flags::default(); tokens.len()];
    let mut regions: Vec<Region> = Vec::new();
    // File-wide gates from inner attributes at the top level (`#![cfg(test)]`).
    let mut file_gate = AttrGate::default();
    // Attribute gate armed for the next item/statement.
    let mut pending = AttrGate::default();
    let mut pending_active = false;
    // Nesting within an armed attribute/fn span, so separators inside
    // argument or generic lists don't end it. Parens/brackets are exact;
    // angles are a heuristic (`a < b` comparisons unbalance them), so `;`
    // consults only the exact counter while `,` consults both — commas
    // appear inside generic lists, semicolons don't.
    let mut pb_inner: i32 = 0;
    let mut ang_inner: i32 = 0;
    // `pub fn` detection.
    let mut pending_vis = false;
    let mut pending_fn = FnKind::None;
    // Set between `if xrdma_faults::active()` and the `{` of its block;
    // `guard_parens` is the bracket nesting inside that condition, so a
    // closure body or `||` inside a call neither opens nor voids it.
    let mut pending_guard = false;
    let mut guard_parens: i32 = 0;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];

        // Attribute group: `#[...]` (outer) or `#![...]` (inner).
        if t.is_punct('#') {
            let mut j = i + 1;
            let is_inner = tokens.get(j).is_some_and(|t| t.is_punct('!'));
            if is_inner {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
                let end = match_delim(tokens, j, '[', ']');
                let gate = parse_attr_gate(&tokens[j..end.min(tokens.len())]);
                mark(
                    &mut flags,
                    i,
                    end.min(tokens.len() - 1) + 1,
                    &regions,
                    &file_gate,
                    pending,
                    pending_active,
                );
                if is_inner {
                    match regions.last_mut() {
                        Some(r) => r.test |= gate.test,
                        None => file_gate.test |= gate.test,
                    }
                } else {
                    pending.test |= gate.test;
                    pending_active = true;
                    pb_inner = 0;
                    ang_inner = 0;
                }
                i = end + 1;
                continue;
            }
        }

        mark(
            &mut flags,
            i,
            i + 1,
            &regions,
            &file_gate,
            pending,
            pending_active,
        );

        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "if" if opens_faults_guard(tokens, i) => {
                    pending_guard = true;
                    guard_parens = 0;
                }
                "pub" => {
                    if tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                        // `pub(crate)` / `pub(super)`: restricted, not public.
                        let end = match_delim(tokens, i + 1, '(', ')');
                        mark(
                            &mut flags,
                            i + 1,
                            end.min(tokens.len() - 1) + 1,
                            &regions,
                            &file_gate,
                            pending,
                            pending_active,
                        );
                        i = end + 1;
                        continue;
                    }
                    pending_vis = true;
                }
                "fn" => {
                    pending_fn = if pending_vis {
                        FnKind::Pub
                    } else {
                        FnKind::Priv
                    };
                    pending_vis = false;
                }
                // Item keywords that consume a pending `pub` without being
                // functions. (`const`, `unsafe`, `async`, `extern` may all
                // precede `fn` and must not clear the flag.)
                "struct" | "enum" | "union" | "trait" | "mod" | "use" | "static" | "type"
                | "macro_rules" => {
                    pending_vis = false;
                }
                _ => {}
            },
            TokKind::Punct => match t.text.as_bytes()[0] {
                b'{' => {
                    // A block nested in the guard's condition runs only
                    // after `active()` held, so it is guarded too.
                    regions.push(Region {
                        test: pending.test,
                        faults: pending_guard,
                        fnk: pending_fn,
                    });
                    pending_guard &= guard_parens > 0;
                    pending = AttrGate::default();
                    pending_active = false;
                    pending_fn = FnKind::None;
                    pending_vis = false;
                    pb_inner = 0;
                    ang_inner = 0;
                }
                b'}' => {
                    regions.pop();
                }
                b'(' | b'[' => {
                    pb_inner += 1;
                    guard_parens += 1;
                }
                b')' | b']' => {
                    pb_inner -= 1;
                    guard_parens -= 1;
                }
                b'|' if guard_parens <= 0 && tokens.get(i + 1).is_some_and(|t| t.is_punct('|')) => {
                    // `active() && a || b` runs the block when `b` alone
                    // holds: no guard.
                    pending_guard = false;
                }
                b'<' if pending_active || pending_fn != FnKind::None => ang_inner += 1,
                b'>' if (pending_active || pending_fn != FnKind::None)
                    && !(i > 0 && tokens[i - 1].is_punct('-')) =>
                {
                    // `>` closes a generic list, except as part of `->`.
                    ang_inner = (ang_inner - 1).max(0);
                }
                b';' if pb_inner <= 0 => {
                    // A brace-less statement / trait-method decl ends
                    // here, together with any gate that covered it.
                    pending = AttrGate::default();
                    pending_guard &= guard_parens > 0;
                    pending_active = false;
                    pending_fn = FnKind::None;
                    pending_vis = false;
                }
                b',' if pb_inner <= 0 && ang_inner <= 0 => {
                    // A field or match arm ends; commas inside generic or
                    // argument lists never reach this arm.
                    pending = AttrGate::default();
                    pending_active = false;
                    pending_fn = FnKind::None;
                    pending_vis = false;
                }
                _ => {}
            },
            _ => {}
        }

        i += 1;
    }

    flags
}

/// Fill `flags[from..to]` from the current region stack plus any armed
/// pending attribute gate.
fn mark(
    flags: &mut [Flags],
    from: usize,
    to: usize,
    regions: &[Region],
    file_gate: &AttrGate,
    pending: AttrGate,
    pending_active: bool,
) {
    let mut f = Flags {
        test: file_gate.test,
        faults_guarded: false,
        pub_fn: false,
    };
    for r in regions {
        f.test |= r.test;
        f.faults_guarded |= r.faults;
    }
    if let Some(r) = regions.iter().rev().find(|r| r.fnk != FnKind::None) {
        f.pub_fn = r.fnk == FnKind::Pub;
    }
    if pending_active {
        f.test |= pending.test;
    }
    let to = to.min(flags.len());
    for slot in flags[from..to].iter_mut() {
        *slot = f;
    }
}

/// Index of the token matching the opening delimiter at `open` (which must
/// be `open_c`); `tokens.len()` when unbalanced.
pub(crate) fn match_delim(tokens: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// Parse an attribute token group (starting at `[`) for the gate the
/// rules care about: `cfg(test)`, possibly under `all(...)`/`any(...)`.
/// A `cfg(not(...))` group contributes nothing.
fn parse_attr_gate(group: &[Token]) -> AttrGate {
    let mut gate = AttrGate::default();
    let mut k = 0;
    while k < group.len() {
        if group[k].is_ident("cfg") && group.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            let end = match_delim(group, k + 1, '(', ')');
            let body = &group[k + 2..end.min(group.len())];
            if !body.iter().any(|t| t.is_ident("not")) && body.iter().any(|t| t.is_ident("test")) {
                gate.test = true;
            }
            k = end + 1;
        } else {
            k += 1;
        }
    }
    gate
}
