//! Two-pass workspace symbol table.
//!
//! Pass one (per file) collects the items the structural rules need:
//! struct and enum definitions with their field/payload types, `type`
//! aliases, and manual `impl Ord for T` blocks. Pass two — after every
//! scanned file has been absorbed — answers workspace-level questions:
//!
//! * **S1 `non-send-shard-state`** — compute the set of types reachable
//!   from the shard roots (`World` and any `*Lane` struct) by following
//!   field types through aliases, and flag every field along the way whose
//!   type is `Rc<_>`, `RefCell<_>` or `*mut _`. Those are exactly the
//!   types that cannot migrate to a rayon shard without a redesign.
//! * **S3 `unordered-cross-shard-merge`** (the `impl Ord` half) — every
//!   manual ordering of an event-entry type (a struct with a `Time`-typed
//!   field) must break ties on a `seq` field, or same-instant events merge
//!   in nondeterministic order across shards.
//! * **Alias resolution for D3** — a field typed through an alias of
//!   `HashMap`/`HashSet` (e.g. `type QpMap = HashMap<…>`) is recognized as
//!   a hash container wherever the alias is used.
//!
//! Name resolution is by simple identifier, workspace-wide; the first
//! definition wins (the walk order is sorted, so collisions resolve
//! deterministically). That is deliberately coarse — the lint pass trades
//! full path resolution for zero dependencies — and has been accurate on
//! this workspace, where type names are unique.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::lexer::{TokKind, Token};
use crate::scope::Flags;

/// One struct field or enum-variant payload slot.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    pub name: String,
    /// Type tokens, as lexed (idents, puncts).
    pub ty: Vec<Token>,
    pub line: u32,
}

/// A struct or enum definition.
#[derive(Clone, Debug)]
pub struct TypeInfo {
    pub name: String,
    pub file: PathBuf,
    pub line: u32,
    pub is_pub: bool,
    pub fields: Vec<FieldInfo>,
}

/// A manual `impl Ord for T` block.
#[derive(Clone, Debug)]
pub struct ImplOrd {
    pub ty: String,
    pub file: PathBuf,
    pub line: u32,
    /// Every identifier appearing in the impl body — the tie-break check
    /// only needs to know whether `seq` is consulted at all.
    pub body_idents: BTreeSet<String>,
}

/// The workspace symbol table.
#[derive(Default)]
pub struct Symbols {
    pub types: BTreeMap<String, TypeInfo>,
    /// `type Alias = …;` right-hand sides, as tokens.
    pub aliases: BTreeMap<String, Vec<Token>>,
    pub impl_ords: Vec<ImplOrd>,
}

/// Shard-root predicate: `World` plus any per-shard event-lane struct.
pub fn is_shard_root(name: &str) -> bool {
    name == "World" || name.ends_with("Lane")
}

impl Symbols {
    /// Absorb one file's items. `flags` must be parallel to `tokens`;
    /// items inside `#[cfg(test)]` regions are skipped.
    pub fn absorb(&mut self, file: &Path, tokens: &[Token], flags: &[Flags]) {
        let mut i = 0;
        while i < tokens.len() {
            if flags[i].test {
                i += 1;
                continue;
            }
            let t = &tokens[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "struct" | "enum" => {
                    let is_enum = t.text == "enum";
                    let is_pub = i > 0 && tokens[i - 1].is_ident("pub");
                    let Some(name_tok) = tokens.get(i + 1) else {
                        break;
                    };
                    if name_tok.kind != TokKind::Ident {
                        i += 1;
                        continue;
                    }
                    let name = name_tok.text.clone();
                    let line = name_tok.line;
                    let mut j = i + 2;
                    j = skip_generics(tokens, j);
                    let fields = if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                        if is_enum {
                            parse_enum_variants(tokens, j)
                        } else {
                            parse_named_fields(tokens, j)
                        }
                    } else if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                        parse_tuple_fields(tokens, j)
                    } else {
                        Vec::new()
                    };
                    self.types.entry(name.clone()).or_insert(TypeInfo {
                        name,
                        file: file.to_path_buf(),
                        line,
                        is_pub,
                        fields,
                    });
                    i = j;
                }
                "type" => {
                    // `type Alias = …;` (also collects associated types,
                    // which are harmless in the alias map).
                    if let (Some(name_tok), true) = (
                        tokens.get(i + 1),
                        tokens
                            .get(i + 2)
                            .map(|t| t.is_punct('=') || t.is_punct('<'))
                            .unwrap_or(false),
                    ) {
                        let mut j = skip_generics(tokens, i + 2);
                        if tokens.get(j).is_some_and(|t| t.is_punct('=')) {
                            let start = j + 1;
                            while j < tokens.len() && !tokens[j].is_punct(';') {
                                j += 1;
                            }
                            self.aliases
                                .entry(name_tok.text.clone())
                                .or_insert_with(|| tokens[start..j].to_vec());
                            i = j;
                        }
                    }
                }
                "impl" => {
                    // `impl [<…>] [path::]Ord for T … {`
                    let mut j = skip_generics(tokens, i + 1);
                    let mut saw_ord = false;
                    let mut ty = None;
                    while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                        if tokens[j].is_ident("Ord") {
                            saw_ord = true;
                        } else if tokens[j].is_ident("for") && saw_ord {
                            ty = tokens.get(j + 1).filter(|t| t.kind == TokKind::Ident);
                            break;
                        }
                        j += 1;
                    }
                    if let Some(ty) = ty {
                        let ty_name = ty.text.clone();
                        let line = tokens[i].line;
                        while j < tokens.len() && !tokens[j].is_punct('{') {
                            j += 1;
                        }
                        let end = crate::scope_match_brace(tokens, j);
                        let body_idents = tokens[j..end.min(tokens.len())]
                            .iter()
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone())
                            .collect();
                        self.impl_ords.push(ImplOrd {
                            ty: ty_name,
                            file: file.to_path_buf(),
                            line,
                            body_idents,
                        });
                        i = end;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// S1: walk the reachability graph from the shard roots, returning
    /// `(type, field, root, line, file, rendered type)` for every
    /// non-`Send`-safe field on the way.
    pub fn non_send_shard_fields(&self) -> Vec<NonSendField> {
        let mut out = Vec::new();
        let mut visited: BTreeSet<String> = BTreeSet::new();
        // Deterministic BFS: roots in name order, then discovery order.
        let mut queue: Vec<(String, String)> = self
            .types
            .keys()
            .filter(|n| is_shard_root(n))
            .map(|n| (n.clone(), n.clone()))
            .collect();
        while let Some((name, root)) = queue.pop() {
            if !visited.insert(name.clone()) {
                continue;
            }
            let Some(info) = self.types.get(&name) else {
                continue;
            };
            for field in &info.fields {
                if let Some(pat) = non_send_pattern(&field.ty) {
                    out.push(NonSendField {
                        ty: name.clone(),
                        field: field.name.clone(),
                        root: root.clone(),
                        pattern: pat,
                        file: info.file.clone(),
                        line: field.line,
                        rendered: render_type(&field.ty),
                    });
                }
                // Follow referenced types (resolving one alias level).
                for t in &field.ty {
                    if t.kind != TokKind::Ident {
                        continue;
                    }
                    let mut refs = vec![t.text.clone()];
                    if let Some(rhs) = self.aliases.get(&t.text) {
                        refs.extend(
                            rhs.iter()
                                .filter(|r| r.kind == TokKind::Ident)
                                .map(|r| r.text.clone()),
                        );
                    }
                    for r in refs {
                        if self.types.contains_key(&r) && !visited.contains(&r) {
                            queue.push((r, root.clone()));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| (&a.file, a.line, &a.field).cmp(&(&b.file, b.line, &b.field)));
        out
    }

    /// S3 (ordering half): manual `impl Ord` blocks for event-entry types
    /// (structs with a `Time` field) that never consult `seq`.
    pub fn unordered_event_ords(&self) -> Vec<&ImplOrd> {
        self.impl_ords
            .iter()
            .filter(|io| {
                let Some(info) = self.types.get(&io.ty) else {
                    return false;
                };
                let has_time = info
                    .fields
                    .iter()
                    .any(|f| f.ty.iter().any(|t| t.is_ident("Time")));
                has_time && !io.body_idents.contains("seq")
            })
            .collect()
    }
}

/// One S1 finding.
pub struct NonSendField {
    pub ty: String,
    pub field: String,
    pub root: String,
    pub pattern: &'static str,
    pub file: PathBuf,
    pub line: u32,
    pub rendered: String,
}

/// Which non-`Send` pattern a type-token slice contains, if any.
fn non_send_pattern(ty: &[Token]) -> Option<&'static str> {
    for (k, t) in ty.iter().enumerate() {
        if t.is_ident("Rc") && ty.get(k + 1).is_some_and(|n| n.is_punct('<')) {
            return Some("Rc<_>");
        }
        if t.is_ident("RefCell") && ty.get(k + 1).is_some_and(|n| n.is_punct('<')) {
            return Some("RefCell<_>");
        }
        if t.is_punct('*') && ty.get(k + 1).is_some_and(|n| n.is_ident("mut")) {
            return Some("*mut _");
        }
    }
    None
}

/// Compact display form of a type-token slice for diagnostics.
pub fn render_type(ty: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_ident = false;
    for t in ty {
        let ident_like = matches!(t.kind, TokKind::Ident | TokKind::Num | TokKind::Lifetime);
        if ident_like && prev_ident {
            out.push(' ');
        }
        match t.kind {
            TokKind::Lifetime => {
                out.push('\'');
                out.push_str(&t.text);
            }
            TokKind::Str => {
                out.push('"');
                out.push_str(&t.text);
                out.push('"');
            }
            _ => out.push_str(&t.text),
        }
        prev_ident = ident_like;
    }
    out
}

/// Skip a balanced `<…>` generic list if one starts at `j`.
fn skip_generics(tokens: &[Token], j: usize) -> usize {
    if !tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut depth = 0;
    let mut k = j;
    while k < tokens.len() {
        if tokens[k].is_punct('<') {
            depth += 1;
        } else if tokens[k].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    tokens.len()
}

/// Parse `{ field: Ty, … }` starting at the `{`; returns the fields.
fn parse_named_fields(tokens: &[Token], open: usize) -> Vec<FieldInfo> {
    let end = crate::scope_match_brace(tokens, open);
    let mut fields = Vec::new();
    let mut k = open + 1;
    while k < end {
        // Skip attributes on the field.
        while tokens.get(k).is_some_and(|t| t.is_punct('#')) {
            let b = k + 1;
            if tokens.get(b).is_some_and(|t| t.is_punct('[')) {
                k = crate::scope_match_delim(tokens, b, '[', ']') + 1;
            } else {
                k += 1;
            }
        }
        if tokens.get(k).is_some_and(|t| t.is_ident("pub")) {
            k += 1;
            if tokens.get(k).is_some_and(|t| t.is_punct('(')) {
                k = crate::scope_match_delim(tokens, k, '(', ')') + 1;
            }
        }
        let Some(name_tok) = tokens.get(k) else { break };
        if name_tok.kind != TokKind::Ident || !tokens.get(k + 1).is_some_and(|t| t.is_punct(':')) {
            k += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let start = k + 2;
        let stop = type_end(tokens, start, end);
        fields.push(FieldInfo {
            name,
            ty: tokens[start..stop].to_vec(),
            line,
        });
        k = stop + 1;
    }
    fields
}

/// Parse `( Ty, Ty )` tuple-struct fields starting at the `(`.
fn parse_tuple_fields(tokens: &[Token], open: usize) -> Vec<FieldInfo> {
    let end = crate::scope_match_delim(tokens, open, '(', ')');
    let mut fields = Vec::new();
    let mut k = open + 1;
    let mut idx = 0;
    while k < end {
        if tokens.get(k).is_some_and(|t| t.is_ident("pub")) {
            k += 1;
            continue;
        }
        let start = k;
        let stop = type_end(tokens, start, end);
        if stop > start {
            fields.push(FieldInfo {
                name: idx.to_string(),
                ty: tokens[start..stop].to_vec(),
                line: tokens[start].line,
            });
            idx += 1;
        }
        k = stop + 1;
    }
    fields
}

/// Parse enum variants starting at the `{`: tuple payload types and named
/// fields both become [`FieldInfo`] entries carrying the variant name.
fn parse_enum_variants(tokens: &[Token], open: usize) -> Vec<FieldInfo> {
    let end = crate::scope_match_brace(tokens, open);
    let mut fields = Vec::new();
    let mut k = open + 1;
    while k < end {
        while tokens.get(k).is_some_and(|t| t.is_punct('#')) {
            let b = k + 1;
            if tokens.get(b).is_some_and(|t| t.is_punct('[')) {
                k = crate::scope_match_delim(tokens, b, '[', ']') + 1;
            } else {
                k += 1;
            }
        }
        let Some(name_tok) = tokens.get(k) else { break };
        if name_tok.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let vname = name_tok.text.clone();
        let vline = name_tok.line;
        k += 1;
        if tokens.get(k).is_some_and(|t| t.is_punct('(')) {
            let close = crate::scope_match_delim(tokens, k, '(', ')');
            fields.push(FieldInfo {
                name: vname,
                ty: tokens[k + 1..close.min(end)].to_vec(),
                line: vline,
            });
            k = close + 1;
        } else if tokens.get(k).is_some_and(|t| t.is_punct('{')) {
            let close = crate::scope_match_brace(tokens, k);
            for f in parse_named_fields(tokens, k) {
                fields.push(FieldInfo {
                    name: format!("{vname}.{}", f.name),
                    ty: f.ty,
                    line: f.line,
                });
            }
            k = close + 1;
        }
        // Skip discriminant `= expr` and the trailing comma.
        while k < end && !tokens[k].is_punct(',') {
            k += 1;
        }
        k += 1;
    }
    fields
}

/// End index of a type starting at `start`: the first `,` or `;` at zero
/// `<>`/`()`/`[]` nesting, or `stop`.
fn type_end(tokens: &[Token], start: usize, stop: usize) -> usize {
    let mut depth = 0i32;
    let mut k = start;
    while k < stop {
        let t = &tokens[k];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'<' | b'(' | b'[' => depth += 1,
                b'>' if !(k > 0 && tokens[k - 1].is_punct('-')) => depth -= 1,
                b')' | b']' => depth -= 1,
                b',' | b';' if depth <= 0 => return k,
                _ => {}
            }
        }
        k += 1;
    }
    stop
}
