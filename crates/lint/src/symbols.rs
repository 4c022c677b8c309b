//! Two-pass workspace symbol table.
//!
//! Pass one (per file) collects the items the structural rules need:
//! struct and enum definitions with their field/payload types, and
//! manual `impl Ord for T` blocks. Pass two — after every
//! scanned file has been absorbed — answers workspace-level questions:
//!
//! * **S3 `unordered-cross-shard-merge`** (the `impl Ord` half) — every
//!   manual ordering of an event-entry type (a struct with a `Time`-typed
//!   field) must break ties on a `seq` field, or same-instant events merge
//!   in nondeterministic order.
//! * **U2 `unvaried-knob`** — every leaf field of a `pub struct *Config`
//!   needs a writer outside that struct's own `impl Default`. Writers are
//!   collected from every scanned file, test code included, and from the
//!   read-only writer roots: a field init `f: expr` or shorthand `f` in a
//!   literal of the type (`Self { … }` resolves through the enclosing
//!   `impl`), and `.f =` / `.f op=` on any receiver — the last
//!   over-approximates on purpose, so the rule can miss a knob but never
//!   flags one that something varies.
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
    pub is_enum: bool,
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
    pub impl_ords: Vec<ImplOrd>,
    /// U2: `(type, field)` pairs initialised in a struct literal of `type`
    /// outside `impl Default for type`.
    pub literal_writes: BTreeSet<(String, String)>,
    /// U2: `.field =` assignments, with the type of the `impl Default`
    /// they sit in (empty outside one): such a write does not vary a knob
    /// of that type.
    pub dot_writes: BTreeSet<(String, String)>,
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
                        is_enum,
                        fields,
                    });
                    i = j;
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

    /// U2 pass one: record every config-field writer in one file. Unlike
    /// [`Symbols::absorb`] this reads test code too — a knob a test
    /// varies is a knob.
    pub fn absorb_writers(&mut self, tokens: &[Token]) {
        // Enclosing `impl` blocks: (index of the closing brace, self type,
        // is `impl Default for …`).
        let mut impls: Vec<(usize, String, bool)> = Vec::new();
        for i in 0..tokens.len() {
            while impls.last().is_some_and(|&(end, ..)| end < i) {
                impls.pop();
            }
            let t = &tokens[i];
            let prev = |k: usize| i.checked_sub(k).map(|p| &tokens[p]);
            if t.is_ident("impl") && is_item_start(prev(1)) {
                if let Some(header) = impl_header(tokens, i) {
                    impls.push(header);
                }
            } else if t.kind == TokKind::Ident
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('{'))
                && !prev(1).is_some_and(|p| {
                    ["struct", "enum", "union", "impl", "for", "trait"]
                        .iter()
                        .any(|kw| p.is_ident(kw))
                        || (p.is_punct('>') && prev(2).is_some_and(|q| q.is_punct('-')))
                })
            {
                let ty = match (t.text.as_str(), impls.last()) {
                    ("Self", Some((_, ty, _))) => ty.clone(),
                    ("Self", None) => continue,
                    (name, _) => name.to_string(),
                };
                if !ty.ends_with("Config")
                    || impls.last().is_some_and(|(_, it, def)| *def && *it == ty)
                {
                    continue;
                }
                for field in literal_fields(tokens, i + 1) {
                    self.literal_writes.insert((ty.clone(), field));
                }
            } else if t.is_punct('.')
                && !prev(1).is_some_and(|p| p.is_punct('.'))
                && tokens.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                && is_assign_op(&tokens[(i + 2).min(tokens.len())..])
            {
                let in_default = impls
                    .last()
                    .filter(|(_, _, def)| *def)
                    .map(|(_, ty, _)| ty.clone())
                    .unwrap_or_default();
                self.dot_writes
                    .insert((tokens[i + 1].text.clone(), in_default));
            }
        }
    }

    /// U2 pass two: leaf fields of `pub struct *Config` types that no
    /// writer outside the type's own `impl Default` sets. A field whose
    /// type is itself a `*Config` is not a leaf; its leaves are judged in
    /// their own struct.
    pub fn unvaried_knobs(&self) -> Vec<UnvariedKnob> {
        let is_config = |name: &str| {
            name.ends_with("Config") && self.types.get(name).is_some_and(|t| !t.is_enum)
        };
        let mut out = Vec::new();
        for info in self.types.values() {
            if !info.is_pub || !is_config(&info.name) {
                continue;
            }
            for f in &info.fields {
                let nested =
                    f.ty.iter()
                        .any(|t| t.kind == TokKind::Ident && is_config(&t.text));
                let written = self
                    .literal_writes
                    .contains(&(info.name.clone(), f.name.clone()))
                    || self
                        .dot_writes
                        .range((f.name.clone(), String::new())..)
                        .take_while(|(field, _)| *field == f.name)
                        .any(|(_, in_default)| *in_default != info.name);
                if !nested && !written {
                    out.push(UnvariedKnob {
                        ty: info.name.clone(),
                        field: f.name.clone(),
                        file: info.file.clone(),
                        line: f.line,
                    });
                }
            }
        }
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

/// One U2 finding.
pub struct UnvariedKnob {
    pub ty: String,
    pub field: String,
    pub file: PathBuf,
    pub line: u32,
}

/// Can an item (`impl` block) start after this token? Rules out
/// `-> impl Trait`, `x: impl Trait` and `&impl Trait`.
fn is_item_start(prev: Option<&Token>) -> bool {
    match prev {
        None => true,
        Some(p) => {
            p.is_punct('}')
                || p.is_punct(';')
                || p.is_punct(']')
                || p.is_punct('{')
                || p.is_ident("unsafe")
        }
    }
}

/// Parse the `impl` header at `i`: `(closing brace, self type, is
/// Default)`, or `None` for a brace-less header.
fn impl_header(tokens: &[Token], i: usize) -> Option<(usize, String, bool)> {
    let mut j = skip_generics(tokens, i + 1);
    let mut depth = 0i32;
    let mut last_ident: Option<&str> = None;
    let mut self_ty: Option<&str> = None;
    let mut saw_default = false;
    while j < tokens.len() && !(depth == 0 && tokens[j].is_punct('{')) {
        let t = &tokens[j];
        if t.is_punct(';') {
            return None;
        } else if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("for") {
            saw_default = last_ident == Some("Default");
            self_ty = None;
            last_ident = None;
        } else if depth == 0 && t.is_ident("where") {
            self_ty = self_ty.or(last_ident);
            break;
        } else if depth == 0 && t.kind == TokKind::Ident {
            last_ident = Some(&t.text);
        }
        j += 1;
    }
    while j < tokens.len() && !tokens[j].is_punct('{') {
        j += 1;
    }
    let ty = self_ty.or(last_ident)?.to_string();
    Some((crate::scope_match_brace(tokens, j), ty, saw_default))
}

/// Field names a struct literal whose `{` is at `open` initialises:
/// `f: expr` and shorthand `f` entries at the literal's own depth, up to
/// a `..base` tail.
fn literal_fields(tokens: &[Token], open: usize) -> Vec<String> {
    let close = crate::scope_match_brace(tokens, open);
    let mut fields = Vec::new();
    let mut k = open + 1;
    while k < close {
        while tokens.get(k).is_some_and(|t| t.is_punct('#'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            k = crate::scope_match_delim(tokens, k + 1, '[', ']') + 1;
        }
        let Some(t) = tokens.get(k).filter(|_| k < close) else {
            break;
        };
        if t.is_punct('.') {
            break;
        }
        let next = tokens.get(k + 1);
        let init = next.is_some_and(|n| n.is_punct(':'))
            && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'));
        let shorthand = k + 1 == close || next.is_some_and(|n| n.is_punct(','));
        if t.kind == TokKind::Ident && (init || shorthand) {
            fields.push(t.text.clone());
        }
        // Advance past this entry: the next `,` at the literal's depth.
        let mut depth = 0i32;
        while k < close {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                break;
            }
            k += 1;
        }
        k += 1;
    }
    fields
}

/// Does the token run start an assignment (`=`, not `==`/`=>`) or a
/// compound assignment (`+=`, `-=`, `*=`, `/=`, `%=`, `^=`, `|=`, `&=`)?
fn is_assign_op(rest: &[Token]) -> bool {
    let eq = |k: usize| rest.get(k).is_some_and(|t| t.is_punct('='));
    match rest.first() {
        Some(t) if t.is_punct('=') => !(eq(1) || rest.get(1).is_some_and(|t| t.is_punct('>'))),
        Some(t) if t.kind == TokKind::Punct && "+-*/%^|&".contains(t.text.as_str()) => eq(1),
        _ => false,
    }
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
