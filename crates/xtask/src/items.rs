//! Path-aware item tables: the lightweight "name resolution" layer the
//! FC007 rule stands on.
//!
//! The token-level rules (FC002–FC006) ask questions a lexer can answer:
//! "is this ident `Result` followed by `<`?". The determinism rules need
//! one step more — "is the receiver of this `.iter()` a
//! `std::collections::HashMap`?" — which requires knowing what the local
//! name `HashMap` means in this file and what type the receiver was
//! declared with. This module builds exactly that, and nothing more:
//!
//! * an **import map** per file (`use std::collections::{HashMap, HashSet}`
//!   → `HashMap` ⇒ `std::collections::HashMap`, honouring `as` renames),
//! * a **binding table** per file: local names (let bindings, fn params,
//!   statics/consts) and struct fields whose declared or constructor-
//!   inferred type resolves to a canonical path we care about,
//! * a **crate-wide field table**, merged over the crate's files, so
//!   `self.votes` in one module resolves through a struct declared in
//!   another.
//!
//! This is deliberately not a type checker. Names are resolved flat, per
//! file (shadowing across scopes is ignored), and only the *head* of a type
//! is kept (`HashMap<(ReadId, i64), u32>` ⇒ `std::collections::HashMap`).
//! That is enough to be precise on this codebase's idioms; genuinely
//! ambiguous cases fail open (unresolved names are never flagged).

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;

/// Canonical paths the rules ask about. Matching is by full canonical path
/// so a user-defined `struct HashMap` imported from a local module never
/// trips the std-collection rules.
pub mod paths {
    pub const HASH_MAP: &str = "std::collections::HashMap";
    pub const HASH_SET: &str = "std::collections::HashSet";
}

/// Well-known roots: a path starting with one of these is already
/// canonical. Everything else resolves through the file's import map.
const ROOT_SEGMENTS: [&str; 4] = ["std", "core", "alloc", "crate"];

/// `std`-aliased roots normalised to `std` so `core::time::Instant` and
/// `std::time::Instant` compare equal.
fn normalize_root(path: String) -> String {
    for alias in ["core::", "alloc::"] {
        if let Some(rest) = path.strip_prefix(alias) {
            return format!("std::{rest}");
        }
    }
    path
}

/// The per-file item table.
#[derive(Debug, Default, Clone)]
pub struct FileItems {
    /// Local name → canonical path, from `use` declarations.
    pub imports: BTreeMap<String, String>,
    /// Binding name (let / param / static / const) → canonical type head.
    pub bindings: BTreeMap<String, String>,
    /// Struct field name → canonical type head (fields of every struct
    /// declared in this file, flattened).
    pub fields: BTreeMap<String, String>,
}

/// Crate-wide view: the merged field tables of every file, so method bodies
/// can resolve `self.field` declared in a sibling module.
#[derive(Debug, Default, Clone)]
pub struct CrateItems {
    pub fields: BTreeMap<String, String>,
}

impl CrateItems {
    /// Merges one file's fields into the crate table. First declaration
    /// wins on collisions — fields sharing a name across structs in one
    /// crate overwhelmingly share a type in practice, and a wrong merge
    /// only ever *adds* a finding, never hides one.
    pub fn absorb(&mut self, file: &FileItems) {
        for (name, ty) in &file.fields {
            self.fields
                .entry(name.clone())
                .or_insert_with(|| ty.clone());
        }
    }
}

impl FileItems {
    /// Resolves a locally-spelled type or value name to its canonical path:
    /// through the import map, or unchanged if it is already rooted.
    pub fn resolve(&self, name: &str) -> Option<String> {
        if let Some(canonical) = self.imports.get(name) {
            return Some(canonical.clone());
        }
        None
    }

    /// The canonical type head of a named binding or (crate-wide) field,
    /// preferring the tighter binding table.
    pub fn type_of<'a>(&'a self, krate: &'a CrateItems, name: &str) -> Option<&'a str> {
        self.bindings
            .get(name)
            .or_else(|| self.fields.get(name))
            .or_else(|| krate.fields.get(name))
            .map(String::as_str)
    }
}

/// Builds the item table for one lexed file. `tokens` must be the full
/// stream (test spans included — imports and struct declarations inside
/// `#[cfg(test)]` modules are harmless to record, and the rules apply
/// their own test exclusion at the *use* site).
pub fn collect(tokens: &[Token]) -> FileItems {
    let mut items = FileItems::default();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "use" => i = scan_use(tokens, i + 1, &mut items),
            "struct" => i = scan_struct(tokens, i + 1, &mut items),
            "let" => i = scan_let(tokens, i + 1, &mut items),
            "static" | "const" => i = scan_static(tokens, i + 1, &mut items),
            "fn" => i = scan_fn_params(tokens, i + 1, &mut items),
            _ => i += 1,
        }
    }
    items
}

/// Reads a `::`-separated path starting at `i`; returns the segments and the
/// index just past the path.
fn scan_path(tokens: &[Token], mut i: usize) -> (Vec<String>, usize) {
    let mut segs = Vec::new();
    loop {
        match tokens.get(i) {
            Some(t) if t.kind == TokenKind::Ident => {
                segs.push(t.text.clone());
                i += 1;
            }
            _ => break,
        }
        if tokens.get(i).map(|t| t.is_punct(':')).unwrap_or(false)
            && tokens.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false)
        {
            i += 2;
        } else {
            break;
        }
    }
    (segs, i)
}

/// `use a::b::{C, D as E, F};` — records every imported leaf. Glob imports
/// and nested groups deeper than one level are skipped (fail open).
fn scan_use(tokens: &[Token], i: usize, items: &mut FileItems) -> usize {
    let (prefix, mut j) = scan_path(tokens, i);
    if prefix.is_empty() {
        return i + 1;
    }
    let rooted = |full: &[String]| -> Option<String> {
        // `crate::...` paths stay crate-local; the rules only need std.
        if !ROOT_SEGMENTS.contains(&full[0].as_str()) || full[0] == "crate" {
            return None;
        }
        Some(normalize_root(full.join("::")))
    };
    // Single import, possibly renamed: `use std::time::Instant [as T];`
    if tokens.get(j).map(|t| t.is_ident("as")).unwrap_or(false) {
        if let Some(alias) = tokens.get(j + 1).filter(|t| t.kind == TokenKind::Ident) {
            if let Some(canonical) = rooted(&prefix) {
                items.imports.insert(alias.text.clone(), canonical);
            }
            return j + 2;
        }
    }
    if tokens.get(j).map(|t| t.is_punct(';')).unwrap_or(false) {
        if let Some(leaf) = prefix.last().cloned() {
            if let Some(canonical) = rooted(&prefix) {
                items.imports.insert(leaf, canonical);
            }
        }
        return j + 1;
    }
    // Group import: `use std::sync::{Mutex, RwLock as L, atomic::AtomicU64};`
    if tokens.get(j).map(|t| t.is_punct('{')).unwrap_or(false) {
        j += 1;
        let mut depth = 1usize;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('{') {
                depth += 1;
                j += 1;
                continue;
            }
            if tokens[j].is_punct('}') {
                depth -= 1;
                j += 1;
                continue;
            }
            if depth == 1 && tokens[j].kind == TokenKind::Ident {
                let (inner, next) = scan_path(tokens, j);
                let mut name = inner.last().cloned().unwrap_or_default();
                let mut after = next;
                if tokens.get(after).map(|t| t.is_ident("as")).unwrap_or(false) {
                    if let Some(alias) =
                        tokens.get(after + 1).filter(|t| t.kind == TokenKind::Ident)
                    {
                        name = alias.text.clone();
                        after += 2;
                    }
                }
                let mut full = prefix.clone();
                // `self` imports the prefix itself: `use std::sync::{self}`.
                if !(inner.len() == 1 && inner[0] == "self") {
                    full.extend(inner.clone());
                }
                if !name.is_empty() && name != "self" || inner == ["self"] {
                    let leaf = if inner == ["self"] {
                        prefix.last().cloned().unwrap_or_default()
                    } else {
                        name
                    };
                    if ROOT_SEGMENTS.contains(&full[0].as_str()) && full[0] != "crate" {
                        items.imports.insert(leaf, normalize_root(full.join("::")));
                    }
                }
                j = after;
                continue;
            }
            j += 1;
        }
        return j;
    }
    j
}

/// `struct Name { field: Type, ... }` — records field → type head. Tuple
/// structs and unit structs have no named fields and are skipped.
fn scan_struct(tokens: &[Token], i: usize, items: &mut FileItems) -> usize {
    // Skip name and generics to the `{` or `;`.
    let mut j = i;
    let mut angle = 0isize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_punct('(')) {
            break;
        }
        j += 1;
    }
    if !tokens.get(j).map(|t| t.is_punct('{')).unwrap_or(false) {
        return j;
    }
    j += 1;
    let mut depth = 1usize;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('{') {
            depth += 1;
            j += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            j += 1;
            continue;
        }
        // A field is `ident :` at depth 1 (skipping `pub`/`pub(crate)`).
        if depth == 1
            && t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "pub" | "crate" | "super" | "in")
            && tokens.get(j + 1).map(|n| n.is_punct(':')).unwrap_or(false)
            && !tokens.get(j + 2).map(|n| n.is_punct(':')).unwrap_or(false)
        {
            let (head, next) = scan_type_head(tokens, j + 2, items);
            if let Some(ty) = head {
                items.fields.insert(t.text.clone(), ty);
            }
            j = next;
            continue;
        }
        j += 1;
    }
    j
}

/// `let [mut] name [: Type] [= expr];` — records the annotated type, or the
/// constructor-inferred one (`= HashMap::new()`, `= ...collect::<HashSet<_>>()`).
fn scan_let(tokens: &[Token], mut i: usize, items: &mut FileItems) -> usize {
    if tokens.get(i).map(|t| t.is_ident("mut")).unwrap_or(false) {
        i += 1;
    }
    let Some(name) = tokens.get(i).filter(|t| t.kind == TokenKind::Ident) else {
        return i; // destructuring patterns — out of scope
    };
    let name = name.text.clone();
    let mut j = i + 1;
    let mut recorded = false;
    if tokens.get(j).map(|t| t.is_punct(':')).unwrap_or(false)
        && !tokens.get(j + 1).map(|t| t.is_punct(':')).unwrap_or(false)
    {
        let (head, next) = scan_type_head(tokens, j + 1, items);
        if let Some(ty) = head {
            items.bindings.insert(name.clone(), ty);
            recorded = true;
        }
        j = next;
    }
    if recorded {
        return j;
    }
    // Constructor inference on the initializer expression.
    if tokens.get(j).map(|t| t.is_punct('=')).unwrap_or(false) {
        if let Some(ty) = infer_expr_type(tokens, j + 1, items) {
            items.bindings.insert(name, ty);
        }
    }
    j
}

/// `static NAME: Type = ...;` / `const NAME: Type = ...;`
fn scan_static(tokens: &[Token], mut i: usize, items: &mut FileItems) -> usize {
    if tokens.get(i).map(|t| t.is_ident("mut")).unwrap_or(false) {
        i += 1;
    }
    let Some(name) = tokens.get(i).filter(|t| t.kind == TokenKind::Ident) else {
        return i;
    };
    if !tokens.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false) {
        return i + 1; // `const fn`, associated consts without annotation, ...
    }
    let (head, next) = scan_type_head(tokens, i + 2, items);
    if let Some(ty) = head {
        items.bindings.insert(name.text.clone(), ty);
    }
    next
}

/// Records parameter types from a `fn` signature: `name: &mut Type`.
fn scan_fn_params(tokens: &[Token], i: usize, items: &mut FileItems) -> usize {
    // Find the opening paren (skipping the name and generics).
    let mut j = i;
    let mut angle = 0isize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
            angle -= 1;
        } else if angle == 0 && t.is_punct('(') {
            break;
        } else if angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return j;
        }
        j += 1;
    }
    if j >= tokens.len() {
        return j;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            depth += 1;
            j += 1;
            continue;
        }
        if t.is_punct(')') {
            depth -= 1;
            j += 1;
            if depth == 0 {
                break;
            }
            continue;
        }
        if depth == 1
            && t.kind == TokenKind::Ident
            && tokens.get(j + 1).map(|n| n.is_punct(':')).unwrap_or(false)
            && !tokens.get(j + 2).map(|n| n.is_punct(':')).unwrap_or(false)
        {
            let (head, next) = scan_type_head(tokens, j + 2, items);
            if let Some(ty) = head {
                items.bindings.insert(t.text.clone(), ty);
            }
            j = next;
            continue;
        }
        j += 1;
    }
    j
}

/// Reads a type at `i` and returns its canonical head, skipping `&`,
/// lifetimes and `mut`. Returns the index where scanning stopped (just past
/// the head path; the caller resumes from there and tolerates re-scanning
/// generic arguments).
fn scan_type_head(tokens: &[Token], mut i: usize, items: &FileItems) -> (Option<String>, usize) {
    while let Some(t) = tokens.get(i) {
        if t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_ident("mut") {
            i += 1;
        } else {
            break;
        }
    }
    let (segs, next) = scan_path(tokens, i);
    if segs.is_empty() {
        return (None, i + 1);
    }
    (Some(canonicalize(&segs, items)), next)
}

/// Canonicalizes a spelled path: fully-rooted paths normalise directly,
/// single names and first segments resolve through the import map.
pub fn canonicalize(segs: &[String], items: &FileItems) -> String {
    if segs.len() > 1 && ROOT_SEGMENTS.contains(&segs[0].as_str()) {
        return normalize_root(segs.join("::"));
    }
    if let Some(canonical) = items.resolve(&segs[0]) {
        if segs.len() == 1 {
            return canonical;
        }
        return format!("{canonical}::{}", segs[1..].join("::"));
    }
    segs.join("::")
}

/// Infers the type head of an initializer expression: `Type::new(...)`,
/// `Type::with_capacity(...)`, `Type::from(...)`, `Type::default()`, or a
/// trailing `.collect::<Type<_>>()` turbofish anywhere in the expression.
fn infer_expr_type(tokens: &[Token], i: usize, items: &FileItems) -> Option<String> {
    // Scan the expression to its terminating `;` at depth 0.
    let mut j = i;
    let mut depth = 0isize;
    let mut end = tokens.len();
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            end = j;
            break;
        }
        j += 1;
    }
    let expr = &tokens[i..end.min(tokens.len())];
    // `Path::ctor(` at the start of the expression.
    let (segs, next) = scan_path_slice(expr, 0);
    if segs.len() >= 2
        && expr.get(next).map(|t| t.is_punct('(')).unwrap_or(false)
        && matches!(
            segs.last().map(String::as_str),
            Some("new" | "with_capacity" | "from" | "default")
        )
    {
        return Some(canonicalize(&segs[..segs.len() - 1], items));
    }
    // `.collect::<Type<..>>()` turbofish — take the *last* one in the
    // expression (the outermost collect).
    let mut found = None;
    for k in 0..expr.len() {
        if expr[k].is_ident("collect")
            && expr.get(k + 1).map(|t| t.is_punct(':')).unwrap_or(false)
            && expr.get(k + 2).map(|t| t.is_punct(':')).unwrap_or(false)
            && expr.get(k + 3).map(|t| t.is_punct('<')).unwrap_or(false)
        {
            let (segs, _) = scan_path_slice(expr, k + 4);
            if !segs.is_empty() {
                found = Some(canonicalize(&segs, items));
            }
        }
    }
    found
}

fn scan_path_slice(tokens: &[Token], mut i: usize) -> (Vec<String>, usize) {
    let mut segs = Vec::new();
    loop {
        match tokens.get(i) {
            Some(t) if t.kind == TokenKind::Ident => {
                segs.push(t.text.clone());
                i += 1;
            }
            _ => break,
        }
        if tokens.get(i).map(|t| t.is_punct(':')).unwrap_or(false)
            && tokens.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false)
        {
            i += 2;
        } else {
            break;
        }
    }
    (segs, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items_of(src: &str) -> FileItems {
        collect(&lex(src))
    }

    #[test]
    fn resolves_single_and_group_imports() {
        let items = items_of(
            "use std::collections::HashMap;\n\
             use std::collections::{HashSet, BTreeMap};\n\
             use std::sync::{Mutex, RwLock as Lock};\n",
        );
        assert_eq!(
            items.imports.get("HashMap").map(String::as_str),
            Some(paths::HASH_MAP)
        );
        assert_eq!(
            items.imports.get("HashSet").map(String::as_str),
            Some(paths::HASH_SET)
        );
        assert_eq!(
            items.imports.get("Lock").map(String::as_str),
            Some("std::sync::RwLock")
        );
        assert_eq!(
            items.imports.get("Mutex").map(String::as_str),
            Some("std::sync::Mutex")
        );
        assert!(items.imports.get("RwLock").is_none(), "renamed away");
    }

    #[test]
    fn core_and_alloc_normalise_to_std() {
        let items = items_of("use core::time::Duration;\nuse alloc::collections::BTreeMap;\n");
        assert_eq!(
            items.imports.get("Duration").map(String::as_str),
            Some("std::time::Duration")
        );
        assert_eq!(
            items.imports.get("BTreeMap").map(String::as_str),
            Some("std::collections::BTreeMap")
        );
    }

    #[test]
    fn crate_local_imports_are_not_std() {
        let items = items_of("use crate::collections::HashMap;\nuse fc_seq::ReadStore;\n");
        assert!(items.imports.get("HashMap").is_none());
        assert!(items.imports.get("ReadStore").is_none());
    }

    #[test]
    fn struct_fields_resolve_through_imports() {
        let items = items_of(
            "use std::collections::HashMap;\n\
             use std::sync::Mutex;\n\
             pub struct S {\n    votes: HashMap<(u32, i64), u32>,\n    pub core: Mutex<Core>,\n}\n",
        );
        assert_eq!(
            items.fields.get("votes").map(String::as_str),
            Some(paths::HASH_MAP)
        );
        assert_eq!(
            items.fields.get("core").map(String::as_str),
            Some("std::sync::Mutex")
        );
    }

    #[test]
    fn let_annotations_and_ctors_are_inferred() {
        let items = items_of(
            "use std::collections::{HashMap, HashSet};\n\
             fn f() {\n\
                 let mut votes: HashMap<u64, u32> = HashMap::new();\n\
                 let seen = HashSet::new();\n\
                 let uniq = recorded.into_iter().collect::<HashSet<_>>();\n\
                 let full = std::collections::HashMap::with_capacity(4);\n\
             }\n",
        );
        assert_eq!(
            items.bindings.get("votes").map(String::as_str),
            Some(paths::HASH_MAP)
        );
        assert_eq!(
            items.bindings.get("seen").map(String::as_str),
            Some(paths::HASH_SET)
        );
        assert_eq!(
            items.bindings.get("uniq").map(String::as_str),
            Some(paths::HASH_SET)
        );
        assert_eq!(
            items.bindings.get("full").map(String::as_str),
            Some(paths::HASH_MAP)
        );
    }

    #[test]
    fn fn_params_are_recorded() {
        let items = items_of(
            "use std::collections::HashMap;\n\
             fn layout(nodes: &[u32], containments: &HashMap<(u32, u32), ()>) {}\n",
        );
        assert_eq!(
            items.bindings.get("containments").map(String::as_str),
            Some(paths::HASH_MAP)
        );
        assert!(
            items.bindings.get("nodes").is_none(),
            "slice head is not a path"
        );
    }

    #[test]
    fn user_types_sharing_std_names_stay_unresolved() {
        let items = items_of(
            "use mycrate::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        // `mycrate::HashMap` is not std; the binding records the spelled
        // name, which matches no canonical path.
        assert_eq!(items.bindings.get("m").map(String::as_str), Some("HashMap"));
    }

    #[test]
    fn crate_table_merges_fields_across_files() {
        let a = items_of("use std::sync::Mutex;\nstruct S { core: Mutex<u8> }\n");
        let b = items_of("struct T { other: Vec<u8> }\n");
        let mut krate = CrateItems::default();
        krate.absorb(&a);
        krate.absorb(&b);
        assert_eq!(
            krate.fields.get("core").map(String::as_str),
            Some("std::sync::Mutex")
        );
        assert_eq!(krate.fields.get("other").map(String::as_str), Some("Vec"));
    }

    #[test]
    fn statics_are_recorded() {
        let items = items_of("use std::sync::Mutex;\nstatic LOCK_A: Mutex<()> = Mutex::new(());\n");
        assert_eq!(
            items.bindings.get("LOCK_A").map(String::as_str),
            Some("std::sync::Mutex")
        );
    }
}
