//! The Focus-specific lint rules, run over one lexed source file (FC002,
//! FC004, FC006 and the path-aware FC007) or one crate's module list
//! (FC003).

use crate::diag::{Diagnostic, Rule};
use crate::items::{self, paths, CrateItems, FileItems};
use crate::lexer::{lex, Token, TokenKind};

/// Graph/partition state whose public mutators must be invariant-checked
/// (rule FC004): the overlap graph, the coarsened multilevel set, the hybrid
/// set, and level graphs (paper §II–§IV).
const MUTATION_GUARDED_TYPES: [&str; 5] = [
    "DiGraph",
    "HybridSet",
    "MultilevelSet",
    "LevelGraph",
    "GraphSet",
];

/// Analyzes one library source file in isolation: lexes it, builds its own
/// item table, and runs every per-file rule. The workspace driver uses
/// [`analyze_tokens`] instead so item tables are built once and shared
/// crate-wide.
pub fn analyze_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let file_items = items::collect(&tokens);
    let mut krate = CrateItems::default();
    krate.absorb(&file_items);
    analyze_tokens(rel_path, src, &tokens, &file_items, &krate)
}

/// Runs every per-file rule over an already-lexed file with its item tables;
/// `rel_path` is the workspace-relative path used in diagnostics.
pub fn analyze_tokens(
    rel_path: &str,
    src: &str,
    tokens: &[Token],
    file_items: &FileItems,
    krate: &CrateItems,
) -> Vec<Diagnostic> {
    let excluded = test_spans(tokens);
    let lines: Vec<&str> = src.lines().collect();
    let snippet =
        |line: usize| -> Option<String> { lines.get(line.wrapping_sub(1)).map(|l| l.to_string()) };

    let mut out = Vec::new();
    no_unbounded_queue(rel_path, tokens, &excluded, &lines, &snippet, &mut out);
    pub_fn_rules(rel_path, tokens, &excluded, &snippet, &mut out);
    nondet_iteration(
        rel_path, tokens, &excluded, file_items, krate, &snippet, &mut out,
    );
    out
}

/// Flags near-colliding module filenames within one crate (FC003).
///
/// Two stems collide when one is a prefix of the other and they differ by at
/// most two trailing characters (`error` vs `errors`). Stems that differ by
/// substitution (`fasta` vs `fastq`) are distinct on purpose and not
/// flagged.
pub fn module_collisions(crate_rel: &str, stems: &[(String, String)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..stems.len() {
        for j in i + 1..stems.len() {
            let (a, pa) = &stems[i];
            let (b, pb) = &stems[j];
            if a == b {
                continue;
            }
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            if long.starts_with(short.as_str()) && long.len() - short.len() <= 2 {
                out.push(Diagnostic {
                    rule: Rule::ModuleCollision,
                    path: crate_rel.to_string(),
                    line: 0,
                    col: 0,
                    message: format!("module names `{pa}` and `{pb}` collide up to a suffix"),
                    snippet: None,
                    help: "rename one module so imports cannot be confused \
                           (e.g. `errors.rs` → `error_removal.rs`)"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// Marks every token inside `#[cfg(test)]` items, `#[test]` functions, and
/// other test-gated items as excluded from the lint rules.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut excluded = vec![false; tokens.len()];
    let mut i = 0usize;
    let mut pending_test = false;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('#') && tokens.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false) {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            pending_test |= is_test;
            i = attr_end;
            continue;
        }
        if pending_test && t.kind == TokenKind::Ident && is_item_keyword(&t.text) {
            let end = skip_item(tokens, i);
            for flag in excluded.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            pending_test = false;
            i = end;
            continue;
        }
        // Any other real token between the attribute and its item (doc
        // comments and further attributes are handled above) cancels the
        // pending flag; `pub`/`unsafe`/`async`/`const`/`extern` prefix an
        // item and keep it, as do the words of a `pub(crate)`-style
        // restriction.
        if pending_test
            && t.kind == TokenKind::Ident
            && !matches!(
                t.text.as_str(),
                "pub" | "crate" | "super" | "self" | "in" | "unsafe" | "async" | "const" | "extern"
            )
            && t.kind != TokenKind::DocComment
        {
            pending_test = false;
        }
        i += 1;
    }
    excluded
}

/// Scans the attribute starting at the `[` token index; returns the index
/// just past the closing `]` and whether the attribute gates test code.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(&t.text);
        }
        i += 1;
    }
    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` gate test code;
    // `#[cfg(not(test))]` does not. `not` anywhere makes us conservative.
    let is_test = match idents.as_slice() {
        ["test"] => true,
        [first, rest @ ..] if *first == "cfg" => rest.contains(&"test") && !rest.contains(&"not"),
        _ => false,
    };
    (i, is_test)
}

fn is_item_keyword(s: &str) -> bool {
    matches!(
        s,
        "fn" | "mod"
            | "struct"
            | "enum"
            | "impl"
            | "trait"
            | "const"
            | "static"
            | "type"
            | "macro_rules"
            | "use"
    )
}

/// Returns the token index just past the item starting at `start` (an item
/// keyword): past the matching `}` of its body, or past the terminating `;`.
fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    let mut brace_depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            brace_depth += 1;
        } else if t.is_punct('}') {
            brace_depth -= 1;
            if brace_depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(';') && brace_depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// FC006 — unbounded channel/queue constructors in non-test library code.
///
/// Flags `mpsc::channel(...)` (std's unbounded flavour; `sync_channel` is
/// fine) outright — a producer that outruns its consumer grows it without
/// limit, so admission control has to live somewhere. `VecDeque`
/// constructors are flagged too, unless the word "bound" (as in "bounded
/// by", "capacity bound") appears on the same or one of the four
/// preceding source lines — a Vec-backed queue is legitimate exactly when
/// the surrounding code states what bounds it.
fn no_unbounded_queue(
    rel_path: &str,
    tokens: &[Token],
    excluded: &[bool],
    lines: &[&str],
    snippet: &dyn Fn(usize) -> Option<String>,
    out: &mut Vec<Diagnostic>,
) {
    let documented_bound = |line: usize| {
        // `line` is 1-based: inspect it and up to 4 preceding raw lines.
        (line.saturating_sub(5)..line)
            .filter_map(|idx| lines.get(idx))
            .any(|l| l.to_ascii_lowercase().contains("bound"))
    };
    for (i, t) in tokens.iter().enumerate() {
        if excluded[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let punct_at =
            |k: usize, c: char| tokens.get(i + k).map(|n| n.is_punct(c)).unwrap_or(false);
        let ident_at = |k: usize| {
            tokens
                .get(i + k)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text.as_str())
        };
        // `Type::ctor(` — the constructor ident two `:` puncts ahead.
        let path_ctor = || {
            (punct_at(1, ':') && punct_at(2, ':') && punct_at(4, '('))
                .then(|| ident_at(3))
                .flatten()
        };
        let found = match t.text.as_str() {
            "channel"
                if punct_at(1, '(')
                    && i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].is_ident("mpsc") =>
            {
                Some((
                    "`mpsc::channel(..)` is unbounded".to_string(),
                    "use `mpsc::sync_channel(cap)` with a config-derived capacity",
                ))
            }
            "VecDeque"
                if matches!(path_ctor(), Some("new" | "with_capacity" | "from"))
                    && !documented_bound(t.line) =>
            {
                Some((
                    "`VecDeque` queue without a documented capacity bound".to_string(),
                    "state the bound in a comment on or just above this line (e.g. \
                     \"bounded by cfg.capacity, checked in admit\") or size it from \
                     config",
                ))
            }
            _ => None,
        };
        if let Some((message, help)) = found {
            out.push(Diagnostic {
                rule: Rule::NoUnboundedQueue,
                path: rel_path.to_string(),
                line: t.line,
                col: t.col,
                message,
                snippet: snippet(t.line),
                help: help.to_string(),
            });
        }
    }
}

/// Methods whose iteration order is the receiver's internal order. `retain`
/// and `extend` are excluded on purpose: `retain` only observes order through
/// side effects (rare, and FC007's job is the common data path), and
/// `extend`'s order question lives at the *source* of the iterator.
const NONDET_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// FC007 — iteration over `HashMap`/`HashSet` in non-test library code.
///
/// A finding fires when the receiver of an order-exposing method (or the
/// subject of a `for … in` loop) resolves — through the file's import map
/// and binding/field tables — to `std::collections::{HashMap, HashSet}`,
/// unless an adjacent canonicalizing sort follows within two lines (the
/// `collect()-then-sort_unstable()` idiom). Unresolvable receivers fail
/// open: precision over recall.
fn nondet_iteration(
    rel_path: &str,
    tokens: &[Token],
    excluded: &[bool],
    file_items: &FileItems,
    krate: &CrateItems,
    snippet: &dyn Fn(usize) -> Option<String>,
    out: &mut Vec<Diagnostic>,
) {
    // A canonicalizing sort on the finding's line or the two after it
    // waives the finding: hash order was collected, then sorted away.
    let sort_nearby = |line: usize| {
        tokens.iter().any(|t| {
            t.kind == TokenKind::Ident
                && t.text.starts_with("sort")
                && t.line >= line
                && t.line <= line + 2
        })
    };
    let short = |canonical: &str| {
        canonical
            .rsplit("::")
            .next()
            .unwrap_or(canonical)
            .to_string()
    };
    let push = |out: &mut Vec<Diagnostic>, t: &Token, receiver: &str, canonical: &str| {
        out.push(Diagnostic {
            rule: Rule::NondetIteration,
            path: rel_path.to_string(),
            line: t.line,
            col: t.col,
            message: format!(
                "iteration over `{}` (`{receiver}`) in hash order",
                short(canonical)
            ),
            snippet: snippet(t.line),
            help: "hash iteration order varies per process and breaks bit-identical \
                   output; collect-and-sort adjacently or switch the container to \
                   BTreeMap/BTreeSet"
                .to_string(),
        });
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if excluded[i] || t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // `receiver.iter()` / `.keys()` / `.drain()` / ...
        if NONDET_ITER_METHODS.contains(&t.text.as_str())
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            if let Some((name, ty)) = receiver_type(tokens, i - 1, file_items, krate) {
                if (ty == paths::HASH_MAP || ty == paths::HASH_SET) && !sort_nearby(t.line) {
                    push(out, t, &name, &ty);
                }
            }
            i += 1;
            continue;
        }
        // `for pat in <header> {` — direct iteration and the
        // `collect::<HashSet<_>>()` turbofish in loop headers.
        if t.is_ident("for") {
            if let Some((in_idx, open_idx)) = for_header(tokens, i) {
                scan_for_header(
                    rel_path,
                    tokens,
                    in_idx,
                    open_idx,
                    file_items,
                    krate,
                    &sort_nearby,
                    snippet,
                    out,
                );
            }
        }
        i += 1;
    }
}

/// Resolves the receiver ending just before the `.` at `dot`: the canonical
/// type of the trailing identifier, looked up as a field when qualified
/// (`self.votes.`, `shared.core.`) and as a binding otherwise. Returns the
/// spelled name alongside. Non-identifier receivers (`)` or `]`) fail open.
fn receiver_type(
    tokens: &[Token],
    dot: usize,
    file_items: &FileItems,
    krate: &CrateItems,
) -> Option<(String, String)> {
    if dot == 0 {
        return None;
    }
    let r = &tokens[dot - 1];
    if r.kind != TokenKind::Ident || r.is_ident("self") {
        return None;
    }
    let qualified =
        dot >= 3 && tokens[dot - 2].is_punct('.') && tokens[dot - 3].kind == TokenKind::Ident;
    let ty = if qualified {
        file_items
            .fields
            .get(&r.text)
            .or_else(|| krate.fields.get(&r.text))
            .cloned()
    } else {
        file_items.type_of(krate, &r.text).map(str::to_string)
    };
    ty.map(|ty| (r.text.clone(), ty))
}

/// Locates a `for` loop's header: the index of its depth-0 `in` and of the
/// `{` opening the body.
fn for_header(tokens: &[Token], for_idx: usize) -> Option<(usize, usize)> {
    let mut depth = 0isize;
    let mut j = for_idx + 1;
    let mut in_idx = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && in_idx.is_none() && t.is_ident("in") {
            in_idx = Some(j);
        } else if depth == 0 && t.is_punct('{') {
            return in_idx.map(|i| (i, j));
        } else if t.is_punct(';') {
            return None; // malformed / not actually a loop
        }
        j += 1;
    }
    None
}

/// FC007's `for`-header checks: `for x in map {`-style direct iteration over
/// a hash container, and `for x in v.collect::<HashSet<_>>() {`. Method
/// calls inside the header (`map.drain()`) are caught by the method branch
/// of [`nondet_iteration`] and skipped here.
#[allow(clippy::too_many_arguments)]
fn scan_for_header(
    rel_path: &str,
    tokens: &[Token],
    in_idx: usize,
    open_idx: usize,
    file_items: &FileItems,
    krate: &CrateItems,
    sort_nearby: &dyn Fn(usize) -> bool,
    snippet: &dyn Fn(usize) -> Option<String>,
    out: &mut Vec<Diagnostic>,
) {
    // Turbofish: a `collect::<HashSet<_>>()` anywhere in the header makes
    // the loop iterate a freshly-hashed container.
    for k in in_idx..open_idx {
        if tokens[k].is_ident("collect")
            && tokens.get(k + 1).map(|t| t.is_punct(':')).unwrap_or(false)
            && tokens.get(k + 2).map(|t| t.is_punct(':')).unwrap_or(false)
            && tokens.get(k + 3).map(|t| t.is_punct('<')).unwrap_or(false)
        {
            let mut segs = Vec::new();
            let mut m = k + 4;
            while let Some(t) = tokens.get(m).filter(|t| t.kind == TokenKind::Ident) {
                segs.push(t.text.clone());
                if tokens.get(m + 1).map(|t| t.is_punct(':')).unwrap_or(false)
                    && tokens.get(m + 2).map(|t| t.is_punct(':')).unwrap_or(false)
                {
                    m += 3;
                } else {
                    break;
                }
            }
            if segs.is_empty() {
                continue;
            }
            let canonical = items::canonicalize(&segs, file_items);
            if (canonical == paths::HASH_MAP || canonical == paths::HASH_SET)
                && !sort_nearby(tokens[k].line)
            {
                let t = &tokens[k];
                out.push(Diagnostic {
                    rule: Rule::NondetIteration,
                    path: rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`for` loop over a freshly collected `{}` in hash order",
                        canonical.rsplit("::").next().unwrap_or(&canonical)
                    ),
                    snippet: snippet(t.line),
                    help: "collect into a Vec and sort+dedup instead — same \
                           uniqueness, deterministic order"
                        .to_string(),
                });
            }
            return;
        }
    }
    // Direct iteration: `for x in [&[mut]] name {` / `... self.name {`.
    let mut j = in_idx + 1;
    while tokens
        .get(j)
        .map(|t| t.is_punct('&') || t.is_ident("mut"))
        .unwrap_or(false)
    {
        j += 1;
    }
    let Some(first) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
        return;
    };
    let (name_tok, ty) = if first.is_ident("self")
        && tokens.get(j + 1).map(|t| t.is_punct('.')).unwrap_or(false)
        && j + 3 == open_idx
    {
        let Some(field) = tokens.get(j + 2).filter(|t| t.kind == TokenKind::Ident) else {
            return;
        };
        let ty = file_items
            .fields
            .get(&field.text)
            .or_else(|| krate.fields.get(&field.text))
            .cloned();
        (field, ty)
    } else if j + 1 == open_idx {
        (
            first,
            file_items.type_of(krate, &first.text).map(str::to_string),
        )
    } else {
        return;
    };
    if let Some(ty) = ty {
        if (ty == paths::HASH_MAP || ty == paths::HASH_SET) && !sort_nearby(name_tok.line) {
            out.push(Diagnostic {
                rule: Rule::NondetIteration,
                path: rel_path.to_string(),
                line: name_tok.line,
                col: name_tok.col,
                message: format!(
                    "`for` loop over `{}` (`{}`) in hash order",
                    ty.rsplit("::").next().unwrap_or(&ty),
                    name_tok.text
                ),
                snippet: snippet(name_tok.line),
                help: "hash iteration order varies per process and breaks bit-identical \
                       output; collect-and-sort adjacently or switch the container to \
                       BTreeMap/BTreeSet"
                    .to_string(),
            });
        }
    }
}

/// Everything about one `pub fn` signature the rules need.
struct PubFn {
    name: String,
    line: usize,
    col: usize,
    /// Tokens between the signature's outer parentheses.
    params: Vec<Token>,
    /// Tokens after `->` up to the body/terminator.
    ret: Vec<Token>,
    /// Doc-comment lines immediately preceding the item.
    docs: Vec<String>,
}

/// FC002 + FC004 — rules over public function signatures.
fn pub_fn_rules(
    rel_path: &str,
    tokens: &[Token],
    excluded: &[bool],
    snippet: &dyn Fn(usize) -> Option<String>,
    out: &mut Vec<Diagnostic>,
) {
    for f in collect_pub_fns(tokens, excluded) {
        let mut sig = f.params.clone();
        sig.extend(f.ret.iter().cloned());
        if let Some(line) = find_result_string(&sig) {
            out.push(Diagnostic {
                rule: Rule::StringError,
                path: rel_path.to_string(),
                line,
                col: 0,
                message: format!(
                    "`Result<_, String>` in the public signature of `{}`",
                    f.name
                ),
                snippet: snippet(f.line),
                help: "use a typed error enum so callers can match on the failure mode".to_string(),
            });
        }
        if let Some(ty) = mutates_guarded_state(&f.params) {
            let returns_result = f.ret.iter().any(|t| t.is_ident("Result"));
            let has_invariants_doc = f.docs.iter().any(|d| d.trim().starts_with("# Invariants"));
            if !returns_result && !has_invariants_doc {
                out.push(Diagnostic {
                    rule: Rule::InvariantDoc,
                    path: rel_path.to_string(),
                    line: f.line,
                    col: f.col,
                    message: format!(
                        "pub fn `{}` mutates `{ty}` but neither returns a typed \
                         `Result` nor documents a `# Invariants` section",
                        f.name
                    ),
                    snippet: snippet(f.line),
                    help: "either return a typed error for violated preconditions, or \
                           add a `# Invariants` doc section stating what the mutation \
                           preserves"
                        .to_string(),
                });
            }
        }
    }
}

/// Walks the token stream collecting truly-public (`pub`, not `pub(crate)`)
/// functions outside test spans, with their docs, params, and return type.
fn collect_pub_fns(tokens: &[Token], excluded: &[bool]) -> Vec<PubFn> {
    let mut out = Vec::new();
    let mut docs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::DocComment {
            docs.push(t.text.clone());
            i += 1;
            continue;
        }
        if t.is_punct('#') && tokens.get(i + 1).map(|n| n.is_punct('[')).unwrap_or(false) {
            // Attributes between docs and the item keep the docs alive.
            let (end, _) = scan_attribute(tokens, i + 1);
            i = end;
            continue;
        }
        if excluded[i] || !t.is_ident("pub") {
            if !(t.is_ident("pub") && excluded[i]) && t.kind != TokenKind::DocComment {
                docs.clear();
            }
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)` / `pub(in ...)` are not public API.
        if tokens.get(j).map(|n| n.is_punct('(')).unwrap_or(false) {
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('(') {
                    depth += 1;
                } else if tokens[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            docs.clear();
            i = j;
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub async unsafe fn`, ...
        while tokens
            .get(j)
            .map(|n| matches!(n.text.as_str(), "const" | "async" | "unsafe" | "extern"))
            .unwrap_or(false)
            || tokens
                .get(j)
                .map(|n| n.kind == TokenKind::Literal)
                .unwrap_or(false)
        {
            j += 1;
        }
        if !tokens.get(j).map(|n| n.is_ident("fn")).unwrap_or(false) {
            docs.clear();
            i = j.max(i + 1);
            continue;
        }
        let Some(name_tok) = tokens.get(j + 1) else {
            break;
        };
        if let Some(f) = parse_signature(tokens, j + 1) {
            out.push(PubFn {
                name: name_tok.text.clone(),
                line: name_tok.line,
                col: name_tok.col,
                params: f.0,
                ret: f.1,
                docs: std::mem::take(&mut docs),
            });
        }
        docs.clear();
        i = j + 1;
    }
    out
}

/// From the fn-name token index, splits the signature into parameter tokens
/// (inside the outer parens) and return tokens (after `->`, before the body
/// `{` or `;`).
fn parse_signature(tokens: &[Token], name_idx: usize) -> Option<(Vec<Token>, Vec<Token>)> {
    let mut i = name_idx + 1;
    // Skip generics on the name: `fn foo<'a, T: Bound>(...)`.
    if tokens.get(i).map(|t| t.is_punct('<')).unwrap_or(false) {
        let mut depth = 0isize;
        while i < tokens.len() {
            if tokens[i].is_punct('<') {
                depth += 1;
            } else if tokens[i].is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    if !tokens.get(i).map(|t| t.is_punct('(')).unwrap_or(false) {
        return None;
    }
    let mut depth = 0usize;
    let mut params = Vec::new();
    while i < tokens.len() {
        if tokens[i].is_punct('(') {
            depth += 1;
            if depth == 1 {
                i += 1;
                continue;
            }
        } else if tokens[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        }
        params.push(tokens[i].clone());
        i += 1;
    }
    // Return type: `-> ... {` or `-> ... ;` or `-> ... where`.
    let mut ret = Vec::new();
    if tokens.get(i).map(|t| t.is_punct('-')).unwrap_or(false)
        && tokens.get(i + 1).map(|t| t.is_punct('>')).unwrap_or(false)
    {
        i += 2;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            ret.push(t.clone());
            i += 1;
        }
    }
    Some((params, ret))
}

/// Finds `Result<_, String>` (or `..::Result<_, String>`) in signature
/// tokens; returns the line of the offending `Result` if present.
fn find_result_string(sig: &[Token]) -> Option<usize> {
    for (i, t) in sig.iter().enumerate() {
        if !t.is_ident("Result") || !sig.get(i + 1).map(|n| n.is_punct('<')).unwrap_or(false) {
            continue;
        }
        // Walk the generic arguments, splitting at depth-1 commas.
        let mut depth = 0isize;
        let mut args: Vec<Vec<&Token>> = vec![Vec::new()];
        let mut j = i + 1;
        while j < sig.len() {
            let u = &sig[j];
            if u.is_punct('<') {
                depth += 1;
                if depth == 1 {
                    j += 1;
                    continue;
                }
            } else if u.is_punct('>') && !(j > 0 && sig[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if u.is_punct(',') && depth == 1 {
                args.push(Vec::new());
                j += 1;
                continue;
            }
            if let Some(last) = args.last_mut() {
                last.push(u);
            }
            j += 1;
        }
        if args.len() >= 2 {
            let err = &args[args.len() - 1];
            let is_string = matches!(
                err.as_slice(),
                [t] if t.is_ident("String")
            ) || err.len() >= 3
                && err[err.len() - 1].is_ident("String")
                && err[err.len() - 2].is_punct(':')
                && err[err.len() - 3].is_punct(':');
            if is_string {
                return Some(t.line);
            }
        }
    }
    None
}

/// Does the parameter list mutate guarded assembly state? Returns the name
/// of the first guarded type found behind a `&mut`.
fn mutates_guarded_state(params: &[Token]) -> Option<String> {
    // Split params at top-level commas; inspect each param independently.
    let mut depth = 0isize;
    let mut start = 0usize;
    let mut spans = Vec::new();
    for (i, t) in params.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "<" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokenKind::Punct => depth -= 1,
            ">" if t.kind == TokenKind::Punct && !(i > 0 && params[i - 1].is_punct('-')) => {
                depth -= 1
            }
            "," if t.kind == TokenKind::Punct && depth == 0 => {
                spans.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < params.len() {
        spans.push(&params[start..]);
    }
    for span in spans {
        // Find `& [lifetime]? mut` within this param.
        let mut k = 0usize;
        let mut is_mut_ref = false;
        while k < span.len() {
            if span[k].is_punct('&') {
                let mut m = k + 1;
                if span
                    .get(m)
                    .map(|t| t.kind == TokenKind::Lifetime)
                    .unwrap_or(false)
                {
                    m += 1;
                }
                if span.get(m).map(|t| t.is_ident("mut")).unwrap_or(false) {
                    is_mut_ref = true;
                    break;
                }
            }
            k += 1;
        }
        if !is_mut_ref {
            continue;
        }
        if let Some(ty) = span.iter().find_map(|t| {
            MUTATION_GUARDED_TYPES
                .iter()
                .find(|g| t.is_ident(g))
                .map(|g| g.to_string())
        }) {
            return Some(ty);
        }
        // `parts: &mut [u32]` / `&mut Vec<u32>` — a partition vector when the
        // parameter name says so.
        let param_name = span.first().filter(|t| t.kind == TokenKind::Ident);
        let named_parts = param_name.map(|t| t.text.contains("part")).unwrap_or(false);
        let is_u32_seq = span.iter().any(|t| t.is_ident("u32"))
            && span.iter().any(|t| t.is_punct('[') || t.is_ident("Vec"));
        if named_parts && is_u32_seq {
            return Some("partition vector".to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<(&'static str, usize)> {
        analyze_file("lib.rs", src)
            .into_iter()
            .map(|d| (d.rule.code(), d.line))
            .collect()
    }

    // The test-code probes below iterate a `HashSet` (FC007), which is a
    // finding in library code and none in test code.

    #[test]
    fn ignores_test_modules_and_test_fns() {
        let src = r#"use std::collections::HashSet;
fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t(s: &HashSet<u8>) { for v in s.iter() {} let _ = s.drain(); }
}

#[test]
fn top_level_test(s: &HashSet<u8>) -> usize { s.iter().count() }
"#;
        assert!(rules_hit(src).is_empty());
        let untested = src.replace("#[cfg(test)]", "").replace("#[test]", "");
        assert_eq!(
            rules_hit(&untested),
            vec![("FC007", 7), ("FC007", 7), ("FC007", 11)]
        );
    }

    #[test]
    fn cfg_any_test_is_test_code() {
        let src = "use std::collections::HashSet;\n#[cfg(any(test, feature = \"slow\"))]\nmod helpers { pub fn h(s: &HashSet<u8>) -> usize { s.iter().count() } }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_library_code() {
        let src = "use std::collections::HashSet;\n#[cfg(not(test))]\nmod real { pub fn r(s: &HashSet<u8>) -> usize { s.iter().count() } }\n";
        assert_eq!(rules_hit(src), vec![("FC007", 3)]);
    }

    #[test]
    fn code_after_test_module_is_still_linted() {
        let src = "use std::collections::HashSet;\n#[cfg(test)]\nmod tests { fn t() {} }\n\npub fn later(s: &HashSet<u8>) -> usize { s.iter().count() }\n";
        assert_eq!(rules_hit(src), vec![("FC007", 5)]);
    }

    #[test]
    fn restricted_visibility_keeps_a_test_item_test_code() {
        let src = "use std::collections::HashSet;\n#[cfg(test)]\npub(crate) mod tests { pub(crate) fn t(s: &HashSet<u8>) -> usize { s.iter().count() } }\n\npub fn later(s: &HashSet<u8>) -> usize { s.iter().count() }\n";
        assert_eq!(rules_hit(src), vec![("FC007", 5)]);
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = "use std::collections::HashSet;\n// s.iter()\nfn f(s: &HashSet<u8>) -> &'static str { \"s.iter()\" }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn flags_result_string_in_pub_signature() {
        let src = "pub fn parse(s: &str) -> Result<u32, String> { s.parse().map_err(|e| format!(\"{e}\")) }\n";
        assert_eq!(rules_hit(src), vec![("FC002", 1)]);
    }

    #[test]
    fn nested_ok_type_does_not_confuse_fc002() {
        let src = "pub fn f() -> Result<Vec<String>, std::io::Error> { Ok(Vec::new()) }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn private_and_crate_fns_escape_fc002() {
        let src = "fn a() -> Result<u32, String> { Ok(1) }\npub(crate) fn b() -> Result<u32, String> { Ok(2) }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn qualified_string_error_is_flagged() {
        let src = "pub fn f() -> Result<(), std::string::String> { Ok(()) }\n";
        assert_eq!(rules_hit(src), vec![("FC002", 1)]);
    }

    #[test]
    fn mutator_without_docs_or_result_is_flagged() {
        let src = "pub fn remove_all(g: &mut DiGraph, nodes: &[u32]) -> usize { nodes.len() }\n";
        assert_eq!(rules_hit(src), vec![("FC004", 1)]);
    }

    #[test]
    fn mutator_with_invariants_doc_passes() {
        let src = "/// Removes nodes.\n///\n/// # Invariants\n/// Keeps edge weights conserved.\npub fn remove_all(g: &mut DiGraph) -> usize { 0 }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn mutator_returning_result_passes() {
        let src = "pub fn remove_all(g: &mut DiGraph) -> Result<usize, DistError> { Ok(0) }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn partition_vector_param_is_guarded() {
        let src = "pub fn rebalance(parts: &mut [u32], k: usize) {}\n";
        assert_eq!(rules_hit(src), vec![("FC004", 1)]);
    }

    #[test]
    fn shared_ref_is_not_a_mutation() {
        let src = "pub fn inspect(g: &DiGraph, parts: &[u32]) -> usize { parts.len() }\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn attributes_between_docs_and_fn_keep_docs() {
        let src = "/// # Invariants\n/// ok\n#[inline]\npub fn m(g: &mut DiGraph) {}\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn flags_mpsc_channel_but_not_sync_channel() {
        let src = "\
fn a() { let (tx, rx) = std::sync::mpsc::channel(); }
fn b() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }
fn c() { let (tx, rx) = std::sync::mpsc::sync_channel(16); }
";
        // Turbofish on `channel::<u32>` hides the call parens from the
        // simple pattern; the plain form is caught, and `sync_channel` is
        // never flagged.
        assert_eq!(rules_hit(src), vec![("FC006", 1)]);
    }

    #[test]
    fn vecdeque_needs_a_documented_bound() {
        let bare = "fn f() { let q = std::collections::VecDeque::from([1u32]); }\n";
        assert_eq!(rules_hit(bare), vec![("FC006", 1)]);
        let documented = "\
fn f() {
    // Bounded by the node count: each node is pushed at most once.
    let q = std::collections::VecDeque::from([1u32]);
}
";
        assert!(rules_hit(documented).is_empty());
        let same_line = "fn f() { let q: std::collections::VecDeque<u32> = std::collections::VecDeque::new(); /* bounded by admit() */ }\n";
        assert!(rules_hit(same_line).is_empty());
    }

    #[test]
    fn queues_in_tests_escape_fc006() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let q = std::collections::VecDeque::from([1]); }\n}\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn module_collision_prefix_only() {
        let stems = vec![
            ("error".to_string(), "src/error.rs".to_string()),
            ("errors".to_string(), "src/errors.rs".to_string()),
            ("fasta".to_string(), "src/fasta.rs".to_string()),
            ("fastq".to_string(), "src/fastq.rs".to_string()),
        ];
        let diags = module_collisions("crates/dist", &stems);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("error.rs"));
        assert!(diags[0].message.contains("errors.rs"));
    }

    #[test]
    fn fc007_flags_hashmap_iteration_through_imports() {
        let src = "\
use std::collections::HashMap;
fn f(votes: &HashMap<u64, u32>) -> u32 {
    let mut best = 0;
    for (_, v) in votes.iter() {
        best = best.max(*v);
    }
    best
}
";
        assert_eq!(rules_hit(src), vec![("FC007", 4)]);
    }

    #[test]
    fn fc007_adjacent_sort_waives_the_finding() {
        let src = "\
use std::collections::HashMap;
fn f(votes: &HashMap<u64, u32>) -> Vec<(u64, u32)> {
    let mut flat: Vec<(u64, u32)> = votes.iter().map(|(&k, &v)| (k, v)).collect();
    flat.sort_unstable();
    flat
}
";
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn fc007_btree_receivers_are_fine() {
        let src = "\
use std::collections::BTreeMap;
fn f(m: &BTreeMap<u64, u32>) -> u32 {
    let mut s = 0;
    for (_, v) in m.iter() {
        s += *v;
    }
    for v in m.values() {
        s += *v;
    }
    s
}
";
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn fc007_direct_for_loop_and_fields() {
        let src = "\
use std::collections::{HashMap, HashSet};
struct S { seen: HashSet<u32> }
impl S {
    fn g(&self) -> u32 {
        let mut n = 0;
        for v in &self.seen {
            n ^= *v;
        }
        n
    }
}
fn h() {
    let mut votes: HashMap<u32, u32> = HashMap::new();
    votes.insert(1, 2);
    for (k, v) in votes {
        let _ = k + v;
    }
}
";
        let hits = rules_hit(src);
        assert_eq!(hits, vec![("FC007", 6), ("FC007", 15)], "{hits:?}");
    }

    #[test]
    fn fc007_collect_turbofish_in_for_header() {
        let src = "\
use std::collections::HashSet;
fn f(recorded: Vec<u32>) {
    for v in recorded.into_iter().collect::<HashSet<_>>() {
        let _ = v;
    }
}
";
        let hits = rules_hit(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "FC007");
    }

    #[test]
    fn fc007_user_hashmap_is_not_flagged() {
        let src = "\
use crate::mini::HashMap;
fn f(m: &HashMap) {
    for v in m.iter() {
        let _ = v;
    }
}
";
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }
}
