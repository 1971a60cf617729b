//! FC009 — the workspace lock-order audit.
//!
//! Two threads that acquire the same pair of locks in opposite orders can
//! deadlock; TSan and the chaos tests only catch the schedules they happen
//! to run. This module proves the absence of that class statically, for the
//! idioms this workspace actually uses (fc-serve's `Core` mutex behind the
//! `lock_core` helper, fc-obs's generic `lock(&self.counters)` helper):
//!
//! 1. **Per-function acquisition scan.** Every `x.lock()` / `.read()` /
//!    `.write()` whose receiver resolves (through the [`crate::items`]
//!    tables) to `std::sync::Mutex`/`RwLock` is an acquisition. A lock is
//!    identified crate-wide by `crate-name::binding-or-field-name` —
//!    field names are how this workspace names its locks, so `self.core`
//!    and `shared.core` are the same lock.
//! 2. **Guard liveness.** A `let`-bound guard lives to the end of its
//!    enclosing block; a temporary guard lives to the end of its statement;
//!    `drop(g)` ends a guard early. While any guard is live, each further
//!    acquisition adds a `held → acquired` edge.
//! 3. **Helper propagation (one level).** A fn returning a
//!    `MutexGuard`/`RwLock*Guard` is a *guard helper*: calling it acquires
//!    the lock it locks, with normal liveness at the call site. A lock
//!    parameter (`fn lock<T>(m: &Mutex<T>)`) is resolved from the argument
//!    at each call site. Non-guard-returning callees that lock internally
//!    contribute transient edges (held only while the call runs).
//! 4. **Cycle detection.** The union of all edges is one workspace digraph;
//!    any cycle (including a self-edge — relocking a held `std::sync`
//!    mutex deadlocks immediately) is reported with both acquisition sites.
//!
//! Unresolvable receivers and arguments fail open, like the other
//! path-aware rules: FC009 proves what it can see, and what it can see is
//! every lock this workspace has.

use crate::diag::{Diagnostic, Rule};
use crate::items::{paths, CrateItems, FileItems};
use crate::lexer::{Token, TokenKind};
use crate::rules::test_spans;
use std::collections::{BTreeMap, BTreeSet};

/// Where an acquisition happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub func: String,
}

/// A lock as seen from inside one function.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LockRef {
    /// A concrete lock: `crate-name::name`.
    Fixed(String),
    /// The lock behind (non-self) parameter `i`, resolved at call sites.
    Param(usize),
}

/// One acquisition inside a fn body, in source order. Only the lock
/// identity matters for splicing: when a helper's acquisitions replay at a
/// call site, the edges are anchored at the call, not inside the helper.
#[derive(Debug, Clone)]
struct Acq {
    lock: LockRef,
}

/// What one function does with locks (pass 1 result).
#[derive(Debug, Clone, Default)]
struct FnSummary {
    acquires: Vec<Acq>,
    /// Returns the guard of its *last* acquisition to the caller.
    returns_guard: bool,
}

/// A `held → acquired` edge with both sites.
#[derive(Debug, Clone)]
struct Edge {
    hold_site: Site,
    acq_site: Site,
}

struct StoredFile {
    crate_name: String,
    rel_path: String,
    tokens: Vec<Token>,
    items: FileItems,
}

/// Accumulates files, then resolves the workspace lock-order graph.
#[derive(Default)]
pub struct Collector {
    files: Vec<StoredFile>,
    crates: BTreeMap<String, CrateItems>,
}

impl Collector {
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Registers a crate's merged item table (fields resolve crate-wide).
    pub fn add_crate(&mut self, crate_name: &str, krate: &CrateItems) {
        self.crates.insert(crate_name.to_string(), krate.clone());
    }

    /// Registers one lexed file for the audit.
    pub fn add_file(
        &mut self,
        crate_name: &str,
        rel_path: &str,
        tokens: &[Token],
        items: &FileItems,
    ) {
        self.files.push(StoredFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            tokens: tokens.to_vec(),
            items: items.clone(),
        });
    }

    /// Builds the workspace lock-order graph and reports every cycle.
    pub fn finish(&self) -> Vec<Diagnostic> {
        let empty = CrateItems::default();
        // Pass 1: per-fn summaries (direct acquisitions only). Only fns
        // that touch locks enter the table, so name collisions stay rare;
        // the first definition wins deterministically (files arrive in
        // sorted order from the workspace walk).
        let mut table: BTreeMap<String, FnSummary> = BTreeMap::new();
        for file in &self.files {
            let krate = self.crates.get(&file.crate_name).unwrap_or(&empty);
            for f in functions(&file.tokens) {
                let summary = scan_body(file, krate, &f, None, &mut BTreeMap::new());
                if !summary.acquires.is_empty() {
                    table.entry(f.name.clone()).or_insert(summary);
                }
            }
        }
        // Pass 2: rescan with the helper table, building edges.
        let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
        for file in &self.files {
            let krate = self.crates.get(&file.crate_name).unwrap_or(&empty);
            for f in functions(&file.tokens) {
                scan_body(file, krate, &f, Some(&table), &mut edges);
            }
        }
        cycles_to_diagnostics(&edges)
    }
}

/// One function's name, parameter names, and body token range.
struct FnSpan {
    name: String,
    /// Non-`self` parameter names in order (for Param resolution).
    params: Vec<String>,
    returns_guard: bool,
    /// Token range of the body, *inside* the braces.
    body: std::ops::Range<usize>,
}

/// Extracts every non-test fn with a body from a token stream.
fn functions(tokens: &[Token]) -> Vec<FnSpan> {
    let excluded = test_spans(tokens);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if excluded[i] || !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // Find the parameter list, skipping generics on the name.
        let mut j = i + 2;
        let mut angle = 0isize;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
                angle -= 1;
            } else if angle == 0 && (t.is_punct('(') || t.is_punct('{') || t.is_punct(';')) {
                break;
            }
            j += 1;
        }
        if !tokens.get(j).map(|t| t.is_punct('(')).unwrap_or(false) {
            i += 2;
            continue;
        }
        let params_open = j;
        let mut depth = 0usize;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let params_close = j;
        // Return type up to the body `{` (or `;` for bodyless decls).
        let mut returns_guard = false;
        let mut k = params_close + 1;
        let mut body_open = None;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('{') {
                body_open = Some(k);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            if t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
                )
            {
                returns_guard = true;
            }
            k += 1;
        }
        let Some(open) = body_open else {
            i = params_close + 1;
            continue;
        };
        // Body range: inside the matching braces.
        let mut brace = 0usize;
        let mut m = open;
        let mut close = tokens.len();
        while m < tokens.len() {
            if tokens[m].is_punct('{') {
                brace += 1;
            } else if tokens[m].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    close = m;
                    break;
                }
            }
            m += 1;
        }
        out.push(FnSpan {
            name: name_tok.text.clone(),
            params: param_names(&tokens[params_open + 1..params_close]),
            returns_guard,
            body: open + 1..close,
        });
        i = close + 1;
    }
    out
}

/// Non-`self` parameter names at top-level commas of a param list.
fn param_names(params: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut start = 0usize;
    let mut spans = Vec::new();
    for (i, t) in params.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')')
            || t.is_punct(']')
            || (t.is_punct('>') && !(i > 0 && params[i - 1].is_punct('-')))
        {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            spans.push(&params[start..i]);
            start = i + 1;
        }
    }
    if start < params.len() {
        spans.push(&params[start..]);
    }
    for span in spans {
        let Some(name) = span
            .iter()
            .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))
        else {
            continue;
        };
        if name.is_ident("self") {
            continue;
        }
        out.push(name.text.clone());
    }
    out
}

/// Is this canonical type head a lock?
fn is_lock_type(canonical: &str) -> bool {
    canonical == paths::MUTEX || canonical == paths::RWLOCK
}

/// A live guard during the body scan.
struct LiveGuard {
    lock: LockRef,
    site: Site,
    /// Brace depth (relative to body start) the guard was bound at;
    /// let-bound guards die when their block closes.
    depth: usize,
    /// Temporaries die at the next `;`.
    temp: bool,
    /// Binding name, for `drop(g)`.
    name: Option<String>,
}

/// Scans one fn body. In pass 1 (`table == None`) it records the fn's own
/// acquisitions; in pass 2 it also splices helper calls and emits edges.
fn scan_body(
    file: &StoredFile,
    krate: &CrateItems,
    f: &FnSpan,
    table: Option<&BTreeMap<String, FnSummary>>,
    edges: &mut BTreeMap<(String, String), Edge>,
) -> FnSummary {
    let tokens = &file.tokens;
    let param_index: BTreeMap<&str, usize> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let is_lock_param = |name: &str| -> Option<usize> {
        let idx = *param_index.get(name)?;
        let ty = file.items.bindings.get(name)?;
        is_lock_type(ty).then_some(idx)
    };
    let site = |t: &Token| Site {
        path: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        func: f.name.clone(),
    };
    // The type of a lock-naming identifier: fields for qualified receivers
    // (`x.name.`), bindings first otherwise.
    let name_type = |name: &str, qualified: bool| -> Option<&String> {
        if qualified {
            file.items
                .fields
                .get(name)
                .or_else(|| krate.fields.get(name))
        } else {
            file.items
                .bindings
                .get(name)
                .or_else(|| file.items.fields.get(name))
                .or_else(|| krate.fields.get(name))
        }
    };
    let fixed_id = |name: &str, qualified: bool| -> Option<String> {
        let ty = name_type(name, qualified)?;
        is_lock_type(ty).then(|| format!("{}::{}", file.crate_name, name))
    };

    let mut summary = FnSummary {
        returns_guard: f.returns_guard,
        ..FnSummary::default()
    };
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut current_let: Option<String> = None;
    let emit_edges = table.is_some();

    // Records one resolved acquisition: edges from everything live, then
    // (unless transient) the new guard goes live itself. `binding` is the
    // let-binding that holds the guard, or None for a statement temporary.
    let acquire = |lock: LockRef,
                   at: Site,
                   transient: bool,
                   live: &mut Vec<LiveGuard>,
                   binding: Option<String>,
                   depth: usize,
                   summary: &mut FnSummary,
                   edges: &mut BTreeMap<(String, String), Edge>| {
        if emit_edges {
            if let LockRef::Fixed(to) = &lock {
                for held in live.iter() {
                    if let LockRef::Fixed(from) = &held.lock {
                        edges
                            .entry((from.clone(), to.clone()))
                            .or_insert_with(|| Edge {
                                hold_site: held.site.clone(),
                                acq_site: at.clone(),
                            });
                    }
                }
            }
        }
        summary.acquires.push(Acq { lock: lock.clone() });
        if !transient {
            live.push(LiveGuard {
                lock,
                site: at,
                depth,
                temp: binding.is_none(),
                name: binding,
            });
        }
    };

    let mut i = f.body.start;
    while i < f.body.end {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
            current_let = None;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            live.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            current_let = None;
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            live.retain(|g| !g.temp);
            current_let = None;
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // `let [mut] name` opens a binding statement.
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).map(|n| n.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            if let Some(name) = tokens.get(j).filter(|n| n.kind == TokenKind::Ident) {
                current_let = Some(name.text.clone());
            }
            i += 1;
            continue;
        }
        // `drop(g)` releases a named guard early.
        if t.is_ident("drop")
            && tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && tokens.get(i + 3).map(|n| n.is_punct(')')).unwrap_or(false)
        {
            if let Some(g) = tokens.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                live.retain(|lg| lg.name.as_deref() != Some(g.text.as_str()));
            }
            i += 4;
            continue;
        }
        // Direct acquisition: `recv.lock()` / `.read()` / `.write()`.
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > f.body.start
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            if let Some((name, qualified)) = receiver_name(tokens, i - 1) {
                let wants = if t.text == "lock" {
                    paths::MUTEX
                } else {
                    paths::RWLOCK
                };
                if name_type(&name, qualified)
                    .map(|ty| ty == wants)
                    .unwrap_or(false)
                {
                    let lock = match (qualified, is_lock_param(&name)) {
                        (false, Some(idx)) => LockRef::Param(idx),
                        _ => LockRef::Fixed(format!("{}::{}", file.crate_name, name)),
                    };
                    let binding = if binds_result(tokens, i + 1, f.body.end) {
                        current_let.clone()
                    } else {
                        None
                    };
                    acquire(
                        lock,
                        site(t),
                        false,
                        &mut live,
                        binding,
                        depth,
                        &mut summary,
                        edges,
                    );
                    i += 2;
                    continue;
                }
            }
        }
        // Helper call (pass 2 only): `helper(args)` or `self.helper(args)`.
        if let Some(table) = table {
            let free_call = i == f.body.start || !tokens[i - 1].is_punct('.');
            let self_method = i >= f.body.start + 2
                && tokens[i - 1].is_punct('.')
                && tokens[i - 2].is_ident("self");
            if (free_call || self_method)
                && tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                && t.text != f.name
            {
                if let Some(callee) = table.get(&t.text) {
                    let args = call_args(tokens, i + 1, f.body.end);
                    let resolve = |lock: &LockRef| -> Option<String> {
                        match lock {
                            LockRef::Fixed(id) => Some(id.clone()),
                            LockRef::Param(idx) => {
                                let arg = args.get(*idx)?;
                                let (name, qualified) = arg_lock_name(tokens, arg.clone())?;
                                fixed_id(&name, qualified)
                            }
                        }
                    };
                    let last = callee.acquires.len().saturating_sub(1);
                    let binding = if binds_result(tokens, i + 1, f.body.end) {
                        current_let.clone()
                    } else {
                        None
                    };
                    for (k, acq) in callee.acquires.iter().enumerate() {
                        let Some(id) = resolve(&acq.lock) else {
                            continue;
                        };
                        // Only the returned guard outlives the call.
                        let transient = !(callee.returns_guard && k == last);
                        acquire(
                            LockRef::Fixed(id),
                            site(t),
                            transient,
                            &mut live,
                            binding.clone(),
                            depth,
                            &mut summary,
                            edges,
                        );
                    }
                }
            }
        }
        i += 1;
    }
    summary
}

/// The identifier receiving a `.method()` call ending at the `.` at `dot`,
/// plus whether it was field-qualified (`x.name.` / `self.name.`).
fn receiver_name(tokens: &[Token], dot: usize) -> Option<(String, bool)> {
    if dot == 0 {
        return None;
    }
    let r = &tokens[dot - 1];
    if r.kind != TokenKind::Ident || r.is_ident("self") {
        return None;
    }
    let qualified =
        dot >= 3 && tokens[dot - 2].is_punct('.') && tokens[dot - 3].kind == TokenKind::Ident;
    Some((r.text.clone(), qualified))
}

/// The index of the `)` matching the `(` at `open`, if inside `limit`.
fn matching_paren(tokens: &[Token], open: usize, limit: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().take(limit).skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Whether the value of the call whose `(` sits at `open` survives into the
/// enclosing `let` binding. Only unwrap-style adapters keep the guard
/// (`let g = m.lock().unwrap();`); any further projection means the guard
/// is a statement temporary (`let r = lock_core(s).sched.would_reject(…);`
/// binds the *result*, and the guard dies at the semicolon).
fn binds_result(tokens: &[Token], open: usize, limit: usize) -> bool {
    let Some(close) = matching_paren(tokens, open, limit) else {
        return false;
    };
    let mut k = close + 1;
    while k < limit {
        if !tokens[k].is_punct('.') {
            // Only a chain running straight to the statement end keeps the
            // guard; a comparison, deref, or `{` consumes it as a temporary
            // (`let over = *lock_a(s) > 0;`).
            return tokens[k].is_punct(';');
        }
        let adapter = tokens.get(k + 1).is_some_and(|n| {
            matches!(
                n.text.as_str(),
                "unwrap" | "expect" | "unwrap_or_else" | "into_inner"
            )
        });
        if !adapter {
            return false;
        }
        match tokens.get(k + 2) {
            Some(p) if p.is_punct('(') => match matching_paren(tokens, k + 2, limit) {
                Some(end) => k = end + 1,
                None => return true,
            },
            _ => return false,
        }
    }
    true
}

/// Splits the call arguments starting at the `(` at `open` into top-level
/// token ranges.
fn call_args(tokens: &[Token], open: usize, limit: usize) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    let mut i = open;
    while i < limit {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                if i > start {
                    out.push(start..i);
                }
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            out.push(start..i);
            start = i + 1;
        }
        i += 1;
    }
    out
}

/// The lock-naming identifier of a call argument: `&self.counters` →
/// (`counters`, qualified), `&m` → (`m`, unqualified).
fn arg_lock_name(tokens: &[Token], range: std::ops::Range<usize>) -> Option<(String, bool)> {
    let mut i = range.start;
    while i < range.end && (tokens[i].is_punct('&') || tokens[i].is_ident("mut")) {
        i += 1;
    }
    let first = tokens.get(i).filter(|t| t.kind == TokenKind::Ident)?;
    if first.is_ident("self") && tokens.get(i + 1).map(|t| t.is_punct('.')).unwrap_or(false) {
        let field = tokens.get(i + 2).filter(|t| t.kind == TokenKind::Ident)?;
        return Some((field.text.clone(), true));
    }
    // A plain name; a trailing `.field` path takes the last field.
    let mut name = first.text.clone();
    let mut qualified = false;
    let mut j = i + 1;
    while tokens.get(j).map(|t| t.is_punct('.')).unwrap_or(false) {
        let Some(field) = tokens.get(j + 1).filter(|t| t.kind == TokenKind::Ident) else {
            break;
        };
        name = field.text.clone();
        qualified = true;
        j += 2;
    }
    Some((name, qualified))
}

/// Finds every elementary cycle reachable via DFS back edges and renders
/// one diagnostic per distinct cycle, deterministically ordered.
fn cycles_to_diagnostics(edges: &BTreeMap<(String, String), Edge>) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let starts: Vec<&str> = adj.keys().copied().collect();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();

    // Iterative DFS with an explicit stack, collecting back-edge cycles.
    for start in starts {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        visited.insert(start);
        while let Some(&(node, child)) = stack.last() {
            let next = adj.get(node).and_then(|ns| ns.get(child)).copied();
            match next {
                Some(n) => {
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    if on_path.contains(n) {
                        // Back edge: the cycle is path[pos..], closing on n.
                        let pos = path.iter().position(|&p| p == n).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[pos..].iter().map(|s| s.to_string()).collect();
                        // Canonical rotation: smallest lock id first.
                        let min = cycle
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.cmp(b.1))
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        cycle.rotate_left(min);
                        if seen_cycles.insert(cycle.clone()) {
                            out.push(render_cycle(&cycle, edges));
                        }
                    } else if !visited.contains(n) {
                        visited.insert(n);
                        stack.push((n, 0));
                        path.push(n);
                        on_path.insert(n);
                    }
                }
                None => {
                    stack.pop();
                    if let Some(done) = path.pop() {
                        on_path.remove(done);
                    }
                }
            }
        }
    }
    out
}

/// One diagnostic for a cycle `[a, b, ..]` (meaning a→b→..→a).
fn render_cycle(cycle: &[String], edges: &BTreeMap<(String, String), Edge>) -> Diagnostic {
    let n = cycle.len();
    let chain: Vec<String> = cycle
        .iter()
        .chain(cycle.first())
        .map(|s| format!("`{s}`"))
        .collect();
    let lookup = |k: usize| {
        edges
            .get(&(cycle[k].clone(), cycle[(k + 1) % n].clone()))
            .expect("every cycle edge came from the edge map")
    };
    let first_edge = lookup(0);
    let mut others = Vec::new();
    for k in 1..n {
        let e = lookup(k);
        others.push(format!(
            "{}:{}:{} (fn `{}`) acquires `{}` while holding `{}`",
            e.acq_site.path,
            e.acq_site.line,
            e.acq_site.col,
            e.acq_site.func,
            cycle[(k + 1) % n],
            cycle[k],
        ));
    }
    let held = &first_edge.hold_site;
    Diagnostic {
        rule: Rule::LockOrder,
        path: first_edge.acq_site.path.clone(),
        line: first_edge.acq_site.line,
        col: first_edge.acq_site.col,
        message: format!("lock-order cycle: {}", chain.join(" → ")),
        snippet: None,
        help: if others.is_empty() {
            format!(
                "`{}` is re-acquired while already held (taken at {}:{}:{} in fn `{}`); \
                 a std::sync lock self-deadlocks — restructure so the guard is \
                 dropped first",
                cycle[0], held.path, held.line, held.col, held.func
            )
        } else {
            format!(
                "this acquisition holds `{}` (taken at {}:{}:{} in fn `{}`); the \
                 opposite order is taken at {} — impose one global acquisition \
                 order (DESIGN.md §13)",
                cycle[0],
                held.path,
                held.line,
                held.col,
                held.func,
                others.join("; ")
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::lex;

    /// Builds a collector over (path, src) files all in one crate.
    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut collector = Collector::new();
        let mut krate = CrateItems::default();
        let mut lexed = Vec::new();
        for (path, src) in files {
            let tokens = lex(src);
            let items = items::collect(&tokens);
            krate.absorb(&items);
            lexed.push((path, tokens, items));
        }
        collector.add_crate("fc-demo", &krate);
        for (path, tokens, items) in &lexed {
            collector.add_file("fc-demo", path, tokens, items);
        }
        collector.finish()
    }

    const TWO_LOCKS: &str = "\
use std::sync::Mutex;
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
";

    #[test]
    fn opposite_order_is_a_cycle() {
        let body = format!(
            "{TWO_LOCKS}\
impl S {{
    fn ab(&self) {{
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }}
    fn ba(&self) {{
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }}
}}
"
        );
        let diags = run(&[("src/lib.rs", &body)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule.code(), "FC009");
        assert!(
            diags[0].message.contains("fc-demo::a"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[0].message.contains("fc-demo::b"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[0].help.contains("opposite order"),
            "{}",
            diags[0].help
        );
    }

    /// `let r = helper(s).field.method(..);` binds the *result*, not the
    /// guard: the guard is a statement temporary and must not be held at
    /// the next acquisition (the focus-serve admission pre-check idiom).
    #[test]
    fn projected_helper_result_does_not_hold_the_guard() {
        let body = format!(
            "{TWO_LOCKS}\
fn lock_a(s: &S) -> std::sync::MutexGuard<'_, u32> {{
    s.a.lock().unwrap()
}}
pub fn precheck_then_act(s: &S) {{
    let over = *lock_a(s) > 0;
    if over {{
        return;
    }}
    let ga = lock_a(s);
    drop(ga);
}}
"
        );
        let diags = run(&[("src/lib.rs", &body)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let body = format!(
            "{TWO_LOCKS}\
impl S {{
    fn ab(&self) {{
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }}
    fn also_ab(&self) {{
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }}
}}
"
        );
        assert!(run(&[("src/lib.rs", &body)]).is_empty());
    }

    #[test]
    fn drop_releases_before_second_acquisition() {
        let body = format!(
            "{TWO_LOCKS}\
impl S {{
    fn ab(&self) {{
        let ga = self.a.lock();
        drop(ga);
        let gb = self.b.lock();
        drop(gb);
    }}
    fn ba(&self) {{
        let gb = self.b.lock();
        drop(gb);
        let ga = self.a.lock();
        drop(ga);
    }}
}}
"
        );
        assert!(run(&[("src/lib.rs", &body)]).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let body = format!(
            "{TWO_LOCKS}\
impl S {{
    fn ab(&self) {{
        self.a.lock().unwrap();
        self.b.lock().unwrap();
    }}
    fn ba(&self) {{
        self.b.lock().unwrap();
        self.a.lock().unwrap();
    }}
}}
"
        );
        assert!(run(&[("src/lib.rs", &body)]).is_empty());
    }

    #[test]
    fn guard_helper_propagates_to_call_sites() {
        // fc-serve's idiom: a free fn returns the Core guard; one caller
        // then takes `names` — another takes them in the opposite order.
        let body = "\
use std::sync::{Mutex, MutexGuard};
pub struct Shared { core: Mutex<u32>, names: Mutex<u32> }
fn lock_core(shared: &Shared) -> MutexGuard<'_, u32> {
    shared.core.lock().unwrap()
}
fn core_then_names(shared: &Shared) {
    let g = lock_core(shared);
    let n = shared.names.lock();
    drop(n);
    drop(g);
}
fn names_then_core(shared: &Shared) {
    let n = shared.names.lock();
    let g = lock_core(shared);
    drop(g);
    drop(n);
}
";
        let diags = run(&[("src/lib.rs", body)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("core"), "{}", diags[0].message);
        assert!(diags[0].message.contains("names"), "{}", diags[0].message);
    }

    #[test]
    fn param_lock_helper_resolves_arguments() {
        // fc-obs's idiom: a generic poison-tolerant helper. Opposite-order
        // callers through the helper must still form a cycle.
        let body = "\
use std::sync::{Mutex, MutexGuard};
pub struct R { counters: Mutex<u32>, gauges: Mutex<u32> }
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap()
}
impl R {
    fn cg(&self) {
        let c = lock(&self.counters);
        let g = lock(&self.gauges);
        drop(g);
        drop(c);
    }
    fn gc(&self) {
        let g = lock(&self.gauges);
        let c = lock(&self.counters);
        drop(c);
        drop(g);
    }
}
";
        let diags = run(&[("src/lib.rs", body)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("counters"),
            "{}",
            diags[0].message
        );
        assert!(diags[0].message.contains("gauges"), "{}", diags[0].message);
    }

    #[test]
    fn self_deadlock_is_reported() {
        let body = "\
use std::sync::Mutex;
pub struct S { a: Mutex<u32> }
impl S {
    fn twice(&self) {
        let g = self.a.lock();
        let h = self.a.lock();
        drop(h);
        drop(g);
    }
}
";
        let diags = run(&[("src/lib.rs", body)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].help.contains("re-acquired"), "{}", diags[0].help);
    }

    #[test]
    fn cross_file_fields_resolve_through_the_crate_table() {
        let decl = "\
use std::sync::Mutex;
pub struct Shared { pub core: Mutex<u32>, pub names: Mutex<u32> }
";
        let use_a = "\
pub fn ab(shared: &crate::Shared) {
    let a = shared.core.lock();
    let b = shared.names.lock();
    drop(b);
    drop(a);
}
";
        let use_b = "\
pub fn ba(shared: &crate::Shared) {
    let b = shared.names.lock();
    let a = shared.core.lock();
    drop(a);
    drop(b);
}
";
        let diags = run(&[
            ("src/state.rs", decl),
            ("src/a.rs", use_a),
            ("src/b.rs", use_b),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn unrelated_read_and_write_calls_are_ignored() {
        let body = "\
use std::io::Read;
fn f(mut r: impl Read) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = r.read(&mut buf);
    buf
}
";
        assert!(run(&[("src/lib.rs", body)]).is_empty());
    }
}
