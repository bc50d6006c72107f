//! The token-pattern determinism rules (DL001–DL004, DL008).
//!
//! The cross-statement dataflow rules (DL006, DL007) live in
//! `crate::dataflow`; this module is the single-statement layer.
//!
//! Each rule is a token-pattern heuristic over one lexed file. The engine
//! works on "statements" — token runs delimited by `;`, `{`, `}` — plus the
//! enclosing `fn` signature as extra evidence (e.g. a `-> f64` return type
//! marks a bare `.sum()` as a float reduction). This is deliberately not a
//! type checker: the rules are tuned to the hazards that matter for
//! reproducing run-to-run-identical numbers. A module whose job is one
//! of these hazards is exempted from that rule by path in `detlint.toml`.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{test_regions, Tok, TokKind};
use crate::{Finding, RuleId};

/// Iteration methods whose order is arbitrary on hash containers.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Identifiers that accumulate, serialize, or emit — the sinks that turn
/// arbitrary iteration order into observable nondeterminism.
const SINKS: &[&str] = &[
    "collect",
    "extend",
    "push",
    "push_str",
    "sum",
    "product",
    "fold",
    "reduce",
    "write",
    "writeln",
    "write_all",
    "write_str",
    "print",
    "println",
    "eprint",
    "eprintln",
    "format",
    "serialize",
    "to_value",
    "to_string",
    "to_json",
    "json",
    "join",
];

/// Entry point: runs every enabled rule over one lexed + parsed file.
pub fn run_rules(
    rel_path: &str,
    tokens: &[Tok],
    parsed: &crate::parser::ParsedFile,
    config: &Config,
) -> Vec<Finding> {
    // Test code is never scanned: it may time things and draw throwaway
    // randomness, and it produces no reported numbers.
    if Config::is_test_path(rel_path) {
        return Vec::new();
    }
    let ctx = Ctx {
        rel_path,
        tokens,
        fn_sigs: fn_signatures(tokens),
        test_regions: test_regions(tokens),
        float_vars: tracked_float_vars(tokens),
    };
    let mut findings = Vec::new();
    let enabled = |rule: RuleId| !config.rule_exempt(rule, rel_path);
    if enabled(RuleId::Dl001) {
        dl001_hash_iteration(&ctx, &mut findings);
    }
    if enabled(RuleId::Dl002) {
        dl002_ambient_entropy(&ctx, &mut findings);
    }
    if enabled(RuleId::Dl003) {
        dl003_wall_clock(&ctx, &mut findings);
    }
    if enabled(RuleId::Dl004) {
        dl004_float_reduction(&ctx, &mut findings);
    }
    if enabled(RuleId::Dl008) {
        dl008_env_read(&ctx, &mut findings);
    }
    crate::dataflow::run_dataflow_rules(&ctx, parsed, config, &mut findings);
    // One finding per (rule, line): a chain like `.keys().map(..).sum()` can
    // trip a rule through several tokens on the same line.
    findings.sort_by_key(|f| (f.line, f.rule));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

pub(crate) struct Ctx<'a> {
    pub(crate) rel_path: &'a str,
    pub(crate) tokens: &'a [Tok],
    /// Per-token index of the innermost enclosing `fn` signature range.
    pub(crate) fn_sigs: Vec<Option<(usize, usize)>>,
    pub(crate) test_regions: Vec<(u32, u32)>,
    /// Local bindings initialized with float evidence; their names carry
    /// that evidence into later statements.
    pub(crate) float_vars: BTreeSet<String>,
}

impl Ctx<'_> {
    pub(crate) fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| (s..=e).contains(&line))
    }

    pub(crate) fn emit(
        &self,
        findings: &mut Vec<Finding>,
        rule: RuleId,
        i: usize,
        message: String,
    ) {
        let line = self.tokens[i].line;
        if self.in_test_region(line) {
            return;
        }
        findings.push(Finding {
            rule,
            file: self.rel_path.to_string(),
            line,
            message,
        });
    }

    /// Token range of the statement containing index `i` (inclusive),
    /// delimited by `;`, `{`, `}` on either side.
    pub(crate) fn stmt_range(&self, i: usize) -> (usize, usize) {
        let boundary = |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
        let mut s = i;
        while s > 0 && !boundary(&self.tokens[s - 1]) {
            s -= 1;
        }
        let mut e = i;
        while e + 1 < self.tokens.len() && !boundary(&self.tokens[e + 1]) {
            e += 1;
        }
        (s, e)
    }

    pub(crate) fn stmt_has_ident(&self, range: (usize, usize), names: &[&str]) -> bool {
        self.tokens[range.0..=range.1]
            .iter()
            .any(|t| t.ident().is_some_and(|s| names.contains(&s)))
    }

    /// Float evidence for the token at `i`: a float token in `range`
    /// (tracked bindings count), or an `f32`/`f64` in the enclosing `fn`
    /// signature. Tracked *names* in the signature are deliberately
    /// ignored — a parameter name reused across functions in the same file
    /// would otherwise leak one function's float-ness into another's
    /// integer loop.
    pub(crate) fn float_evidence(&self, range: (usize, usize), i: usize) -> bool {
        self.tokens[range.0..=range.1]
            .iter()
            .any(|t| is_float_token(t, &self.float_vars))
            || self.fn_sigs[i].is_some_and(|(s, e)| {
                self.tokens[s..=e]
                    .iter()
                    .any(|t| is_float_token(t, &BTreeSet::new()))
            })
    }
}

/// The one float-evidence predicate: an `f32`/`f64` mention, a float
/// literal, or a name in `tracked` (bindings known to hold floats).
fn is_float_token(t: &Tok, tracked: &BTreeSet<String>) -> bool {
    match &t.kind {
        TokKind::Ident(id) => id == "f32" || id == "f64" || tracked.contains(id),
        TokKind::Num(n) => {
            !(n.starts_with("0x") || n.starts_with("0b") || n.starts_with("0o"))
                && (n.ends_with("f32")
                    || n.ends_with("f64")
                    || n.contains('.')
                    || (n.contains(['e', 'E']) && !n.contains(['u', 'i'])))
        }
        _ => false,
    }
}

/// Collects `let` bindings whose initializer statement shows float evidence
/// (an `f32`/`f64` mention, a float literal, or a previously tracked
/// binding). `let mut lane = [0f32; 64];` makes a later bare
/// `lane.iter().sum()` recognizable as a float reduction even when neither
/// that statement nor the enclosing signature names a float type.
fn tracked_float_vars(tokens: &[Tok]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    let boundary = |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let name = tokens.get(j).and_then(Tok::ident);
        let mut e = i;
        while e + 1 < tokens.len() && !boundary(&tokens[e + 1]) {
            e += 1;
        }
        if let Some(name) = name {
            if tokens[i..=e].iter().any(|t| is_float_token(t, &tracked)) {
                tracked.insert(name.to_string());
            }
        }
        i = e + 1;
    }
    tracked
}

/// Maps each token index to the signature range of its innermost enclosing
/// `fn`, so rules can consult parameter and return types.
fn fn_signatures(tokens: &[Tok]) -> Vec<Option<(usize, usize)>> {
    let mut out = vec![None; tokens.len()];
    // (brace depth at which the fn body opened, signature token range)
    let mut stack: Vec<(i32, (usize, usize))> = Vec::new();
    let mut depth = 0i32;
    let mut pending_fn: Option<usize> = None;
    // Paren/bracket nesting inside a pending signature, so the `;` in
    // `xs: [f32; 4]` doesn't end the declaration.
    let mut sig_nest = 0i32;
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("fn") {
            pending_fn = Some(i);
            sig_nest = 0;
        } else if t.is_punct('{') {
            if let Some(start) = pending_fn.take() {
                stack.push((depth, (start, i)));
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            while stack.last().is_some_and(|(d, _)| *d >= depth) {
                stack.pop();
            }
        } else if pending_fn.is_some() && (t.is_punct('(') || t.is_punct('[')) {
            sig_nest += 1;
        } else if pending_fn.is_some() && (t.is_punct(')') || t.is_punct(']')) {
            sig_nest -= 1;
        } else if t.is_punct(';') && sig_nest == 0 {
            pending_fn = None; // trait method declaration without a body
        }
        out[i] = stack.last().map(|(_, r)| *r);
    }
    out
}

/// Index of the `)` matching the `(` at `open` (or end of tokens).
pub(crate) fn matching_paren(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len() - 1
}

/// Index of the `}` matching the `{` at `open` (or end of tokens).
pub(crate) fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len() - 1
}

// ---------------------------------------------------------------------------
// DL001 — hash-container iteration feeding an order-sensitive sink
// ---------------------------------------------------------------------------

/// Finds variables bound with a `HashMap`/`HashSet` type annotation or
/// constructor, mapped to the container type name for diagnostics.
pub(crate) fn tracked_hash_vars(tokens: &[Tok]) -> BTreeMap<String, &'static str> {
    let mut tracked = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        let container = match t.ident() {
            Some("HashMap") => "HashMap",
            Some("HashSet") => "HashSet",
            _ => continue,
        };
        // Walk back over a `std::collections::` path prefix.
        let mut j = i;
        while j >= 3
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && matches!(tokens[j - 3].kind, TokKind::Ident(_))
        {
            j -= 3;
        }
        // Skip reference/mutability noise before the path.
        let mut k = j;
        while k >= 1
            && (tokens[k - 1].is_punct('&')
                || tokens[k - 1].is_ident("mut")
                || matches!(tokens[k - 1].kind, TokKind::Lifetime))
        {
            k -= 1;
        }
        // `name: HashMap<..>` (type annotation; `::` excluded) or
        // `name = HashMap::new()` (constructor binding).
        let annotated = k >= 2 && tokens[k - 1].is_punct(':') && !tokens[k - 2].is_punct(':');
        let constructed = k >= 2 && tokens[k - 1].is_punct('=');
        let name = (annotated || constructed)
            .then(|| tokens[k - 2].ident())
            .flatten();
        if let Some(name) = name {
            tracked.insert(name.to_string(), container);
        }
    }
    tracked
}

/// A compound assignment (`+=`, `-=`, `*=`, `/=`) over floats in the range —
/// an order-sensitive accumulation sink. Integer compound assignment is
/// order-insensitive, so float evidence is required.
pub(crate) fn float_compound_assign(ctx: &Ctx, s: usize, e: usize, i: usize) -> bool {
    ctx.tokens[s..=e]
        .windows(2)
        .any(|w| matches!(w[0].kind, TokKind::Punct('+' | '-' | '*' | '/')) && w[1].is_punct('='))
        && ctx.float_evidence((s, e), i)
}

fn dl001_hash_iteration(ctx: &Ctx, findings: &mut Vec<Finding>) {
    let tracked = tracked_hash_vars(ctx.tokens);
    if tracked.is_empty() {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let Some(&container) = tracked.get(name) else {
            continue;
        };
        let stmt = ctx.stmt_range(i);
        // `map.keys()` / `map.into_values()` style iteration.
        let method_iter = ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && ctx
                .tokens
                .get(i + 2)
                .is_some_and(|t| t.ident().is_some_and(|m| ITER_METHODS.contains(&m)));
        // `for x in &map {` / `for x in map {` direct iteration.
        let for_iter = ctx.stmt_has_ident(stmt, &["for"])
            && ctx.tokens[stmt.0..i].iter().any(|t| t.is_ident("in"))
            && !ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('.'));
        if !method_iter && !for_iter {
            continue;
        }
        // A sink in the same statement, or — for loop headers — anywhere
        // in the loop body. Compound float accumulation (`total += v`)
        // counts: it has no method name to match but is just as
        // order-sensitive.
        let find_sink = |s: usize, e: usize| {
            ctx.tokens[s..=e]
                .iter()
                .find_map(|t| t.ident().filter(|m| SINKS.contains(m)))
                .or_else(|| float_compound_assign(ctx, s, e, i).then_some("+="))
        };
        let mut sink = find_sink(stmt.0, stmt.1);
        if sink.is_none()
            && ctx.tokens.get(stmt.1 + 1).is_some_and(|t| t.is_punct('{'))
            && ctx.stmt_has_ident(stmt, &["for"])
        {
            let close = matching_brace(ctx.tokens, stmt.1 + 1);
            sink = find_sink(stmt.1 + 1, close);
        }
        if let Some(sink) = sink {
            ctx.emit(
                findings,
                RuleId::Dl001,
                i,
                format!(
                    "iteration over `{name}` ({container}) feeds `{sink}`; \
                     {container} iteration order varies run to run"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// DL002 — RNG seeded from ambient entropy (OS randomness or wall time)
// ---------------------------------------------------------------------------

const SEED_CONTEXT: &[&str] = &[
    "seed",
    "from_seed",
    "seed_from_u64",
    "SeedableRng",
    "StdRng",
    "SmallRng",
    "Philox",
    "PhiloxState",
    "rng",
];

fn dl002_ambient_entropy(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let message = match id {
            "thread_rng" if ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) => {
                "`thread_rng()` draws from OS entropy; experiments become \
                 unrepeatable"
                    .to_string()
            }
            "from_entropy" => "`from_entropy()` seeds from OS entropy instead \
                 of the experiment seed"
                .to_string(),
            "OsRng" => "`OsRng` bypasses seeded randomness".to_string(),
            "getrandom" => "`getrandom` reads OS entropy directly".to_string(),
            "random"
                if i >= 3
                    && ctx.tokens[i - 1].is_punct(':')
                    && ctx.tokens[i - 2].is_punct(':')
                    && ctx.tokens[i - 3].is_ident("rand") =>
            {
                "`rand::random` draws from a thread-local OS-seeded RNG".to_string()
            }
            "SystemTime" | "UNIX_EPOCH" if ctx.stmt_has_ident(ctx.stmt_range(i), SEED_CONTEXT) => {
                "time-derived RNG seed; wall-clock values differ every run".to_string()
            }
            _ => continue,
        };
        ctx.emit(findings, RuleId::Dl002, i, message);
    }
}

// ---------------------------------------------------------------------------
// DL003 — wall-clock reads in result-producing paths
// ---------------------------------------------------------------------------

fn dl003_wall_clock(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident("now") {
            continue;
        }
        let source = (i >= 3 && ctx.tokens[i - 1].is_punct(':') && ctx.tokens[i - 2].is_punct(':'))
            .then(|| ctx.tokens[i - 3].ident())
            .flatten();
        let Some(source @ ("Instant" | "SystemTime")) = source else {
            continue;
        };
        ctx.emit(
            findings,
            RuleId::Dl003,
            i,
            format!(
                "`{source}::now()` in a result-producing path; timings leak \
                 host load into reported numbers"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// DL004 — order-sensitive float reductions
// ---------------------------------------------------------------------------

fn dl004_float_reduction(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        let Some(method) = float_reduction(ctx, i, || ctx.stmt_range(i)) else {
            continue;
        };
        ctx.emit(
            findings,
            RuleId::Dl004,
            i,
            format!(
                "float `{method}` combines in iteration or scheduling order; \
                 float addition is non-associative, so order changes the \
                 result bit pattern"
            ),
        );
    }
}

/// The one float-reduction matcher, shared by DL004 and DL006: the token
/// at `i` names a method call `.sum()`/`.product()` (nullary, turbofish
/// allowed) or `.fold(..)`/`.reduce(..)` whose closure adds or
/// multiplies, with float evidence in the statement `range` returns or in
/// the enclosing signature. Returns the method name. Sequential and
/// parallel (`par_iter`) iterators alike: either way the combination
/// order is not fixed by the code.
pub(crate) fn float_reduction<'a>(
    ctx: &Ctx<'a>,
    i: usize,
    range: impl FnOnce() -> (usize, usize),
) -> Option<&'a str> {
    let method @ ("sum" | "product" | "fold" | "reduce") = ctx.tokens[i].ident()? else {
        return None;
    };
    // Must be a method call: `.sum(` / `.sum::<f64>(` / `.fold(`.
    let call = i > 0
        && ctx.tokens[i - 1].is_punct('.')
        && ctx
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.is_punct('(') || t.is_punct(':'));
    // Iterator `sum`/`product` take no arguments; a call with arguments
    // (`reducer.sum(&xs)`) is someone's own method, not the std
    // reduction — the sanctioned `Reducer` API looks exactly like that.
    let shape = match method {
        "sum" | "product" => is_nullary_call(ctx.tokens, i + 1),
        _ => combines_arithmetically(ctx.tokens, i),
    };
    (call && shape && ctx.float_evidence(range(), i)).then_some(method)
}

/// `true` if the method call whose name ends at `j - 1` has an empty
/// argument list, allowing for a turbofish (`sum()` / `sum::<f64>()`).
fn is_nullary_call(tokens: &[Tok], mut j: usize) -> bool {
    if tokens.get(j).is_some_and(|t| t.is_punct(':')) {
        // Skip `::< ... >`.
        while j < tokens.len() && !tokens[j].is_punct('<') {
            if tokens[j].is_punct('(') || tokens[j].is_punct(';') {
                return false;
            }
            j += 1;
        }
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    tokens.get(j).is_some_and(|t| t.is_punct('('))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(')'))
}

/// A `fold`/`reduce` is only a hazard when its closure combines with
/// `+`/`*` (non-associative in floats). Min/max/comparison folds are
/// order-insensitive and deliberately not flagged.
fn combines_arithmetically(tokens: &[Tok], fold_idx: usize) -> bool {
    let mut open = fold_idx + 1;
    while open < tokens.len() && !tokens[open].is_punct('(') {
        if tokens[open].is_punct(';') || tokens[open].is_punct('{') {
            return false;
        }
        open += 1;
    }
    if open >= tokens.len() {
        return false;
    }
    let close = matching_paren(tokens, open);
    (open..=close).any(|j| {
        let t = &tokens[j];
        // `*` only counts as multiplication when it follows an operand;
        // otherwise it is a deref (`|a, b| a.max(*b)` must not fire).
        let binary_position = j > open
            && (matches!(tokens[j - 1].kind, TokKind::Ident(_) | TokKind::Num(_))
                || tokens[j - 1].is_punct(')')
                || tokens[j - 1].is_punct(']'));
        (t.is_punct('+') || t.is_punct('*')) && binary_position
            || t.ident().is_some_and(|s| s == "mul_add")
    })
}

// ---------------------------------------------------------------------------
// DL008 — environment reads outside the settings module
// ---------------------------------------------------------------------------

fn dl008_env_read(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let Some(id @ ("var" | "var_os")) = t.ident() else {
            continue;
        };
        let env_path = i >= 3
            && ctx.tokens[i - 1].is_punct(':')
            && ctx.tokens[i - 2].is_punct(':')
            && ctx.tokens[i - 3].is_ident("env");
        if env_path && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            ctx.emit(
                findings,
                RuleId::Dl008,
                i,
                format!(
                    "`env::{id}` read outside the settings module; a knob read \
                     here changes results without passing through \
                     ExperimentSettings and its fingerprint"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let parsed = crate::parser::parse(&tokens);
        run_rules("src/sample.rs", &tokens, &parsed, &Config::default())
    }

    #[test]
    fn dl001_fires_on_hashmap_collect() {
        let f = scan(
            "fn f() {\n let mut agg: HashMap<String, u32> = HashMap::new();\n \
             let v: Vec<u32> = agg.into_values().collect();\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl001);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn dl001_ignores_btreemap_and_sinkless_iteration() {
        let f = scan(
            "fn f() {\n let m: BTreeMap<String, u32> = BTreeMap::new();\n \
             let v: Vec<u32> = m.into_values().collect();\n \
             let h: HashMap<u32, u32> = HashMap::new();\n \
             let n = h.len();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dl001_sees_sink_inside_for_body() {
        let f = scan(
            "fn f(out: &mut Vec<u32>) {\n let h: HashSet<u32> = HashSet::new();\n \
             for k in &h {\n out.push(*k);\n }\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl001);
    }

    #[test]
    fn dl001_sees_compound_float_accumulation() {
        let f = scan(
            "fn f(m: &HashMap<String, f64>) -> f64 {\n let mut total = 0.0;\n \
             for (_k, v) in m.iter() {\n total += v;\n }\n total\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::Dl001);
    }

    #[test]
    fn dl001_ignores_integer_compound_counter() {
        // The float fn reuses the param name `m` — its float-ness must not
        // leak into the integer counter loop below.
        let f = scan(
            "fn g(m: &HashMap<String, f64>) -> f64 {\n let mut total = 0.0;\n \
             for (_k, v) in m.iter() {\n total += v;\n }\n total\n}\n\
             fn f(m: &HashMap<String, u32>) -> u32 {\n let mut count = 0u32;\n \
             for _k in m.keys() {\n count += 1;\n }\n count\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3, "only the float accumulation fires");
    }

    #[test]
    fn dl002_fires_on_entropy_sources() {
        let f = scan(
            "fn f() {\n let a = rand::thread_rng();\n \
             let b = StdRng::from_entropy();\n \
             let c: u64 = rand::random();\n}\n",
        );
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.rule == RuleId::Dl002));
    }

    #[test]
    fn dl002_fires_on_time_seed() {
        let f = scan(
            "fn f() {\n let seed = SystemTime::now().duration_since(UNIX_EPOCH)\
             .unwrap().as_nanos() as u64;\n}\n",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::Dl002), "{f:?}");
    }

    #[test]
    fn dl003_fires_on_instant_now() {
        let f = scan("fn f() {\n let t = std::time::Instant::now();\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl003);
    }

    #[test]
    fn dl004_fires_on_float_sum_with_signature_evidence() {
        let f = scan(
            "fn total(&self) -> f64 {\n \
             self.records.iter().map(|r| r.time).sum()\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl004);
    }

    #[test]
    fn dl004_skips_integer_sum_and_max_fold() {
        let f = scan(
            "fn f(v: &[f64]) -> f64 {\n \
             let n: usize = sizes.iter().sum();\n \
             v.iter().fold(f64::MIN, |a, b| a.max(*b))\n}\n",
        );
        // The integer sum still sees `f64` in the signature — heuristic
        // accepts that; the max-fold must NOT fire.
        assert!(f.iter().all(|x| x.line != 3), "{f:?}");
    }

    #[test]
    fn dl004_fires_on_additive_fold() {
        let f = scan("fn f(v: &[f32]) -> f32 {\n v.iter().fold(0.0, |a, b| a + b)\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl004);
    }

    #[test]
    fn dl004_ignores_non_iterator_sum_with_args() {
        let f = scan("fn f(red: &mut Reducer, xs: &[f32]) -> f32 {\n red.sum(xs)\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dl004_tracks_float_bindings_across_statements() {
        // Neither the sum statement nor the signature names a float type;
        // the `[0f32; 64]` binding is the only evidence.
        let f = scan(
            "fn f(out: &mut Grad) {\n let mut lane = [0f32; 64];\n \
             out.d = lane.iter().sum();\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl004);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn dl004_fires_on_parallel_float_sum() {
        let f = scan("fn f(v: &[f64]) -> f64 {\n v.par_iter().sum()\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Dl004);
    }

    #[test]
    fn dl008_fires_on_env_reads() {
        let f = scan(
            "fn f() -> String {\n \
             let a = std::env::var(\"LOG_LABEL\").unwrap_or_default();\n \
             let b = env::var_os(\"HOME\");\n \
             format!(\"{a}{b:?}\")\n}\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RuleId::Dl008));
    }

    #[test]
    fn test_regions_are_skipped_by_default() {
        let f = scan(
            "#[cfg(test)]\nmod tests {\n fn t() { let x = \
             std::time::Instant::now(); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
