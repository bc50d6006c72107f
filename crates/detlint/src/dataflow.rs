//! Intra-procedural dataflow: taint tracking for the flow rules
//! (DL006, DL007).
//!
//! The v1 rules see one statement at a time, so `let vals: Vec<f64> =
//! m.values().cloned().collect();` three statements before a `.sum()` is
//! invisible to them. This module walks each function's statements in
//! order (as recovered by [`crate::parser`]) and carries two taint kinds
//! across bindings:
//!
//! * **`Unordered`** — the value's element order is arbitrary. Sources:
//!   `HashMap`/`HashSet` iteration, rayon-style `par_iter` combinators,
//!   channel `try_iter`/`try_recv`, `select!`. Cleared by the sanctioned
//!   ordered sinks (`sum_ordered_f64/f32`, `Reducer::plan_dots`), by
//!   collection into an ordered container (`BTreeMap`/`BTreeSet`), or by
//!   an explicit sort.
//! * **`Entropy`** — the value came from a *sequential* RNG draw, so it
//!   depends on the RNG cursor position. Sources: `next_u32`-family
//!   draws, `draw`, `sample`, ambient `thread_rng`/`from_entropy`.
//!   Index-derivation helpers (`entropy_for`, `derive`, `rng_at`, ...)
//!   are deliberately *not* sources: they are pure functions of an index
//!   and are the sanctioned way to hand randomness across a boundary.
//!
//! Propagation is deliberately simple: a statement's *result taint* is
//! the union of its in-range sources and the taints of every variable it
//! references, minus what its sanitizers clear; `let` bindings and plain
//! assignments replace the target's taint, compound assignments union
//! into it. Closure captures need no special handling because the parser
//! keeps expression braces (closure bodies) inside the statement that
//! spawns them — a tainted variable referenced inside
//! `scope.spawn(move || ...)` is a reference *within the spawn
//! statement*.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::TokKind;
use crate::parser::ParsedFile;
use crate::rules::{float_compound_assign, float_reduction, tracked_hash_vars, Ctx, ITER_METHODS};
use crate::{Finding, RuleId};

/// Unordered parallel combinators (rayon-style).
const PAR_COMBINATORS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
    "par_windows",
];

/// Sequential RNG draw methods — their value depends on the RNG cursor.
const DRAW_METHODS: &[&str] = &[
    "next_u32",
    "next_u64",
    "next_f32",
    "next_f64",
    "next_below",
    "next_seed",
    "draw",
    "sample",
    "gen",
    "gen_range",
];

/// Ambient entropy constructors (already DL002 hazards on their own, but
/// their *values* also carry Entropy taint for DL007).
const AMBIENT_ENTROPY: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Identifiers that clear `Unordered` taint when they appear in a
/// statement: the sanctioned ordered reductions, ordered collection
/// targets, and explicit sorts.
const UNORDERED_SANITIZERS: &[&str] = &[
    "sum_ordered_f64",
    "sum_ordered_f32",
    "plan_dots",
    "BTreeMap",
    "BTreeSet",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Calls that move a value across a thread or process boundary (DL007).
const BOUNDARY_CALLS: &[&str] = &[
    "spawn",
    "encode_frame",
    "write_frame",
    "encode_payload",
    "write_spec",
    "write_event",
];

/// Identifiers whose presence sanctions an entropy crossing: the
/// index-derivation bridges and the snapshot/result codecs, which encode
/// cursors explicitly and in a fixed order.
const ENTROPY_SANCTIONED: &[&str] = &[
    "plan_dots",
    "entropy_for",
    "derive",
    "child",
    "rng_at",
    "stream",
    "snapshot",
    "from_snapshot",
    "encode_result",
];

/// Why a variable is tainted: the source line and a human description.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Origin {
    line: u32,
    what: String,
}

/// The taints one variable carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Taint {
    unordered: Option<Origin>,
    entropy: Option<Origin>,
}

impl Taint {
    fn is_clean(&self) -> bool {
        self.unordered.is_none() && self.entropy.is_none()
    }

    fn union(&mut self, other: &Taint) {
        if self.unordered.is_none() {
            self.unordered.clone_from(&other.unordered);
        }
        if self.entropy.is_none() {
            self.entropy.clone_from(&other.entropy);
        }
    }
}

/// Entry point: runs the dataflow rules over one parsed file. Shares the
/// v1 [`Ctx`] (token slice, fn signatures, test regions, float bindings).
pub(crate) fn run_dataflow_rules(
    ctx: &Ctx,
    parsed: &ParsedFile,
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    let enabled = |rule: RuleId| !config.rule_exempt(rule, ctx.rel_path);
    let dl006 = enabled(RuleId::Dl006);
    let dl007 = enabled(RuleId::Dl007);
    if !dl006 && !dl007 {
        return;
    }
    let hash_vars = tracked_hash_vars(ctx.tokens);
    for func in &parsed.functions {
        let mut vars: BTreeMap<String, Taint> = BTreeMap::new();
        // The parser pushes a nested block's statements before their
        // header statement (it finishes the header last), so re-sort by
        // token position to process `if let` / `for` headers before
        // their bodies.
        let mut order = func.stmt_indices.clone();
        order.sort_by_key(|&si| parsed.stmts[si].range.0);
        for si in order {
            let stmt = &parsed.stmts[si];
            let (s, e) = stmt.range;

            // --- gather this statement's taint evidence ---------------
            let direct_unordered = unordered_source(ctx, &hash_vars, s, e);
            let direct_entropy = entropy_source(ctx, s, e);
            // For `let` statements only the initializer flows — reading
            // the whole range would pick the binding name itself up and
            // make `let vals = clean();` inherit the shadowed taint.
            let flow_range = match &stmt.let_binding {
                Some(b) => b.init,
                None => Some((s, e)),
            };
            let mut flowed = Taint::default();
            if let Some((fs, fe)) = flow_range {
                for t in &ctx.tokens[fs..=fe] {
                    if let Some(id) = t.ident() {
                        if let Some(taint) = vars.get(id) {
                            flowed.union(taint);
                        }
                    }
                }
            }
            let sanitized = has_ident(ctx, s, e, UNORDERED_SANITIZERS);

            // --- DL006: propagated unordered taint hits a float sink --
            // Only *cross-statement* flows: a hash iteration feeding a
            // sink in the same statement is DL001's finding already.
            if dl006 && !sanitized && direct_unordered.is_none() {
                if let (Some(origin), Some(sink_at)) =
                    (&flowed.unordered, float_accumulation_sink(ctx, s, e))
                {
                    ctx.emit(
                        findings,
                        RuleId::Dl006,
                        sink_at,
                        format!(
                            "value tainted by {} (line {}) reaches a float \
                             accumulation; element order is arbitrary, so the \
                             sum's bit pattern varies run to run",
                            origin.what, origin.line
                        ),
                    );
                }
            }

            // --- DL007: entropy crosses a thread/process boundary -----
            if dl007 && !has_ident(ctx, s, e, ENTROPY_SANCTIONED) {
                if let Some((b_at, b_name)) = boundary_call(ctx, s, e) {
                    let origin = flowed
                        .entropy
                        .as_ref()
                        .or(direct_entropy.as_ref().map(|(_, o)| o));
                    if let Some(origin) = origin {
                        ctx.emit(
                            findings,
                            RuleId::Dl007,
                            b_at,
                            format!(
                                "sequential RNG value from {} (line {}) crosses \
                                 a thread/process boundary via `{b_name}`; \
                                 cursor-dependent draws must be re-derived from \
                                 the replica index, not captured",
                                origin.what, origin.line
                            ),
                        );
                    }
                }
            }

            // --- propagate into this statement's bindings -------------
            let mut result = flowed;
            if sanitized {
                result.unordered = None;
                // A sanitizing statement blesses the variables it touches:
                // an in-place `vals.sort_by(..)` has no binding and no
                // assignment target, so clearing only the statement result
                // would leave `vals` itself tainted forever.
                for t in &ctx.tokens[s..=e] {
                    if let Some(id) = t.ident() {
                        if let Some(taint) = vars.get_mut(id) {
                            taint.unordered = None;
                        }
                    }
                }
                vars.retain(|_, t| !t.is_clean());
            }
            // A `for x in map` header is DL001's territory and the loop
            // variable is a *single element*, not the unordered sequence;
            // only propagated taint flows into header bindings.
            let is_for_header = ctx.tokens[s..=e].iter().take(3).any(|t| t.is_ident("for"));
            if !is_for_header {
                if let Some((at, what)) = &direct_unordered {
                    if !sanitized && result.unordered.is_none() {
                        result.unordered = Some(Origin {
                            line: ctx.tokens[*at].line,
                            what: what.clone(),
                        });
                    }
                }
            }
            if let Some((_, origin)) = &direct_entropy {
                if result.entropy.is_none() {
                    result.entropy = Some(origin.clone());
                }
            }

            if let Some(binding) = &stmt.let_binding {
                for name in &binding.names {
                    if result.is_clean() {
                        vars.remove(name); // shadowing clears old taint
                    } else {
                        vars.insert(name.clone(), result.clone());
                    }
                }
            } else if let Some((target, compound)) = assignment_target(ctx, s, e) {
                if compound {
                    if !result.is_clean() {
                        vars.entry(target).or_default().union(&result);
                    }
                } else if result.is_clean() {
                    vars.remove(&target);
                } else {
                    vars.insert(target, result.clone());
                }
            }
        }
    }
}

fn has_ident(ctx: &Ctx, s: usize, e: usize, names: &[&str]) -> bool {
    ctx.tokens[s..=e]
        .iter()
        .any(|t| t.ident().is_some_and(|id| names.contains(&id)))
}

/// An in-statement `Unordered` source: hash-container iteration, a
/// parallel combinator, a nondeterministic channel read, or `select!`.
fn unordered_source(
    ctx: &Ctx,
    hash_vars: &BTreeMap<String, &'static str>,
    s: usize,
    e: usize,
) -> Option<(usize, String)> {
    for i in s..=e {
        let Some(id) = ctx.tokens[i].ident() else {
            continue;
        };
        if let Some(container) = hash_vars.get(id) {
            let iterated = ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && ctx
                    .tokens
                    .get(i + 2)
                    .is_some_and(|t| t.ident().is_some_and(|m| ITER_METHODS.contains(&m)));
            if iterated {
                return Some((i, format!("`{id}` ({container}) iteration")));
            }
        }
        if PAR_COMBINATORS.contains(&id) {
            return Some((i, format!("`{id}` parallel iteration")));
        }
        if (id == "try_iter" || id == "try_recv")
            && ctx
                .tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('.'))
        {
            return Some((i, format!("`{id}` nondeterministic channel read")));
        }
        if id == "select" && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            return Some((i, "`select!` arbitrary arm order".to_string()));
        }
    }
    None
}

/// An in-statement `Entropy` source: a sequential draw method or an
/// ambient-entropy constructor.
fn entropy_source(ctx: &Ctx, s: usize, e: usize) -> Option<(usize, Origin)> {
    for i in s..=e {
        let Some(id) = ctx.tokens[i].ident() else {
            continue;
        };
        let line = ctx.tokens[i].line;
        if DRAW_METHODS.contains(&id)
            && ctx
                .tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('.'))
            && ctx
                .tokens
                .get(i + 1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
        {
            return Some((
                i,
                Origin {
                    line,
                    what: format!("`.{id}()` draw"),
                },
            ));
        }
        if AMBIENT_ENTROPY.contains(&id) {
            return Some((
                i,
                Origin {
                    line,
                    what: format!("`{id}` ambient entropy"),
                },
            ));
        }
    }
    None
}

/// A float accumulation sink in the range: a float reduction call (the
/// matcher DL004 uses) or a float compound assignment. Returns the sink's
/// token index.
fn float_accumulation_sink(ctx: &Ctx, s: usize, e: usize) -> Option<usize> {
    (s..=e)
        .find(|&i| float_reduction(ctx, i, || (s, e)).is_some())
        .or_else(|| float_compound_assign(ctx, s, e, s).then_some(s))
}

/// A thread/process boundary call in the range: `spawn(`,
/// `encode_frame(`, `write_frame(`, `encode_payload(`, `write_spec(`,
/// `write_event(`.
fn boundary_call(ctx: &Ctx, s: usize, e: usize) -> Option<(usize, &'static str)> {
    for i in s..=e {
        let Some(id) = ctx.tokens[i].ident() else {
            continue;
        };
        if let Some(&name) = BOUNDARY_CALLS.iter().find(|&&b| b == id) {
            if ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                return Some((i, name));
            }
        }
    }
    None
}

/// `name = ...` / `name += ...` at statement head: the assigned local.
/// Field assignments (`self.x = ..`) are skipped — fields outlive the
/// intra-procedural window, so tracking them would only invite false
/// positives. Returns `(name, is_compound)`.
fn assignment_target(ctx: &Ctx, s: usize, e: usize) -> Option<(String, bool)> {
    let name = ctx.tokens[s].ident()?.to_string();
    let next = ctx.tokens.get(s + 1)?;
    if next.is_punct('=') && !ctx.tokens.get(s + 2).is_some_and(|t| t.is_punct('=')) {
        return Some((name, false));
    }
    let compound = matches!(next.kind, TokKind::Punct('+' | '-' | '*' | '/'))
        && ctx.tokens.get(s + 2).is_some_and(|t| t.is_punct('='))
        && s + 2 <= e;
    compound.then_some((name, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules;

    fn scan(src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let parsed = parse(&tokens);
        rules::run_rules("src/sample.rs", &tokens, &parsed, &Config::default())
    }

    fn rules_fired(src: &str) -> Vec<RuleId> {
        scan(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn dl006_tracks_unordered_across_statements() {
        let f = scan(
            "fn f(m: &HashMap<String, f64>) -> f64 {\n \
             let vals: Vec<f64> = m.values().cloned().collect();\n \
             let n = vals.len();\n \
             let s: f64 = vals.iter().sum();\n \
             s\n}\n",
        );
        assert!(
            f.iter().any(|x| x.rule == RuleId::Dl006 && x.line == 4),
            "{f:?}"
        );
    }

    #[test]
    fn dl006_cleared_by_ordered_sum() {
        let f = scan(
            "fn f(m: &HashMap<String, f64>) -> f64 {\n \
             let mut vals: Vec<f64> = m.values().cloned().collect();\n \
             vals.sort_by(|a, b| a.total_cmp(b));\n \
             let s: f64 = vals.iter().sum();\n \
             s\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn dl006_cleared_by_sanctioned_sink() {
        let f = scan(
            "fn f(m: &HashMap<String, f64>) -> f64 {\n \
             let vals: Vec<f64> = m.values().cloned().collect();\n \
             sum_ordered_f64(&vals)\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn dl006_needs_cross_statement_flow() {
        // Same-statement hash→sum is DL001/DL004 territory; DL006 must
        // stay quiet so one hazard is not triple-reported.
        let f = scan(
            "fn f(m: &HashMap<String, f64>) -> f64 {\n \
             m.values().sum()\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn dl006_sees_try_recv_taint() {
        let f = scan(
            "fn f(rx: &Receiver<f64>) -> f64 {\n \
             let got: Vec<f64> = rx.try_iter().collect();\n \
             let total: f64 = got.iter().sum();\n \
             total\n}\n",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn dl006_integer_accumulation_is_fine() {
        let f = scan(
            "fn f(m: &HashMap<String, u32>) -> u32 {\n \
             let vals: Vec<u32> = m.values().copied().collect();\n \
             let s: u32 = vals.iter().sum();\n \
             s\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn dl007_fires_on_draw_crossing_spawn() {
        let f = scan(
            "fn f(rng: &mut StreamRng, scope: &Scope) {\n \
             let jitter = rng.next_f64();\n \
             scope.spawn(move || work(jitter));\n}\n",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::Dl007), "{f:?}");
    }

    #[test]
    fn dl007_sanctioned_by_index_derivation() {
        let f = scan(
            "fn f(settings: &Settings, scope: &Scope, i: u64) {\n \
             let ent = settings.entropy_for(i);\n \
             scope.spawn(move || work(ent));\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl007), "{f:?}");
    }

    #[test]
    fn dl007_plan_dots_crossing_is_sanctioned() {
        // The gemm engine's pre-planned draws cross the band spawn by
        // design: planning happens in reference order before the spawn.
        let f = scan(
            "fn f(red: &mut Reducer, scope: &Scope) {\n \
             let plan = red.plan_dots(m * n, ka);\n \
             scope.spawn(move || run_band(plan));\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl007), "{f:?}");
    }

    #[test]
    fn dl007_fires_on_draw_reaching_frame_encode() {
        let f = scan(
            "fn f(rng: &mut StreamRng, out: &mut Vec<u8>) {\n \
             let tag = rng.next_u32();\n \
             let frame = encode_frame(Tag::Result, tag);\n \
             out.extend(frame);\n}\n",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::Dl007), "{f:?}");
    }

    #[test]
    fn taints_flow_through_renaming_lets() {
        let f = scan(
            "fn f(m: &HashMap<String, f64>) -> f64 {\n \
             let raw: Vec<f64> = m.values().cloned().collect();\n \
             let renamed = raw;\n \
             let out: f64 = renamed.iter().sum();\n \
             out\n}\n",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn shadowing_with_clean_value_clears_taint() {
        let f = scan(
            "fn f(m: &HashMap<String, f64>, clean: &[f64]) -> f64 {\n \
             let vals: Vec<f64> = m.values().cloned().collect();\n \
             let vals: Vec<f64> = clean.to_vec();\n \
             let s: f64 = vals.iter().sum();\n \
             s\n}\n",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::Dl006), "{f:?}");
    }

    #[test]
    fn no_flow_rule_fires_on_clean_code() {
        assert!(rules_fired(
            "fn f(v: &[f64]) -> f64 {\n let s = sum_ordered_f64(v);\n s * 2.0\n}\n"
        )
        .is_empty());
    }
}
