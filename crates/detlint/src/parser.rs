//! A lightweight structural parser on top of the lexer.
//!
//! detlint v1 worked on raw token runs delimited by `;`/`{`/`}`. That is
//! enough for single-statement pattern rules, but the dataflow rules
//! (DL006, DL007) need to know *which function* a statement belongs to,
//! and what a `let` binds. This module recovers exactly that shape —
//! items, `fn` signatures, blocks, statements with their token extents,
//! and `let`-bindings — without attempting a full Rust grammar.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never loop.** The parser runs over every file in the
//!    workspace including malformed ones (a fuzz test feeds it byte-mangled
//!    source). Every loop consumes at least one token; recursion is
//!    depth-capped and falls back to brace-skipping beyond the cap.
//! 2. **Agree with the v1 rules engine.** Statement boundaries are the same
//!    `;`/`{`/`}` splits `rules::Ctx::stmt_range` uses, so the parser swap
//!    cannot move any token-rule finding. The parser *adds* structure
//!    (full statement extents across nested expression braces, bindings,
//!    enclosing functions); it does not reinterpret the old boundaries.
//! 3. **Heuristics are explicit.** A `{` after a control keyword (`if`,
//!    `for`, `while`, `loop`, `match`, `unsafe`, `else`) or an item
//!    keyword (`fn`, `impl`, `mod`, ...) opens a block; any other `{` is
//!    an expression brace (struct literal, closure body, match arm body)
//!    and is kept *inside* the current statement's extent. Rust's
//!    no-struct-literal-in-control-header rule makes this sound for real
//!    source.

use crate::lexer::Tok;

/// Maximum block recursion depth; beyond it, nested blocks are skipped
/// generically (their statements are not recorded). Real workspace source
/// nests a handful of levels; only adversarial input goes deeper.
const MAX_DEPTH: u32 = 64;

/// Keywords that head a control-flow construct whose `{` is a block.
const CONTROL_KEYWORDS: &[&str] = &["if", "while", "for", "loop", "match", "unsafe", "else"];

/// Keywords that head an item whose `{` is a body/field block.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "impl", "mod", "trait", "enum", "struct", "union", "extern",
];

/// One binding introduced by a `let` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LetBinding {
    /// Names bound by the pattern (all idents in pattern position; for
    /// `let (a, b) = ..` both `a` and `b`).
    pub names: Vec<String>,
    /// Token range of the initializer (after `=`), inclusive, if any.
    pub init: Option<(usize, usize)>,
}

/// One statement: a token run plus structure.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Inclusive token index range. For a statement with nested
    /// *expression* braces (struct literals, closure bodies) the range
    /// spans them; for a control-flow header (`for x in xs {`) the range
    /// ends before the `{` and the body statements are recorded
    /// separately.
    pub range: (usize, usize),
    /// Index into [`ParsedFile::functions`] of the innermost enclosing
    /// `fn`, if any.
    pub fn_idx: Option<usize>,
    /// The bindings, when this is a `let` statement.
    pub let_binding: Option<LetBinding>,
}

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name (`fn` keyword's following ident), if present.
    pub name: Option<String>,
    /// Inclusive token range of the signature (`fn` through the token
    /// before the body `{`).
    pub sig: (usize, usize),
    /// Indices into [`ParsedFile::stmts`] of every statement in the body,
    /// including statements of nested blocks, in source order. Nested
    /// `fn` items get their own entry; their statements belong to the
    /// inner function only.
    pub stmt_indices: Vec<usize>,
}

/// The parsed shape of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All statements, in source order.
    pub stmts: Vec<Stmt>,
    /// All `fn` items, in source order of their `fn` keyword.
    pub functions: Vec<Function>,
}

struct Parser<'a> {
    tokens: &'a [Tok],
    out: ParsedFile,
}

/// Parses a lexed file into statements and functions.
pub fn parse(tokens: &[Tok]) -> ParsedFile {
    let mut p = Parser {
        tokens,
        out: ParsedFile::default(),
    };
    p.parse_stmts(0, tokens.len(), None, 0);
    p.out
}

impl Parser<'_> {
    fn is(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(c))
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).and_then(Tok::ident)
    }

    /// Index just past the `}` matching the `{` at `open` (or `end`).
    fn skip_braces(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is(i, '{') {
                depth += 1;
            } else if self.is(i, '}') {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// `true` if the `=` at `i` is a plain assignment operator (not part
    /// of `==`, `=>`, `<=`, `>=`, `!=`, `+=`, ...).
    fn is_plain_eq(&self, i: usize, stmt_start: usize) -> bool {
        if !self.is(i, '=') {
            return false;
        }
        if self.is(i + 1, '=') || self.is(i + 1, '>') {
            return false;
        }
        if i > stmt_start {
            let prev = &self.tokens[i - 1];
            for c in ['=', '<', '>', '!', '+', '-', '*', '/', '%', '&', '|', '^'] {
                if prev.is_punct(c) {
                    return false;
                }
            }
        }
        true
    }

    /// Parses statements in `[i, end)` at one block level. `fn_idx` is the
    /// innermost enclosing function. Returns the index just past `end` or
    /// past the closing `}` that ended the region.
    fn parse_stmts(
        &mut self,
        mut i: usize,
        end: usize,
        fn_idx: Option<usize>,
        depth: u32,
    ) -> usize {
        while i < end {
            if self.is(i, '}') {
                return i + 1;
            }
            if self.is(i, ';') || self.is(i, ',') {
                // Empty statement / stray separator (match-arm commas land
                // here after an arm's expression statement).
                i += 1;
                continue;
            }
            if self.is(i, '{') {
                // Bare block statement.
                i = self.enter_block(i, end, fn_idx, depth);
                continue;
            }
            i = self.parse_stmt(i, end, fn_idx, depth);
        }
        end
    }

    /// Descends into the block whose `{` is at `open`; returns the index
    /// just past its `}`.
    fn enter_block(&mut self, open: usize, end: usize, fn_idx: Option<usize>, depth: u32) -> usize {
        if depth >= MAX_DEPTH {
            return self.skip_braces(open, end);
        }
        self.parse_stmts(open + 1, end, fn_idx, depth + 1)
    }

    /// Parses one statement starting at `i` (not a `}`/`;`/`{`). Returns
    /// the index just past it (past its `;`, or past its body block for a
    /// control/item statement, or at the region's `}`).
    fn parse_stmt(&mut self, start: usize, end: usize, fn_idx: Option<usize>, depth: u32) -> usize {
        // Leading attributes `#[...]` belong to the statement but must not
        // confuse keyword detection.
        let mut i = start;
        while self.is(i, '#') && self.is(i + 1, '[') {
            let mut d = 0i32;
            let mut j = i + 1;
            while j < end {
                if self.is(j, '[') {
                    d += 1;
                } else if self.is(j, ']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = (j + 1).min(end);
        }
        let head = i;
        // Skip visibility / leading qualifiers to find the head keyword.
        let mut kw = head;
        loop {
            match self.ident_at(kw) {
                Some("pub") => {
                    kw += 1;
                    if self.is(kw, '(') {
                        // pub(crate) / pub(super)
                        let mut d = 0i32;
                        while kw < end {
                            if self.is(kw, '(') {
                                d += 1;
                            } else if self.is(kw, ')') {
                                d -= 1;
                                if d == 0 {
                                    kw += 1;
                                    break;
                                }
                            }
                            kw += 1;
                        }
                    }
                }
                Some("const") if self.ident_at(kw + 1) == Some("fn") => kw += 1,
                Some("async" | "unsafe")
                    if self
                        .ident_at(kw + 1)
                        .is_some_and(|s| s == "fn" || s == "extern") =>
                {
                    kw += 1
                }
                _ => break,
            }
        }
        let head_kw = self.ident_at(kw);
        let is_item = head_kw.is_some_and(|s| ITEM_KEYWORDS.contains(&s));
        let is_control = head_kw.is_some_and(|s| CONTROL_KEYWORDS.contains(&s));
        let is_fn = head_kw == Some("fn");
        let is_let = head_kw == Some("let");

        // Scan to the statement end: a `;` at paren/bracket depth 0, a
        // region-closing `}`, or — for control/item heads — the body `{`.
        let mut j = kw;
        if is_control || is_item {
            j = kw + 1; // the keyword itself can't end the statement
        }
        let mut nest = 0i32; // ( and [ nesting
        let mut eq_at: Option<usize> = None;
        let mut stmt_end = None; // inclusive index of last token
        let mut resume_at = end;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                nest -= 1;
            } else if nest <= 0 && t.is_punct(';') {
                stmt_end = Some(j.saturating_sub(1).max(start));
                resume_at = j + 1;
                break;
            } else if nest <= 0 && t.is_punct(',') && !is_control && !is_item {
                // Match-arm style separator at block level ends the
                // statement (tuples at true statement level are not a
                // thing; inside parens/brackets nest > 0 shields commas).
                stmt_end = Some(j.saturating_sub(1).max(start));
                resume_at = j + 1;
                break;
            } else if nest <= 0 && t.is_punct('}') {
                // Region closes without a `;` (tail expression).
                stmt_end = Some(j.saturating_sub(1).max(start));
                resume_at = j; // caller sees the `}`
                break;
            } else if nest <= 0 && t.is_punct('{') {
                if is_control || (is_item && !is_fn) {
                    // Control/item body block: header statement ends
                    // before the brace; body parsed as nested statements.
                    stmt_end = Some(j.saturating_sub(1).max(start));
                    resume_at = self.enter_block(j, end, fn_idx, depth);
                    break;
                }
                if is_fn {
                    // Function body: record the function, parse the body
                    // with the new fn index. Statements register
                    // themselves with their own enclosing fn, so nested
                    // fns keep their statements to themselves.
                    let func_idx = self.out.functions.len();
                    self.out.functions.push(Function {
                        name: self.ident_at(kw + 1).map(str::to_string),
                        sig: (start, j.saturating_sub(1).max(start)),
                        stmt_indices: Vec::new(),
                    });
                    let after_body = self.enter_block(j, end, Some(func_idx), depth);
                    stmt_end = Some(j.saturating_sub(1).max(start));
                    resume_at = after_body;
                    break;
                }
                // Expression brace (struct literal, closure body, `match`
                // used as a value, ...): stays inside this statement.
                j = self.skip_braces(j, end);
                continue;
            } else if nest <= 0 && eq_at.is_none() && self.is_plain_eq(j, start) {
                eq_at = Some(j);
            }
            j += 1;
        }
        let stmt_end = stmt_end.unwrap_or_else(|| end.saturating_sub(1).max(start));
        if resume_at == end && j >= end {
            // Ran off the region without a terminator.
            resume_at = end;
        }

        let let_binding = if is_let {
            Some(self.parse_let(kw, stmt_end, eq_at))
        } else if is_control {
            self.parse_header_binding(kw, stmt_end)
        } else {
            None
        };
        let range = (start, stmt_end.min(end.saturating_sub(1)).max(start));
        self.out.stmts.push(Stmt {
            range,
            fn_idx,
            let_binding,
        });
        if let Some(fi) = fn_idx {
            let idx = self.out.stmts.len() - 1;
            self.out.functions[fi].stmt_indices.push(idx);
        }
        resume_at.max(start + 1) // always make progress
    }

    /// Extracts the bindings of a `let` statement: `kw` is the `let`
    /// token, `stmt_end` the statement's last token, `eq_at` the `=` if
    /// one was seen at depth 0.
    fn parse_let(&self, kw: usize, stmt_end: usize, eq_at: Option<usize>) -> LetBinding {
        // Pattern range: after `let` up to the `:` (type annotation) or
        // `=` at paren depth 0, or the statement end.
        let pat_end = eq_at.unwrap_or(stmt_end + 1);
        let mut names = Vec::new();
        let mut nest = 0i32;
        let mut i = kw + 1;
        let mut ty_started = false;
        while i < pat_end && i <= stmt_end {
            let t = &self.tokens[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                nest -= 1;
            } else if nest <= 0 && t.is_punct(':') && !self.is(i + 1, ':') && !self.is(i - 1, ':') {
                ty_started = true;
            } else if !ty_started {
                if let Some(id) = t.ident() {
                    // Skip binding-mode keywords and path segments used as
                    // enum constructors (`Some(x)` → `x` only); a path
                    // segment is followed by `(`/`::`/`{`.
                    let is_kw = matches!(id, "mut" | "ref" | "box" | "_");
                    let is_path = self.is(i + 1, '(')
                        || self.is(i + 1, '{')
                        || (self.is(i + 1, ':') && self.is(i + 2, ':'));
                    if !is_kw && !is_path {
                        names.push(id.to_string());
                    }
                }
            }
            i += 1;
        }
        let init = eq_at.and_then(|e| {
            let s = e + 1;
            (s <= stmt_end).then_some((s, stmt_end))
        });
        LetBinding { names, init }
    }

    /// Bindings introduced by a control-flow header: `for PAT in EXPR`,
    /// `if let PAT = EXPR`, `while let PAT = EXPR`.
    fn parse_header_binding(&self, kw: usize, stmt_end: usize) -> Option<LetBinding> {
        if self.ident_at(kw) == Some("for") {
            // Pattern between `for` and `in` (at paren depth 0).
            let mut nest = 0i32;
            let mut in_at = None;
            for i in kw + 1..=stmt_end {
                let t = &self.tokens[i];
                if t.is_punct('(') || t.is_punct('[') {
                    nest += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    nest -= 1;
                } else if nest <= 0 && t.is_ident("in") {
                    in_at = Some(i);
                    break;
                }
            }
            let in_at = in_at?;
            let mut names = Vec::new();
            for i in kw + 1..in_at {
                if let Some(id) = self.tokens[i].ident() {
                    let is_kw = matches!(id, "mut" | "ref" | "_");
                    let is_path =
                        self.is(i + 1, '(') || (self.is(i + 1, ':') && self.is(i + 2, ':'));
                    if !is_kw && !is_path {
                        names.push(id.to_string());
                    }
                }
            }
            let init = (in_at < stmt_end).then_some((in_at + 1, stmt_end));
            return Some(LetBinding { names, init });
        }
        // `if let` / `while let`: find the `let`, then its `=`.
        let let_at = (kw + 1..=stmt_end).find(|&i| self.tokens[i].is_ident("let"))?;
        let eq_at = (let_at + 1..=stmt_end).find(|&i| self.is_plain_eq(i, let_at));
        Some(self.parse_let(let_at, stmt_end, eq_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    /// The lines of a statement's first and last token.
    fn lines(src: &str, stmt: &Stmt) -> (u32, u32) {
        let tokens = lex(src);
        (tokens[stmt.range.0].line, tokens[stmt.range.1].line)
    }

    #[test]
    fn functions_and_statements_are_recovered() {
        let src = "\
fn alpha(x: u32) -> u32 {
    let y = x + 1;
    y
}

pub fn beta() {
    let z: f64 = 0.0;
}
";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].name.as_deref(), Some("alpha"));
        assert_eq!(p.functions[1].name.as_deref(), Some("beta"));
        assert_eq!(p.functions[0].stmt_indices.len(), 2);
        assert_eq!(p.functions[1].stmt_indices.len(), 1);
    }

    #[test]
    fn multi_line_statement_spans_its_lines() {
        let src = "\
fn f(vals: &[f64]) -> f64 {
    let s: f64 = vals
        .iter()
        .map(|v| v * 2.0)
        .sum();
    s
}
";
        let p = parse_src(src);
        // The let statement starts on line 2 and ends on line 5.
        let stmt = p
            .stmts
            .iter()
            .find(|s| s.let_binding.is_some())
            .expect("let stmt");
        assert_eq!(lines(src, stmt), (2, 5));
        assert_eq!(
            stmt.let_binding.as_ref().unwrap().names,
            vec!["s".to_string()]
        );
    }

    #[test]
    fn let_patterns_bind_every_name() {
        let p = parse_src("fn f() { let (a, b) = pair(); let Some(c) = opt else { return; }; }");
        let bindings: Vec<Vec<String>> = p
            .stmts
            .iter()
            .filter_map(|s| s.let_binding.as_ref().map(|b| b.names.clone()))
            .collect();
        assert!(bindings.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(bindings.iter().any(|b| b.contains(&"c".to_string())));
    }

    #[test]
    fn control_flow_bodies_are_nested_statements() {
        let src = "\
fn f(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for x in xs {
        total += x;
    }
    total
}
";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 1);
        // let, for-header, total += x, total
        assert_eq!(p.functions[0].stmt_indices.len(), 4);
        // The for-header statement ends before its `{`.
        let header = p
            .stmts
            .iter()
            .find(|s| lines(src, s).0 == 3)
            .expect("for header");
        assert_eq!(lines(src, header), (3, 3));
    }

    #[test]
    fn struct_literal_brace_stays_in_statement() {
        let src = "\
fn f() -> Foo {
    let foo = Foo {
        a: 1,
        b: 2,
    };
    foo
}
";
        let p = parse_src(src);
        let stmt = p
            .stmts
            .iter()
            .find(|s| s.let_binding.is_some())
            .expect("let stmt");
        assert_eq!(lines(src, stmt), (2, 5));
    }

    #[test]
    fn if_let_body_is_a_block_not_an_expression_brace() {
        let src = "\
fn f(opt: Option<u32>) {
    if let Some(x) = opt {
        use_it(x);
    }
}
";
        let p = parse_src(src);
        let header = p
            .stmts
            .iter()
            .find(|s| lines(src, s).0 == 2)
            .expect("if header");
        assert_eq!(lines(src, header), (2, 2), "body must not be swallowed");
        assert!(p.stmts.iter().any(|s| lines(src, s).0 == 3));
    }

    #[test]
    fn nested_fn_statements_belong_to_inner_fn() {
        let src = "fn outer() { fn inner() { let a = 1; } let b = 2; }";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 2);
        let outer = p
            .functions
            .iter()
            .find(|f| f.name.as_deref() == Some("outer"))
            .unwrap();
        let inner = p
            .functions
            .iter()
            .find(|f| f.name.as_deref() == Some("inner"))
            .unwrap();
        let inner_lets: Vec<&str> = inner
            .stmt_indices
            .iter()
            .filter_map(|&i| p.stmts[i].let_binding.as_ref())
            .flat_map(|b| b.names.iter().map(String::as_str))
            .collect();
        assert_eq!(inner_lets, ["a"]);
        assert!(outer
            .stmt_indices
            .iter()
            .filter_map(|&i| p.stmts[i].let_binding.as_ref())
            .flat_map(|b| b.names.iter())
            .any(|n| n == "b"));
    }

    #[test]
    fn malformed_input_terminates() {
        for src in [
            "",
            "{",
            "}",
            "{{{{",
            "}}}}",
            "fn",
            "fn f(",
            "let",
            "let x = ",
            "fn f() {",
            ";;;;",
            "fn f() { let = ; }",
            "#[",
            "#[derive(",
            "match {",
        ] {
            let _ = parse_src(src); // must not panic or hang
        }
    }

    #[test]
    fn deep_nesting_is_capped_not_crashed() {
        let mut src = String::from("fn f() { ");
        for _ in 0..500 {
            src.push_str("if a { ");
        }
        for _ in 0..500 {
            src.push('}');
        }
        src.push('}');
        let _ = parse_src(&src);
    }
}
