//! A lightweight Rust lexer for determinism linting.
//!
//! `syn` is unavailable offline, and full parsing is unnecessary: every
//! detlint rule works on token patterns plus coarse structure (statement
//! boundaries, enclosing `fn` signatures, `#[cfg(test)]` regions). The
//! lexer handles the parts that break naive text matching — strings (incl.
//! raw strings), char literals vs. lifetimes, nested block comments — and
//! records comments separately so suppressions can be parsed from them.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line.
    pub line: u32,
    /// Token payload.
    pub kind: TokKind,
}

/// Token classification; only what the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// A single punctuation character.
    Punct(char),
    /// Numeric literal (raw text kept for float detection).
    Num(String),
    /// String or byte-string literal. Its contents are dropped: no rule
    /// reads them, and a hazard name inside a string is not a hazard.
    Str,
    /// Char or byte literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` if this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, TokKind::Punct(p) if p == c)
    }

    /// `true` if this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// A comment with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the comment's start.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// `true` if tokens precede the comment on its line.
    pub trailing: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments (line, block, and doc comments).
    pub comments: Vec<Comment>,
}

struct Lexer<'a> {
    chars: &'a [char],
    pos: usize,
    line: u32,
    out: LexedFile,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, line: u32, kind: TokKind) {
        self.out.tokens.push(Tok { line, kind });
    }

    fn tokens_on_line(&self, line: u32) -> bool {
        self.out
            .tokens
            .iter()
            .rev()
            .take_while(|t| t.line == line)
            .next()
            .is_some()
    }

    fn lex_line_comment(&mut self) {
        let line = self.line;
        let trailing = self.tokens_on_line(line);
        self.bump();
        self.bump(); // the two slashes
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text,
            trailing,
        });
    }

    fn lex_block_comment(&mut self) {
        let line = self.line;
        let trailing = self.tokens_on_line(line);
        self.bump();
        self.bump(); // `/*`
        let mut depth = 1u32;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment {
            line,
            text,
            trailing,
        });
    }

    /// Consumes a quoted string body after the opening `"`, through the
    /// closing quote (an escaped quote does not close it).
    fn lex_string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '"' => return,
                '\\' => {
                    self.bump();
                }
                _ => {}
            }
        }
    }

    /// Consumes a raw string after `r`/`br`; `hashes` is the number of `#`s.
    fn lex_raw_string_body(&mut self, hashes: usize) {
        // Opening quote already consumed by caller.
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut seen = 0;
                while seen < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
        }
    }

    /// Tries to consume a raw/byte string prefix at an `r` or `b`.
    /// Returns `true` if a literal was consumed.
    fn try_string_prefix(&mut self) -> bool {
        let line = self.line;
        let c0 = self.peek(0);
        // b'x' byte char
        if c0 == Some('b') && self.peek(1) == Some('\'') {
            self.bump();
            self.bump();
            if self.peek(0) == Some('\\') {
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
            self.bump(); // closing quote
            self.push(line, TokKind::Char);
            return true;
        }
        // b"..."
        if c0 == Some('b') && self.peek(1) == Some('"') {
            self.bump();
            self.bump();
            self.lex_string_body();
            self.push(line, TokKind::Str);
            return true;
        }
        // r"..." / r#"..."# / br#"..."#
        let (skip, raw_start) = match (c0, self.peek(1)) {
            (Some('r'), Some(n)) if n == '"' || n == '#' => (1, 1),
            (Some('b'), Some('r')) => match self.peek(2) {
                Some(n) if n == '"' || n == '#' => (2, 2),
                _ => return false,
            },
            _ => return false,
        };
        let mut hashes = 0;
        while self.peek(raw_start + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(raw_start + hashes) != Some('"') {
            return false; // raw identifier like r#fn, or plain ident
        }
        for _ in 0..(skip + hashes + 1) {
            self.bump();
        }
        self.lex_raw_string_body(hashes);
        self.push(line, TokKind::Str);
        true
    }

    fn lex_number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let hex = text.starts_with("0x") || text.starts_with("0b");
            let take = c.is_ascii_alphanumeric()
                || c == '_'
                || ((c == '+' || c == '-') && !hex && text.ends_with(['e', 'E']))
                || (c == '.'
                    && !hex
                    && !text.contains('.')
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if take {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(line, TokKind::Num(text));
    }

    fn lex_ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(line, TokKind::Ident(text));
    }

    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.lex_line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.lex_block_comment();
            } else if c == '"' {
                let line = self.line;
                self.bump();
                self.lex_string_body();
                self.push(line, TokKind::Str);
            } else if c == '\'' {
                let line = self.line;
                // Lifetime vs char literal.
                let is_lifetime = self.peek(1).is_some_and(|n| n.is_alphabetic() || n == '_')
                    && self.peek(2) != Some('\'');
                if is_lifetime {
                    self.bump();
                    while let Some(n) = self.peek(0) {
                        if n.is_alphanumeric() || n == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(line, TokKind::Lifetime);
                } else {
                    self.bump();
                    if self.peek(0) == Some('\\') {
                        self.bump();
                        self.bump();
                    } else {
                        self.bump();
                    }
                    // Closing quote (missing only in malformed source).
                    if self.peek(0) == Some('\'') {
                        self.bump();
                    }
                    self.push(line, TokKind::Char);
                }
            } else if (c == 'r' || c == 'b') && self.try_string_prefix() {
                // consumed a raw/byte literal
            } else if c.is_ascii_digit() {
                self.lex_number();
            } else if c.is_alphabetic() || c == '_' {
                self.lex_ident();
            } else {
                let line = self.line;
                self.bump();
                self.push(line, TokKind::Punct(c));
            }
        }
        self.out
    }
}

/// Lexes one file's source text.
pub fn lex(source: &str) -> LexedFile {
    let chars: Vec<char> = source.chars().collect();
    Lexer {
        chars: &chars,
        pos: 0,
        line: 1,
        out: LexedFile::default(),
    }
    .run()
}

/// Computes the 1-based line ranges (inclusive) of `#[cfg(test)]` items and
/// `#[test]` functions, so rules can skip test-only code.
pub fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            // Skip over any further attributes to the item, then to its `{`.
            let mut j = i;
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            let start_line = tokens[i].line;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = matching_brace(tokens, j);
                regions.push((start_line, tokens[close.min(tokens.len() - 1)].line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// `true` if an attribute starting at `i` is `#[cfg(test)]` or `#[test]`.
fn is_test_attr(tokens: &[Tok], i: usize) -> bool {
    if !tokens.get(i).is_some_and(|t| t.is_punct('#'))
        || !tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        return false;
    }
    match tokens.get(i + 2).and_then(Tok::ident) {
        Some("test") => tokens.get(i + 3).is_some_and(|t| t.is_punct(']')),
        Some("cfg") => {
            tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
                && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
                && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
        }
        _ => false,
    }
}

/// Returns the index just past an attribute starting at `#`.
fn skip_attr(tokens: &[Tok], i: usize) -> usize {
    let mut j = i + 1; // at `[`
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let src = r##"
// a comment with HashMap inside
let x = "thread_rng in a string"; /* block HashMap */
let y = r#"raw "quoted" SystemTime"#;
"##;
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| t.is_ident("thread_rng") || t.is_ident("HashMap")));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Str)
                .count(),
            2
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn numbers_keep_float_shape() {
        let lexed = lex("let a = 1e-3; let b = 0.5f32; let r = 0..5;");
        let nums: Vec<String> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["1e-3", "0.5f32", "0", "5"]);
    }

    #[test]
    fn cfg_test_regions_cover_mod() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].0, 2);
        assert!(regions[0].1 >= 5);
    }

    #[test]
    fn trailing_comments_flagged() {
        let lexed = lex("let x = 1; // detlint::allow(DL001, reason = \"demo\")\n// standalone\n");
        assert!(lexed.comments[0].trailing);
        assert!(!lexed.comments[1].trailing);
    }
}
