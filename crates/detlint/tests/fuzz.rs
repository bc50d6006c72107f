//! Parser robustness: `lex` + `parse` + `scan_file` must terminate
//! without panicking on arbitrarily mangled input.
//!
//! detlint scans every workspace file on every CI run, so a source file
//! mid-edit (unbalanced braces, truncated strings, stray bytes) must
//! never take the gate down with a panic — it should just produce a
//! best-effort scan. There is no fuzzing crate in the tree, so this is a
//! deterministic property test: a fixed-seed SplitMix64 drives byte-level
//! mangles (flip, delete, duplicate, truncate, punct injection) over
//! real workspace sources, which exercise far more parser states than
//! synthetic strings.

use detlint::{parser, Config};

/// Real workspace sources as fuzz seeds — the heaviest users of the
/// constructs the parser special-cases (closures, nested blocks,
/// generics, `if let` chains, attribute soup).
const SEEDS: &[&str] = &[
    include_str!("../../core/src/fleet.rs"),
    include_str!("../../core/src/runner.rs"),
    include_str!("../../core/src/settings.rs"),
    include_str!("../../tensor/src/reduce.rs"),
    include_str!("../../tensor/src/gemm.rs"),
    include_str!("fixtures/dl006_taint_flow.rs"),
    include_str!("fixtures/dl004_float_sum.rs"),
];

/// SplitMix64: deterministic, no external dep, good enough to spray
/// mangle positions around.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Punctuation the parser keys its structure on — injecting these hits
/// the brace/paren heuristics hardest.
const HOT_BYTES: &[u8] = b"{}()[];,=<>!&|.:\"'/#";

fn mangle(src: &str, rng: &mut Rng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let edits = 1 + rng.below(8);
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(5) {
            0 => bytes[at] = HOT_BYTES[rng.below(HOT_BYTES.len())],
            1 => {
                bytes.truncate(at);
            }
            2 => {
                let len = rng.below(64).min(bytes.len() - at);
                bytes.drain(at..at + len);
            }
            3 => {
                let len = rng.below(32).min(bytes.len() - at);
                let dup: Vec<u8> = bytes[at..at + len].to_vec();
                let insert_at = rng.below(bytes.len() + 1);
                for (k, b) in dup.into_iter().enumerate() {
                    bytes.insert(insert_at + k, b);
                }
            }
            _ => bytes[at] = (rng.next() & 0x7f) as u8,
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The actual property: every stage terminates, and the parse result is
/// internally consistent (ranges ordered and in bounds).
fn scan_terminates(src: &str) {
    let tokens = detlint::lexer::lex(src);
    let parsed = parser::parse(&tokens);
    for stmt in &parsed.stmts {
        assert!(stmt.range.0 <= stmt.range.1);
        assert!(stmt.range.1 < tokens.len());
        if let Some(fi) = stmt.fn_idx {
            assert!(fi < parsed.functions.len());
        }
    }
    for func in &parsed.functions {
        for &si in &func.stmt_indices {
            assert!(si < parsed.stmts.len());
        }
    }
    // Full pipeline: rules + dataflow.
    let _ = detlint::scan_file("crates/x/src/lib.rs", src, &Config::default());
}

#[test]
fn parser_never_panics_on_mangled_workspace_sources() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for (i, seed) in SEEDS.iter().enumerate() {
        // Unmangled first: the seeds themselves must scan.
        scan_terminates(seed);
        for round in 0..60 {
            let mangled = mangle(seed, &mut rng);
            // A panic here fails the test with (seed, round) context via
            // the panic message line numbers; keep the inputs cheap to
            // reproduce by re-running with the same constants.
            let _ = (i, round);
            scan_terminates(&mangled);
        }
    }
}

#[test]
fn parser_survives_pathological_minimal_inputs() {
    for src in [
        "",
        "{",
        "}",
        "{{{{{{",
        "}}}}}}",
        "fn",
        "fn f(",
        "fn f() {",
        "let",
        "let x = ",
        "if let = {",
        "for in in in {",
        "match { match { match {",
        "\"unterminated",
        "// comment only",
        "/* unterminated block",
        "#![attr",
        "fn f() { a.b.c.d.e.f.g.h.i.j(((((((((( }",
        "::::::::",
        "..=..=..=",
    ] {
        scan_terminates(src);
    }
}

#[test]
fn deep_nesting_is_cut_off_not_overflowed() {
    // MAX_DEPTH guards recursion; 4096 nested blocks must terminate.
    let mut src = String::from("fn f() { ");
    for _ in 0..4096 {
        src.push('{');
    }
    src.push_str(" let x = 1; ");
    for _ in 0..4096 {
        src.push('}');
    }
    src.push('}');
    scan_terminates(&src);
}
