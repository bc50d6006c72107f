//! Configuration for a detlint run, loaded from `detlint.toml`.
//!
//! Only the TOML subset detlint needs is supported: top-level
//! `key = value` pairs, `[rules.DLxxx]` sections and string arrays
//! (single- or multi-line). Unknown keys are errors so config typos
//! cannot silently disable a rule.

use std::collections::BTreeMap;
use std::path::Path;

use crate::RuleId;

/// Run configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// that are skipped entirely.
    pub exclude: Vec<String>,
    /// Per-rule path-prefix exemptions, e.g. the entropy module is the one
    /// place allowed to touch OS randomness.
    pub exempt: BTreeMap<RuleId, Vec<String>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            exclude: vec!["target".into(), ".git".into()],
            exempt: BTreeMap::new(),
        }
    }
}

impl Config {
    /// Loads a config file, or the defaults if `path` does not exist.
    pub fn load(path: &Path) -> Result<Config, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Config::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parses config text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        // Section context: None = top level, Some(rule) = [rules.DLxxx].
        let mut section: Option<RuleId> = None;
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let rule = name
                    .strip_prefix("rules.")
                    .and_then(RuleId::parse)
                    .ok_or_else(|| format!("line {}: unknown section [{name}]", idx + 1))?;
                section = Some(rule);
                continue;
            }
            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| format!("line {}: expected `key = value`", idx + 1))?;
            // Multi-line arrays: accumulate until the closing bracket.
            if value.starts_with('[') && !balanced_array(&value) {
                for (_, cont) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                    if balanced_array(&value) {
                        break;
                    }
                }
            }
            match (section, key.as_str()) {
                (None, "exclude") => cfg.exclude = parse_string_array(&value, idx)?,
                (Some(rule), "exempt") => {
                    cfg.exempt.insert(rule, parse_string_array(&value, idx)?);
                }
                (_, k) => {
                    return Err(format!("line {}: unknown key `{k}`", idx + 1));
                }
            }
        }
        Ok(cfg)
    }

    /// `true` if the path is excluded from scanning altogether.
    pub fn excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(rel_path, p))
    }

    /// `true` if `rule` is exempted for this path.
    pub fn rule_exempt(&self, rule: RuleId, rel_path: &str) -> bool {
        self.exempt
            .get(&rule)
            .is_some_and(|ps| ps.iter().any(|p| path_has_prefix(rel_path, p)))
    }

    /// `true` if the path is test/bench code by convention.
    pub fn is_test_path(rel_path: &str) -> bool {
        rel_path.split('/').any(|c| c == "tests" || c == "benches")
    }
}

/// Prefix match on whole path components.
fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Drops a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = c == '\\' && !escaped;
    }
    line
}

fn balanced_array(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string_array(value: &str, idx: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {}: expected a [\"...\"] array", idx + 1))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        let s = item
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: array items must be quoted strings", idx + 1))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
exclude = ["target", "crates/detlint/tests/fixtures"]

[rules.DL002]
exempt = [
    "crates/rng/src/entropy.rs", # the one sanctioned entropy source
    "third_party/rand",
]
"#,
        )
        .unwrap();
        assert_eq!(cfg.exclude.len(), 2);
        assert!(cfg.rule_exempt(RuleId::Dl002, "crates/rng/src/entropy.rs"));
        assert!(cfg.rule_exempt(RuleId::Dl002, "third_party/rand/src/lib.rs"));
        assert!(!cfg.rule_exempt(RuleId::Dl002, "crates/rng/src/philox.rs"));
        assert!(!cfg.rule_exempt(RuleId::Dl003, "third_party/rand/src/lib.rs"));
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let cfg = Config {
            exclude: vec!["crates/rng".into()],
            ..Config::default()
        };
        assert!(cfg.excluded("crates/rng/src/lib.rs"));
        assert!(!cfg.excluded("crates/rng2/src/lib.rs"));
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(Config::parse("scan_tets_code = true").is_err());
        // Test code is always skipped; the old switch is a typo like any other.
        assert!(Config::parse("scan_test_code = false").is_err());
        assert!(Config::parse("[rules.DL999]\nexempt = []").is_err());
        // DL008 takes path exemptions like every rule, not a name list.
        assert!(Config::parse("[rules.DL008]\nregistered = []").is_err());
    }

    #[test]
    fn test_paths_detected() {
        assert!(Config::is_test_path("tests/tests/determinism.rs"));
        assert!(Config::is_test_path("crates/tensor/benches/matmul.rs"));
        assert!(!Config::is_test_path("crates/tensor/src/ops.rs"));
    }
}
