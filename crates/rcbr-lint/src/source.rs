//! A lexed source file plus the line-level metadata rules need:
//! suppression comments, `#[cfg(test)]` regions, and crate attribution.

use crate::lexer::{lex, Comment, Token};

/// One workspace source file, ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// The owning crate's *directory* name (`rcbr-runtime`, …), or
    /// `workspace-root` for the facade's `src/`. Rule scopes in
    /// `lint.toml` use these names.
    pub crate_name: String,
    /// Under a `tests/`, `benches/`, or `examples/` directory.
    pub is_test_target: bool,
    pub tokens: Vec<Token>,
    /// Raw lines for snippets (1-based access via [`SourceFile::snippet`]).
    pub lines: Vec<String>,
    /// First line of the file's `#[cfg(test)]` region, if any. The
    /// workspace convention is one test module at the end of the file, so
    /// everything at or past this line is treated as test code.
    pub cfg_test_line: Option<u32>,
    /// `(rule-id, line)` pairs silenced by `lint:allow` comments;
    /// rule-id `*` silences every rule.
    suppressions: Vec<(String, u32)>,
}

impl SourceFile {
    /// Lex and annotate `source`.
    pub fn new(
        rel_path: impl Into<String>,
        crate_name: impl Into<String>,
        is_test_target: bool,
        source: &str,
    ) -> Self {
        let lexed = lex(source);
        let cfg_test_line = find_cfg_test(&lexed.tokens);
        let suppressions = find_suppressions(&lexed.comments);
        Self {
            rel_path: rel_path.into(),
            crate_name: crate_name.into(),
            is_test_target,
            tokens: lexed.tokens,
            lines: source.lines().map(str::to_string).collect(),
            cfg_test_line,
            suppressions,
        }
    }

    /// Is `line` inside test code (a test target, or at/past the file's
    /// `#[cfg(test)]` module)?
    pub fn is_test_at(&self, line: u32) -> bool {
        self.is_test_target || self.cfg_test_line.is_some_and(|t| line >= t)
    }

    /// Is `rule` suppressed at `line`? A `// lint:allow(rule)` comment
    /// covers its own line and the next (so it can sit above the
    /// offending statement or trail it).
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|(r, l)| (r == rule || r == "*") && (line == *l || line == *l + 1))
    }

    /// The trimmed source text of a 1-based line.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// First line of a `#[cfg(test)]` attribute, if any.
fn find_cfg_test(tokens: &[Token]) -> Option<u32> {
    for w in tokens.windows(7) {
        if w[0].is_punct('#')
            && w[1].is_punct('[')
            && w[2].is_ident("cfg")
            && w[3].is_punct('(')
            && w[4].is_ident("test")
            && w[5].is_punct(')')
            && w[6].is_punct(']')
        {
            return Some(w[0].line);
        }
    }
    None
}

/// Collect `lint:allow(rule-a, rule-b)` suppressions from comments.
fn find_suppressions(comments: &[Comment]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    out.push((rule.to_string(), c.end_line));
                }
            }
            rest = &rest[close..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_covers_own_and_next_line() {
        let f = SourceFile::new(
            "x.rs",
            "c",
            false,
            "// lint:allow(lease-units)\nlet t = now();\nlet u = now();\n",
        );
        assert!(f.is_suppressed("lease-units", 1));
        assert!(f.is_suppressed("lease-units", 2));
        assert!(!f.is_suppressed("lease-units", 3));
        assert!(!f.is_suppressed("other-rule", 2));
    }

    #[test]
    fn wildcard_suppression() {
        let f = SourceFile::new("x.rs", "c", false, "let t = now(); // lint:allow(*)\n");
        assert!(f.is_suppressed("anything", 1));
    }

    #[test]
    fn cfg_test_region() {
        let f = SourceFile::new(
            "x.rs",
            "c",
            false,
            "fn prod() {}\n#[cfg(test)]\nmod tests {}\n",
        );
        assert!(!f.is_test_at(1));
        assert!(f.is_test_at(2));
        assert!(f.is_test_at(3));
    }
}
