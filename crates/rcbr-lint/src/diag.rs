//! Diagnostics and the machine-readable report.
//!
//! Diagnostics are plain data; the report sorts them by
//! `(path, line, rule)` before rendering so the human output and the JSON
//! in `results/lint_report.json` are byte-identical across runs and across
//! file-discovery orders — the linter holds itself to the same determinism
//! bar it enforces.

use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`lease-units`, `salt-registry`, …).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// The sort key that fixes report order.
    fn key(&self) -> (&str, u32, &str) {
        (&self.path, self.line, &self.rule)
    }

    /// `file:line: [rule] message` — the human rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        );
        if !self.snippet.is_empty() {
            let _ = write!(s, "\n    | {}", self.snippet);
        }
        s
    }
}

/// Per-rule tallies for the report header.
#[derive(Debug, Clone)]
pub struct RuleSummary {
    pub id: String,
    pub summary: String,
    pub violations: usize,
    pub suppressed: usize,
}

/// The complete result of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Files lexed and checked.
    pub files_scanned: usize,
    /// Every active rule, in registry order.
    pub rules: Vec<RuleSummary>,
    /// Violations sorted by `(path, line, rule)`.
    pub violations: Vec<Diagnostic>,
    /// Diagnostics silenced by `// lint:allow(rule)` comments.
    pub suppressed: usize,
}

impl LintReport {
    /// Sort violations into canonical order. Must be called before
    /// rendering; `run_lint` does this.
    pub fn canonicalize(&mut self) {
        self.violations.sort_by(|a, b| a.key().cmp(&b.key()));
    }

    /// Is the workspace clean?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the JSON report. Hand-rolled (the linter is dependency-free
    /// by design) with sorted keys and no floats, so output is canonical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"clean\": {},", self.clean());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"rules\": [\n");
        for (i, r) in self.rules.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": {}, \"summary\": {}, \"violations\": {}, \"suppressed\": {}}}",
                json_str(&r.id),
                json_str(&r.summary),
                r.violations,
                r.suppressed
            );
            out.push_str(if i + 1 < self.rules.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        out.push_str("  \"violations\": [\n");
        for (i, d) in self.violations.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(&d.rule),
                json_str(&d.path),
                d.line,
                json_str(&d.message),
                json_str(&d.snippet)
            );
            out.push_str(if i + 1 < self.violations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON-escape a string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &str, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            path: path.into(),
            line,
            message: "m".into(),
            snippet: "s".into(),
        }
    }

    #[test]
    fn canonical_order_is_path_line_rule() {
        let mut r = LintReport {
            files_scanned: 0,
            rules: Vec::new(),
            violations: vec![d("b", "z.rs", 1), d("a", "a.rs", 9), d("a", "a.rs", 2)],
            suppressed: 0,
        };
        r.canonicalize();
        let order: Vec<(String, u32)> = r
            .violations
            .iter()
            .map(|v| (v.path.clone(), v.line))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 9),
                ("z.rs".to_string(), 1)
            ]
        );
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }
}
