//! `lint.toml` — a minimal TOML-subset reader.
//!
//! The build environment is offline, so instead of a TOML crate this
//! parses exactly the subset the lint configuration uses:
//!
//! ```toml
//! [section.name]          # tables, dotted names allowed
//! key = "string"
//! flag = true
//! count = 16
//! list = ["a", "b"]       # string lists, may span multiple lines
//! # comments
//! ```
//!
//! Unknown syntax is a hard error with a line number — a config typo must
//! fail the lint run loudly, not silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;

/// A configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    List(Vec<String>),
}

/// Parsed configuration: `section -> key -> value`. Sections and keys are
/// ordered (BTreeMap) so iteration — and therefore every report derived
/// from it — is deterministic.
#[derive(Debug, Default, Clone)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

/// A parse failure, with the 1-based line it happened on.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse a configuration document.
    pub fn parse(src: &str) -> Result<Self, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("unterminated section header: {raw:?}"),
                })?;
                section = name.trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let (key, rest) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got {raw:?}"),
            })?;
            let key = key.trim().to_string();
            let mut rest = rest.trim().to_string();
            // A list may continue over following lines until the closing
            // bracket.
            if rest.starts_with('[') {
                while !rest.contains(']') {
                    let (cont_idx, cont) = lines.next().ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!("unterminated list for key {key:?}"),
                    })?;
                    let _ = cont_idx;
                    rest.push(' ');
                    rest.push_str(strip_comment(cont).trim());
                }
            }
            let value = parse_value(&rest, lineno)?;
            cfg.sections
                .entry(section.clone())
                .or_default()
                .insert(key, value);
        }
        Ok(cfg)
    }

    /// Raw value lookup.
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.sections.get(section)?.get(key)
    }

    /// String value, if present and a string.
    pub fn str_(&self, section: &str, key: &str) -> Option<&str> {
        match self.get(section, key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Integer value, if present and an integer.
    pub fn int(&self, section: &str, key: &str) -> Option<i64> {
        match self.get(section, key) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Bool value with a default.
    pub fn bool_or(&self, section: &str, key: &str, default: bool) -> bool {
        match self.get(section, key) {
            Some(Value::Bool(v)) => *v,
            _ => default,
        }
    }

    /// String-list value; empty if absent. A bare string counts as a
    /// one-element list.
    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.get(section, key) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, ConfigError> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("unterminated list: {text:?}"),
        })?;
        let mut items = Vec::new();
        for item in split_list(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, lineno)? {
                Value::Str(s) => items.push(s),
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("lists may only hold strings, got {other:?}"),
                    })
                }
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("unterminated string: {text:?}"),
        })?;
        return Ok(Value::Str(
            inner.replace("\\\"", "\"").replace("\\\\", "\\"),
        ));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| ConfigError {
            line: lineno,
            message: format!("expected a string, integer, bool, or list, got {text:?}"),
        })
}

/// Split a list body on commas outside quotes.
fn split_list(inner: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '\\' if in_str => {
                cur.push(c);
                if let Some(n) = chars.next() {
                    cur.push(n);
                }
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        items.push(cur);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let cfg = Config::parse(
            r#"
# top comment
[lint]
exclude = ["crates/serde", "target"] # trailing comment

[rule.wall-clock]
enabled = true
crates = [
    "rcbr-runtime",
    "rcbr-net",
]
total = 16
note = "a # inside a string"
"#,
        )
        .unwrap();
        assert_eq!(cfg.list("lint", "exclude"), vec!["crates/serde", "target"]);
        assert!(cfg.bool_or("rule.wall-clock", "enabled", false));
        assert_eq!(
            cfg.list("rule.wall-clock", "crates"),
            vec!["rcbr-runtime", "rcbr-net"]
        );
        assert_eq!(cfg.int("rule.wall-clock", "total"), Some(16));
        assert_eq!(
            cfg.str_("rule.wall-clock", "note"),
            Some("a # inside a string")
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Config::parse("[lint]\nkey value\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
