//! A small, line-aware Rust tokenizer.
//!
//! This is not a full Rust lexer — it is exactly enough to let the rules
//! in [`crate::rules`] match token *sequences* (`lease = 12`,
//! `salt : 3`, `fn name (`) without false positives from string
//! literals, comments, or doc examples. The properties the rules rely on:
//!
//! * identifiers, integer literals, and punctuation come out as separate
//!   tokens with 1-based line numbers;
//! * the *contents* of string/char literals and comments never appear as
//!   identifier tokens (so `"lease"` in a message cannot trip the
//!   `lease-units` rule);
//! * comments are collected separately with their line spans, so
//!   `lint:allow(...)` suppressions can be found;
//! * nested block comments, raw strings (`r#"…"#`), byte strings, raw
//!   identifiers, lifetimes-vs-char-literals, and numeric suffixes are
//!   handled well enough that real workspace sources lex losslessly.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// An integer literal; its value (when decimal and in range) is in
    /// [`Token::int`].
    Int,
    /// A float literal.
    Float,
    /// A string, byte-string, or char literal (contents dropped).
    Str,
    /// A lifetime (`'a`).
    Lifetime,
    /// A single punctuation character (compound operators arrive as a
    /// sequence: `::` is `:` `:`, `..` is `.` `.`).
    Punct,
}

/// One token, with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Identifier text or the punctuation character; empty for literals.
    pub text: String,
    /// Decimal value of an [`TokKind::Int`] token (0 if unparseable).
    pub int: u64,
    pub line: u32,
}

impl Token {
    /// Is this the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }
}

/// A comment (line or block), with the lines it spans.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: u32,
    /// Raw comment text including the `//` / `/*` markers.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`. Never panics; on malformed input it degrades to
/// treating bytes as punctuation, which at worst makes a rule miss — it
/// cannot crash the lint pass.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek() {
        let line = cur.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                let start = cur.pos;
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                });
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                let start = cur.pos;
                cur.bump();
                cur.bump();
                // Rust block comments nest.
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    line,
                    end_line: cur.line,
                    text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                });
            }
            b'"' => {
                lex_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: String::new(),
                    int: 0,
                    line,
                });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident with
                // no closing quote right after the first char.
                let is_lifetime = cur
                    .peek_at(1)
                    .is_some_and(|c| is_ident_start(c) && c != b'\\')
                    && cur.peek_at(2) != Some(b'\'');
                if is_lifetime {
                    cur.bump(); // '
                    let start = cur.pos;
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                        int: 0,
                        line,
                    });
                } else {
                    cur.bump(); // opening '
                    if cur.peek() == Some(b'\\') {
                        cur.bump();
                        cur.bump(); // the escaped char
                    } else {
                        cur.bump();
                    }
                    if cur.peek() == Some(b'\'') {
                        cur.bump();
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        int: 0,
                        line,
                    });
                }
            }
            b'0'..=b'9' => {
                let (kind, value) = lex_number(&mut cur);
                out.tokens.push(Token {
                    kind,
                    text: String::new(),
                    int: value,
                    line,
                });
            }
            _ if is_ident_start(b) => {
                // Raw strings / byte strings / raw identifiers first.
                if (b == b'r' || b == b'b') && lex_maybe_raw_or_byte_string(&mut cur) {
                    out.tokens.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        int: 0,
                        line,
                    });
                    continue;
                }
                let start = cur.pos;
                // `r#ident` raw identifier: skip the prefix, keep the name.
                if b == b'r'
                    && cur.peek_at(1) == Some(b'#')
                    && cur.peek_at(2).is_some_and(is_ident_start)
                {
                    cur.bump();
                    cur.bump();
                }
                let name_start = if cur.pos > start { cur.pos } else { start };
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&cur.src[name_start..cur.pos]).into_owned(),
                    int: 0,
                    line,
                });
            }
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    int: 0,
                    line,
                });
            }
        }
    }
    out
}

/// Consume a `"…"` string literal (cursor on the opening quote).
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening "
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// If the cursor sits on `r"`, `r#"`, `b"`, `br"`, `br#"`, or `b'`,
/// consume the whole literal and return true.
fn lex_maybe_raw_or_byte_string(cur: &mut Cursor<'_>) -> bool {
    let b0 = cur.peek();
    let (prefix_len, rest) = match b0 {
        Some(b'r') => (1, 1),
        Some(b'b') if cur.peek_at(1) == Some(b'r') => (2, 2),
        Some(b'b') => (1, 1),
        _ => return false,
    };
    let _ = rest;
    // Count `#` marks after the prefix.
    let mut hashes = 0usize;
    while cur.peek_at(prefix_len + hashes) == Some(b'#') {
        hashes += 1;
    }
    let raw = prefix_len > 1 || b0 == Some(b'r');
    match cur.peek_at(prefix_len + hashes) {
        Some(b'"') if raw || hashes == 0 => {}
        Some(b'\'') if b0 == Some(b'b') && hashes == 0 => {
            // Byte char literal `b'x'`.
            for _ in 0..prefix_len {
                cur.bump();
            }
            cur.bump(); // '
            if cur.peek() == Some(b'\\') {
                cur.bump();
            }
            cur.bump();
            if cur.peek() == Some(b'\'') {
                cur.bump();
            }
            return true;
        }
        _ => return false,
    }
    // A raw string with N hashes ends at `"` + N hashes; a plain byte
    // string (b"…") ends at an unescaped quote.
    for _ in 0..(prefix_len + hashes) {
        cur.bump();
    }
    cur.bump(); // opening "
    if b0 == Some(b'b') && hashes == 0 && prefix_len == 1 {
        while let Some(c) = cur.bump() {
            match c {
                b'\\' => {
                    cur.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
        return true;
    }
    loop {
        match cur.bump() {
            Some(b'"') => {
                let mut n = 0;
                while n < hashes && cur.peek() == Some(b'#') {
                    cur.bump();
                    n += 1;
                }
                if n == hashes {
                    return true;
                }
            }
            Some(_) => {}
            None => return true,
        }
    }
}

/// Consume a numeric literal (cursor on the first digit).
fn lex_number(cur: &mut Cursor<'_>) -> (TokKind, u64) {
    let start = cur.pos;
    let mut is_float = false;
    // Radix prefix?
    if cur.peek() == Some(b'0')
        && matches!(
            cur.peek_at(1),
            Some(b'x') | Some(b'X') | Some(b'o') | Some(b'O') | Some(b'b') | Some(b'B')
        )
    {
        cur.bump();
        cur.bump();
        while cur
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            cur.bump();
        }
        return (TokKind::Int, 0);
    }
    while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
        cur.bump();
    }
    // A fractional part — but not the start of a `..` range and not a
    // method call (`1.max(2)`).
    if cur.peek() == Some(b'.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        cur.bump();
        while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
            cur.bump();
        }
    }
    // Exponent.
    if matches!(cur.peek(), Some(b'e') | Some(b'E'))
        && (cur.peek_at(1).is_some_and(|c| c.is_ascii_digit())
            || (matches!(cur.peek_at(1), Some(b'+') | Some(b'-'))
                && cur.peek_at(2).is_some_and(|c| c.is_ascii_digit())))
    {
        is_float = true;
        cur.bump();
        cur.bump();
        while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
            cur.bump();
        }
    }
    // Type suffix (`u64`, `f64`, `usize`…).
    let digits_end = cur.pos;
    while cur.peek().is_some_and(is_ident_continue) {
        if matches!(cur.peek(), Some(b'f')) {
            is_float = true;
        }
        cur.bump();
    }
    if is_float {
        return (TokKind::Float, 0);
    }
    let text: String = String::from_utf8_lossy(&cur.src[start..digits_end])
        .chars()
        .filter(|c| *c != '_')
        .collect();
    (TokKind::Int, text.parse().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_strings_and_comments_separate() {
        let lexed = lex(r##"
// HashMap in a comment
fn f() {
    let s = "HashMap::new()";
    let r = r#"Instant::now"#;
    let m = BTreeMap::new(); // trailing
}
"##);
        let idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"BTreeMap"));
        assert!(!idents.contains(&"HashMap"));
        assert!(!idents.contains(&"Instant"));
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let esc = '\\n'; }");
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn int_values_and_ranges() {
        let lexed = lex("let x = &buf[8..16];");
        let ints: Vec<u64> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Int)
            .map(|t| t.int)
            .collect();
        assert_eq!(ints, vec![8, 16]);
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<(String, u32)> = lexed
            .tokens
            .iter()
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert_eq!(
            lines,
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 2),
                ("c".to_string(), 4)
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("fn")));
    }
}
