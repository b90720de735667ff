//! A lightweight Rust tokenizer — just enough lexical structure for the
//! lint passes.
//!
//! The scanner distinguishes identifiers, punctuation, numeric/char/string
//! literals (including raw strings and byte strings) and comments, and tags
//! every token with its 1-based source line. It deliberately does *not*
//! build a syntax tree: the passes work on token patterns plus a little
//! brace-matching (see [`crate::pass`]), which is robust against the subset
//! of Rust this repository uses and keeps the tool dependency-free — the
//! build environment cannot fetch a real parser from crates.io.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `impl`, `for`, ...).
    Ident,
    /// A lifetime (`'a`) — kept separate so `'a` is never a char literal.
    Lifetime,
    /// One punctuation character (`{`, `}`, `:`, `!`, ...).
    Punct,
    /// A numeric literal (`0x1f`, `1_000`, `1.5e3`).
    Number,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A `//` comment, doc or plain. Text excludes the newline.
    LineComment,
    /// A `/* … */` comment (possibly spanning lines, possibly nested).
    BlockComment,
}

/// One lexeme with its kind, text and 1-based starting line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexical class.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is an identifier equal to `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// Whether the token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes `src` into a flat token stream. Unterminated constructs are
/// closed at end of input rather than reported — the lints prefer a
/// best-effort stream over hard failures on exotic files.
pub fn tokenize(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Newlines and whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            match bytes[i + 1] as char {
                '/' => {
                    let start = i;
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::LineComment,
                        text: src[start..i].to_string(),
                        line,
                    });
                    continue;
                }
                '*' => {
                    let start = i;
                    let start_line = line;
                    let mut depth = 1u32;
                    i += 2;
                    while i < bytes.len() && depth > 0 {
                        if bytes[i] == b'\n' {
                            line += 1;
                            i += 1;
                        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                            depth += 1;
                            i += 2;
                        } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::BlockComment,
                        text: src[start..i].to_string(),
                        line: start_line,
                    });
                    continue;
                }
                _ => {}
            }
        }
        // Raw strings: r"…", r#"…"#, br#"…"# etc.
        if (c == 'r' || c == 'b') && is_raw_string_start(bytes, i) {
            let (end, newlines) = scan_raw_string(bytes, i);
            tokens.push(Token {
                kind: TokenKind::Str,
                text: src[i..end].to_string(),
                line,
            });
            line += newlines;
            i = end;
            continue;
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && i + 1 < bytes.len() && bytes[i + 1] == b'"') {
            let start = i;
            let start_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            tokens.push(Token {
                kind: TokenKind::Str,
                text: src[start..i.min(bytes.len())].to_string(),
                line: start_line,
            });
            continue;
        }
        // Lifetimes vs char literals: 'a (no closing quote soon) vs 'a'.
        if c == '\'' || (c == 'b' && i + 1 < bytes.len() && bytes[i + 1] == b'\'') {
            let start = i;
            let q = if c == 'b' { i + 1 } else { i };
            // A lifetime is ' followed by ident chars and NOT closed by '.
            if c == '\'' && is_lifetime(bytes, q) {
                i = q + 1;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: src[start..i].to_string(),
                    line,
                });
                continue;
            }
            // Char or byte literal.
            i = q + 1;
            if i < bytes.len() && bytes[i] == b'\\' {
                i += 2;
            } else if i < bytes.len() {
                // Possibly multi-byte UTF-8 scalar; advance one char.
                let ch_len = utf8_len(bytes[i]);
                i += ch_len;
            }
            if i < bytes.len() && bytes[i] == b'\'' {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Char,
                text: src[start..i.min(bytes.len())].to_string(),
                line,
            });
            continue;
        }
        // Numbers. A `.` is only consumed when not starting a `..` range.
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() {
                let b = bytes[i];
                // `1.5` but not the range `0..n`; exponent signs `1.5e-3`.
                let fraction_dot = b == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1] != b'.'
                    && !is_ident_start(bytes[i + 1]);
                let exponent_sign = (b == b'+' || b == b'-')
                    && matches!(bytes[i - 1], b'e' | b'E')
                    && src[start..i].contains('.');
                if is_ident_char(b) || fraction_dot || exponent_sign {
                    i += 1;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }
        // Identifiers and keywords (including r#ident).
        if is_ident_start(bytes[i]) || !c.is_ascii() {
            let start = i;
            while i < bytes.len() && (is_ident_char(bytes[i]) || !bytes[i].is_ascii()) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }
        // Everything else: single punctuation character.
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    tokens
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphabetic()
}

fn is_ident_char(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphanumeric()
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Whether position `q` (at a `'`) starts a lifetime rather than a char
/// literal: `'ident` not immediately closed by `'`.
fn is_lifetime(bytes: &[u8], q: usize) -> bool {
    if q + 1 >= bytes.len() || !is_ident_start(bytes[q + 1]) {
        return false;
    }
    let mut j = q + 1;
    while j < bytes.len() && is_ident_char(bytes[j]) {
        j += 1;
    }
    // 'a' is a char literal; 'a (no closing quote) is a lifetime.
    !(j < bytes.len() && bytes[j] == b'\'' && j == q + 2)
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Scans a raw string starting at `i`; returns (end index, newline count).
fn scan_raw_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let mut newlines = 0u32;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
            j += 1;
        } else if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0usize;
            while k < bytes.len() && bytes[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return (k, newlines);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        let ts = kinds("let x = 42;");
        assert_eq!(ts[0], (TokenKind::Ident, "let".into()));
        assert_eq!(ts[1], (TokenKind::Ident, "x".into()));
        assert_eq!(ts[2], (TokenKind::Punct, "=".into()));
        assert_eq!(ts[3], (TokenKind::Number, "42".into()));
        assert_eq!(ts[4], (TokenKind::Punct, ";".into()));
    }

    #[test]
    fn range_is_not_a_float() {
        let ts = kinds("0..n");
        assert_eq!(ts[0], (TokenKind::Number, "0".into()));
        assert_eq!(ts[1], (TokenKind::Punct, ".".into()));
        assert_eq!(ts[2], (TokenKind::Punct, ".".into()));
        assert_eq!(ts[3], (TokenKind::Ident, "n".into()));
    }

    #[test]
    fn float_literals_lex_whole() {
        let ts = kinds("1.5e3 2.0f64");
        assert_eq!(ts[0], (TokenKind::Number, "1.5e3".into()));
        assert_eq!(ts[1], (TokenKind::Number, "2.0f64".into()));
    }

    #[test]
    fn strings_hide_identifier_lookalikes() {
        let ts = kinds(r#"let s = "HashMap::iter()";"#);
        assert!(ts
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "HashMap"));
        assert!(ts.iter().any(|(k, _)| *k == TokenKind::Str));
    }

    #[test]
    fn raw_strings_and_nesting() {
        let ts = kinds(r##"r#"a "quoted" HashMap"# x"##);
        assert_eq!(ts[0].0, TokenKind::Str);
        assert_eq!(ts[1], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn comments_keep_text_and_lines() {
        let ts = tokenize("a\n// gam-lint: allow(U001, reason = \"x\")\nb /* block\nstill */ c");
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].kind, TokenKind::LineComment);
        assert_eq!(ts[1].line, 2);
        assert!(ts[1].text.contains("allow(U001"));
        assert_eq!(ts[2].line, 3);
        assert_eq!(ts[3].kind, TokenKind::BlockComment);
        let c = ts.last().unwrap();
        assert_eq!(
            (c.kind, c.text.as_str(), c.line),
            (TokenKind::Ident, "c", 4)
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ts = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'z'; }");
        assert!(ts
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(ts.iter().any(|(k, t)| *k == TokenKind::Char && t == "'z'"));
    }
}
