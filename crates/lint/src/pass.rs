//! The per-file pass context: tokens, test regions, inline suppressions.
//!
//! Lints operate on a [`FileCtx`] — the token stream of one file plus two
//! pieces of derived structure: the line ranges occupied by test-only code
//! (`#[cfg(test)]` / `#[test]` items, whose names call nothing for the
//! census) and the parsed inline suppressions. A suppression is a comment
//! of the form
//!
//! ```text
//! // gam-lint: allow(U001, reason = "test oracle the suites compare against")
//! ```
//!
//! and silences matching findings on its own line or the line directly
//! below. The `reason` is mandatory: a reasonless suppression is itself a
//! finding (`S001`), and one that silences nothing is flagged unused
//! (`S002`) so stale allows cannot accumulate.

use crate::tokenizer::{Token, TokenKind};

/// One parsed `gam-lint: allow(...)` comment.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    /// 1-based line of the comment.
    pub line: u32,
    /// Lint ids the comment names.
    pub ids: Vec<String>,
    /// The justification, if one was given (`None` is an `S001` finding).
    pub reason: Option<String>,
    /// Whether the allow silenced at least one finding.
    pub used: bool,
}

/// Token stream plus derived structure for one file.
#[derive(Debug)]
pub struct FileCtx {
    /// Repo-relative, `/`-separated path.
    pub path: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Line ranges `(start, end)` inclusive occupied by test-only items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Parsed suppression comments, in line order.
    pub allows: Vec<Allow>,
}

impl FileCtx {
    /// Tokenizes `src` and derives the test ranges and suppressions.
    pub fn new(path: String, src: &str) -> FileCtx {
        let tokens = crate::tokenizer::tokenize(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let test_ranges = find_test_ranges(&tokens, &code);
        let allows = parse_allows(&tokens);
        FileCtx {
            path,
            tokens,
            code,
            test_ranges,
            allows,
        }
    }

    /// Whether `line` lies inside a test-only item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// The code token at code-index `i` (panics on out of range — callers
    /// bound-check via `code.len()`).
    pub fn code_token(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Tries to consume one U001 allow for `line`. Returns `true` (and
    /// marks the allow used) when a reasoned allow covers the line — the
    /// allow's own line or the line directly above.
    pub fn suppress(&mut self, line: u32) -> bool {
        for allow in &mut self.allows {
            if allow.reason.is_some()
                && (allow.line == line || allow.line + 1 == line)
                && allow.ids.iter().any(|i| i == "U001")
            {
                allow.used = true;
                return true;
            }
        }
        false
    }
}

/// Finds line ranges of items annotated `#[cfg(test)]` or `#[test]`: from
/// the attribute to the closing brace of the following item (or its `;` for
/// braceless items).
fn find_test_ranges(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = &tokens[code[i]];
        if t.is_punct('#') && i + 1 < code.len() && tokens[code[i + 1]].is_punct('[') {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut is_test = false;
            let mut seen = 0usize;
            while j < code.len() && depth > 0 {
                let a = &tokens[code[j]];
                if a.is_punct('[') {
                    depth += 1;
                } else if a.is_punct(']') {
                    depth -= 1;
                } else if a.kind == TokenKind::Ident {
                    // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`.
                    let head = seen == 0 && (a.text == "test" || a.text == "cfg");
                    if head || (a.text == "test" && seen > 0) {
                        if a.text == "test" {
                            is_test = true;
                        }
                    } else if seen == 0 {
                        // Some other attribute (`#[derive(...)]`): stop
                        // classifying, just skip to `]`.
                    }
                    seen += 1;
                }
                j += 1;
            }
            if is_test {
                let start = t.line;
                // Find the end of the annotated item: first `{` then its
                // matching `}`, unless a `;` closes the item first.
                let mut k = j;
                let mut end = start;
                let mut brace = 0i32;
                let mut entered = false;
                while k < code.len() {
                    let a = &tokens[code[k]];
                    if !entered && a.is_punct(';') {
                        end = a.line;
                        break;
                    }
                    if a.is_punct('{') {
                        brace += 1;
                        entered = true;
                    } else if a.is_punct('}') {
                        brace -= 1;
                        if entered && brace == 0 {
                            end = a.line;
                            break;
                        }
                    }
                    end = a.line;
                    k += 1;
                }
                ranges.push((start, end));
                i = k.max(i + 1);
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Parses every `gam-lint: allow(...)` comment in the stream. Doc comments
/// (`///`, `//!`, `/**`, `/*!`) never count as suppressions — they document
/// the mechanism (this file does) rather than invoke it.
fn parse_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p));
        if doc && !t.text.starts_with("/***") {
            continue;
        }
        let Some(pos) = t.text.find("gam-lint:") else {
            continue;
        };
        let rest = t.text[pos + "gam-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.rfind(')') else {
            // Malformed: treat as a reasonless allow so S001 fires.
            allows.push(Allow {
                line: t.line,
                ids: Vec::new(),
                reason: None,
                used: false,
            });
            continue;
        };
        let args = &args[..close];
        let mut ids = Vec::new();
        let mut reason = None;
        // Split on commas outside the quoted reason.
        let mut rest = args;
        while !rest.is_empty() {
            let part = match rest.find(',') {
                Some(c) if !rest[..c].contains('"') => {
                    let p = &rest[..c];
                    rest = &rest[c + 1..];
                    p
                }
                _ => {
                    let p = rest;
                    rest = "";
                    p
                }
            };
            let part = part.trim();
            if let Some(r) = part.strip_prefix("reason") {
                let r = r.trim_start().strip_prefix('=').unwrap_or(r).trim();
                let r = r.strip_prefix('"').unwrap_or(r);
                let r = r.strip_suffix('"').unwrap_or(r);
                if !r.trim().is_empty() {
                    reason = Some(r.trim().to_string());
                }
            } else if !part.is_empty() {
                ids.push(part.to_string());
            }
        }
        allows.push(Allow {
            line: t.line,
            ids,
            reason,
            used: false,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_range_covers_body() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let ctx = FileCtx::new("x.rs".into(), src);
        assert!(!ctx.in_test_code(1));
        assert!(ctx.in_test_code(2));
        assert!(ctx.in_test_code(4));
        assert!(ctx.in_test_code(5));
        assert!(!ctx.in_test_code(6));
    }

    #[test]
    fn test_fn_attribute_counts_too() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn live() {}\n";
        let ctx = FileCtx::new("x.rs".into(), src);
        assert!(ctx.in_test_code(3));
        assert!(!ctx.in_test_code(5));
    }

    #[test]
    fn derive_attribute_is_not_a_test_range() {
        let src = "#[derive(Debug, Clone)]\nstruct S {\n    x: u32,\n}\n";
        let ctx = FileCtx::new("x.rs".into(), src);
        assert!(!ctx.in_test_code(2));
    }

    #[test]
    fn allow_parsing_ids_and_reason() {
        let src = "// gam-lint: allow(U001, S002, reason = \"a, quoted reason\")\nlet x = 1;\n";
        let ctx = FileCtx::new("x.rs".into(), src);
        assert_eq!(ctx.allows.len(), 1);
        assert_eq!(ctx.allows[0].ids, vec!["U001", "S002"]);
        assert_eq!(ctx.allows[0].reason.as_deref(), Some("a, quoted reason"));
    }

    #[test]
    fn doc_comments_are_not_suppressions() {
        let src = "/// like `// gam-lint: allow(U001, reason = \"x\")` below\n\
                   //! header: gam-lint: allow(U001)\nlet x = 1;\n";
        let ctx = FileCtx::new("x.rs".into(), src);
        assert!(ctx.allows.is_empty());
    }

    #[test]
    fn reasonless_allow_is_detected() {
        let src = "// gam-lint: allow(U001)\nlet x = 1;\n";
        let ctx = FileCtx::new("x.rs".into(), src);
        assert_eq!(ctx.allows[0].reason, None);
    }

    #[test]
    fn suppress_matches_same_and_next_line() {
        let src = "// gam-lint: allow(U001, reason = \"test oracle\")\npub fn oracle() {}\n\
                   // gam-lint: allow(S002, reason = \"not a census id\")\npub fn other() {}\n";
        let mut ctx = FileCtx::new("x.rs".into(), src);
        assert!(ctx.suppress(2));
        assert!(ctx.allows[0].used);
        assert!(!ctx.suppress(4), "only a U001 allow suppresses");
        assert!(!ctx.suppress(9), "line must be adjacent");
    }
}
