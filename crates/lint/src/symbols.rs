//! The bare-`pub` items of a file: the candidates of the U001 census.

use crate::pass::FileCtx;
use crate::tokenizer::TokenKind;

/// One bare-`pub` item (`fn`, `struct`, `enum`, `trait` or `const`) in
/// non-test code: a U001 census entry candidate.
#[derive(Debug, Clone)]
pub(crate) struct PubItem {
    /// The item's name.
    pub name: String,
    /// 1-based line of the `pub` keyword.
    pub line: u32,
    /// The item keyword (`fn`, `struct`, …).
    pub kind: &'static str,
}

/// Collects every bare-`pub` `fn`/`struct`/`enum`/`trait`/`const` item in
/// non-test code. `pub(crate)` and friends are not cross-crate visible and
/// are skipped (the token after `pub` is `(`).
pub fn pub_items(ctx: &FileCtx) -> Vec<PubItem> {
    let mut items = Vec::new();
    let n = ctx.code.len();
    for ci in 0..n {
        let t = ctx.code_token(ci);
        if !t.is_ident("pub") || ctx.in_test_code(t.line) {
            continue;
        }
        // Walk over `const`/`async`/`unsafe`/`extern "C"` qualifiers to the
        // item keyword; `pub const NAME` is itself a const item.
        let mut j = ci + 1;
        while j + 1 < n {
            let q = ctx.code_token(j);
            let qualifier = q.is_ident("async")
                || q.is_ident("unsafe")
                || q.is_ident("extern")
                || q.kind == TokenKind::Str
                || (q.is_ident("const")
                    && ["fn", "unsafe", "async", "extern"]
                        .iter()
                        .any(|k| ctx.code_token(j + 1).is_ident(k)));
            if !qualifier {
                break;
            }
            j += 1;
        }
        if j + 1 >= n {
            continue;
        }
        let Some(kind) = ["fn", "struct", "enum", "trait", "const"]
            .into_iter()
            .find(|k| ctx.code_token(j).is_ident(k))
        else {
            continue;
        };
        let name = ctx.code_token(j + 1);
        if name.kind != TokenKind::Ident || name.text == "_" {
            continue;
        }
        items.push(PubItem {
            name: name.text.clone(),
            line: t.line,
            kind,
        });
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_items_are_bare_pub_and_outside_tests() {
        let ctx = FileCtx::new(
            "crates/core/src/x.rs".into(),
            "pub fn outer() {}\nfn inner() {}\npub(crate) fn hidden() {}\n\
             pub const fn folded() {}\npub const LIMIT: u32 = 1;\npub struct S;\n\
             pub enum E {}\npub unsafe trait T {}\npub type Alias = u8;\n\
             #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        );
        let items = pub_items(&ctx);
        let items: Vec<(&str, u32, &str)> = items
            .iter()
            .map(|p| (p.name.as_str(), p.line, p.kind))
            .collect();
        assert_eq!(
            items,
            vec![
                ("outer", 1, "fn"),
                ("folded", 4, "fn"),
                ("LIMIT", 5, "const"),
                ("S", 6, "struct"),
                ("E", 7, "enum"),
                ("T", 8, "trait"),
            ]
        );
    }
}
