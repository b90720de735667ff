//! Phase 1 of the analyzer: per-file symbol tables.
//!
//! Token patterns alone cannot see through a rename: `use std::{time as
//! t}; t::Instant::now()` spells neither `std::time` contiguously nor any
//! banned name on its use line. This module parses every file into its
//! `use` declarations with alias resolution, resolves every path expression
//! through them, and records what the lints need from the result: the
//! clock and entropy sites D002 reports, the resolved paths D001 checks for
//! a renamed hash table, the bare-`pub` items the U001 census counts
//! callers for, and whether the file carries `#![forbid(unsafe_code)]`
//! (F001).

use crate::pass::FileCtx;
use crate::tokenizer::TokenKind;
use std::collections::BTreeMap;

/// A source of nondeterminism a deterministic crate must not touch (D002).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ambient {
    /// `std::time` — wall clocks (and everything else in the module,
    /// `Duration` included, which is D002's long-standing scope).
    Time,
    /// OS randomness: `thread_rng`, `from_entropy`, `OsRng`, `getrandom`.
    Entropy,
}

/// Classifies a canonical (absolute, alias-resolved) path by the ambient
/// source it reads. `None` for paths that read neither.
fn classify_path(path: &[String]) -> Option<Ambient> {
    let seg = |i: usize| path.get(i).map(String::as_str);
    match (seg(0), seg(1)) {
        (Some("std" | "core"), Some("time")) => return Some(Ambient::Time),
        (Some("getrandom"), _) => return Some(Ambient::Entropy),
        _ => {}
    }
    let entropic = |s: &str| matches!(s, "thread_rng" | "from_entropy" | "OsRng" | "from_os_rng");
    if path.iter().any(|s| entropic(s)) {
        return Some(Ambient::Entropy);
    }
    None
}

/// One leaf binding introduced by a `use` declaration.
#[derive(Debug, Clone)]
pub(crate) struct UseDecl {
    /// 1-based line of the leaf name (diagnostics anchor here, so a
    /// multi-line group import points at the offending member).
    pub line: u32,
    /// The full path as written, group prefixes expanded
    /// (`use std::{time as t}` records `["std", "time"]`); a glob records
    /// the path it imports from.
    pub path: Vec<String>,
}

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

/// One resolved path expression in code (outside `use` declarations).
#[derive(Debug, Clone)]
pub(crate) struct PathUse {
    /// 1-based line of the path head.
    pub line: u32,
    /// The first segment as written (an alias or an absolute root).
    pub head: String,
    /// The alias-resolved canonical path.
    pub canonical: Vec<String>,
}

/// One clock or entropy site.
#[derive(Debug, Clone)]
pub(crate) struct AmbientUse {
    /// 1-based source line.
    pub line: u32,
    /// The source read.
    pub kind: Ambient,
    /// The canonical path, for the diagnostic message.
    pub what: String,
}

/// The symbol table of one file.
#[derive(Debug)]
pub struct FileSymbols {
    /// Every leaf binding of every `use` declaration, in source order.
    pub uses: Vec<UseDecl>,
    /// Alias → canonical path, for resolving `t::Instant` through
    /// `use std::time as t`.
    pub aliases: BTreeMap<String, Vec<String>>,
    /// Every bare-`pub` item in non-test code, in source order.
    pub pub_items: Vec<PubItem>,
    /// Every alias-resolved or qualified path expression in non-test code.
    pub path_uses: Vec<PathUse>,
    /// Every clock or entropy site (declarations and expressions) in
    /// non-test code, one per (line, source).
    pub ambient_uses: Vec<AmbientUse>,
    /// Whether the file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

/// Builds the symbol table for one tokenized file.
pub fn build(ctx: &FileCtx) -> FileSymbols {
    let mut syms = FileSymbols {
        uses: Vec::new(),
        aliases: BTreeMap::new(),
        pub_items: Vec::new(),
        path_uses: Vec::new(),
        ambient_uses: Vec::new(),
        has_forbid_unsafe: find_forbid_unsafe(ctx),
    };
    let use_spans = parse_uses(ctx, &mut syms);
    parse_pub_items(ctx, &mut syms);
    scan_paths(ctx, &use_spans, &mut syms);
    // Declarations are ambient sites too: importing `std::time` *is*
    // reaching for the clock, and D002 should point at the import.
    for u in &syms.uses {
        if ctx.in_test_code(u.line) {
            continue;
        }
        if let Some(kind) = classify_path(&u.path) {
            syms.ambient_uses.push(AmbientUse {
                line: u.line,
                kind,
                what: u.path.join("::"),
            });
        }
    }
    syms.ambient_uses.sort_by_key(|a| (a.line, a.kind));
    syms.ambient_uses
        .dedup_by(|a, b| a.line == b.line && a.kind == b.kind);
    syms
}

/// Whether the file carries the inner attribute `#![forbid(unsafe_code)]`.
fn find_forbid_unsafe(ctx: &FileCtx) -> bool {
    let n = ctx.code.len();
    for ci in 0..n.saturating_sub(6) {
        if ctx.code_token(ci).is_punct('#')
            && ctx.code_token(ci + 1).is_punct('!')
            && ctx.code_token(ci + 2).is_punct('[')
            && ctx.code_token(ci + 3).is_ident("forbid")
            && ctx.code_token(ci + 4).is_punct('(')
            && ctx.code_token(ci + 5).is_ident("unsafe_code")
        {
            return true;
        }
    }
    false
}

/// Parses every `use` declaration; returns the code-index spans they
/// occupy so the expression scan can skip them.
fn parse_uses(ctx: &FileCtx, syms: &mut FileSymbols) -> Vec<(usize, usize)> {
    let n = ctx.code.len();
    let mut spans = Vec::new();
    let mut ci = 0usize;
    while ci < n {
        if !ctx.code_token(ci).is_ident("use") {
            ci += 1;
            continue;
        }
        // `use` as a path segment (`…::use`) cannot occur; but make sure
        // this is a declaration head, not e.g. a macro body token. Heuristic:
        // the previous code token must not be `::` or `.`.
        if ci > 0 {
            let prev = ctx.code_token(ci - 1);
            if prev.is_punct(':') || prev.is_punct('.') {
                ci += 1;
                continue;
            }
        }
        let start = ci;
        let mut j = ci + 1;
        let mut prefix: Vec<String> = Vec::new();
        parse_use_tree(ctx, &mut j, &mut prefix, syms);
        // Consume through the terminating `;` if present.
        while j < n && !ctx.code_token(j).is_punct(';') {
            j += 1;
        }
        spans.push((start, j.min(n.saturating_sub(1))));
        ci = j + 1;
    }
    spans
}

/// Recursive descent over one `use` tree rooted at code index `*j`,
/// with the path segments accumulated so far in `prefix`.
fn parse_use_tree(ctx: &FileCtx, j: &mut usize, prefix: &mut Vec<String>, syms: &mut FileSymbols) {
    let n = ctx.code.len();
    let depth_at_entry = prefix.len();
    loop {
        if *j >= n {
            break;
        }
        let t = ctx.code_token(*j);
        if t.is_punct('{') {
            // Group: each comma-separated subtree shares the prefix.
            *j += 1;
            loop {
                if *j >= n || ctx.code_token(*j).is_punct('}') {
                    *j += 1;
                    break;
                }
                parse_use_tree(ctx, j, prefix, syms);
                if *j < n && ctx.code_token(*j).is_punct(',') {
                    *j += 1;
                }
            }
            break;
        }
        if t.is_punct('*') {
            record_use(syms, t.line, prefix.clone(), "*".to_string());
            *j += 1;
            break;
        }
        if t.kind != TokenKind::Ident {
            break;
        }
        let seg = t.text.clone();
        let line = t.line;
        let continues = *j + 2 < n
            && ctx.code_token(*j + 1).is_punct(':')
            && ctx.code_token(*j + 2).is_punct(':');
        if continues {
            if seg != "self" {
                prefix.push(seg);
            }
            *j += 3;
            continue;
        }
        // Leaf segment, possibly renamed.
        let mut alias = seg.clone();
        let mut path = prefix.clone();
        if seg == "self" {
            alias = prefix.last().cloned().unwrap_or_else(|| seg.clone());
        } else {
            path.push(seg);
        }
        *j += 1;
        if *j + 1 < n && ctx.code_token(*j).is_ident("as") {
            if ctx.code_token(*j + 1).kind == TokenKind::Ident {
                alias = ctx.code_token(*j + 1).text.clone();
            }
            *j += 2;
        }
        record_use(syms, line, path, alias);
        break;
    }
    prefix.truncate(depth_at_entry);
}

fn record_use(syms: &mut FileSymbols, line: u32, path: Vec<String>, alias: String) {
    if path.is_empty() {
        return;
    }
    if alias != "*" && alias != "_" {
        syms.aliases.insert(alias, path.clone());
    }
    syms.uses.push(UseDecl { line, path });
}

/// Collects every bare-`pub` `fn`/`struct`/`enum`/`trait`/`const` item in
/// non-test code. `pub(crate)` and friends are not cross-crate visible and
/// are skipped (the token after `pub` is `(`).
fn parse_pub_items(ctx: &FileCtx, syms: &mut FileSymbols) {
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
        syms.pub_items.push(PubItem {
            name: name.text.clone(),
            line: t.line,
            kind,
        });
    }
}

/// Scans non-test code (outside `use` declarations) for path expressions,
/// resolves their heads through the alias map, and records clock and
/// entropy sites.
fn scan_paths(ctx: &FileCtx, use_spans: &[(usize, usize)], syms: &mut FileSymbols) {
    let n = ctx.code.len();
    let in_use = |ci: usize| use_spans.iter().any(|&(a, b)| a <= ci && ci <= b);
    let mut ci = 0usize;
    while ci < n {
        let t = ctx.code_token(ci);
        if t.kind != TokenKind::Ident || ctx.in_test_code(t.line) || in_use(ci) {
            ci += 1;
            continue;
        }
        // Only path heads: skip segments reached via `::` and names reached
        // via `.` (fields/methods are not paths).
        if ci >= 2 && ctx.code_token(ci - 1).is_punct(':') && ctx.code_token(ci - 2).is_punct(':') {
            ci += 1;
            continue;
        }
        if ci >= 1 && ctx.code_token(ci - 1).is_punct('.') {
            ci += 1;
            continue;
        }
        let head = t.text.clone();
        let line = t.line;
        let mut segments = vec![head.clone()];
        let mut j = ci;
        while j + 2 < n
            && ctx.code_token(j + 1).is_punct(':')
            && ctx.code_token(j + 2).is_punct(':')
            && j + 3 < n
            && ctx.code_token(j + 3).kind == TokenKind::Ident
        {
            segments.push(ctx.code_token(j + 3).text.clone());
            j += 3;
        }
        let (canonical, via_alias) = match syms.aliases.get(&head) {
            Some(target) => {
                let mut full = target.clone();
                full.extend(segments.iter().skip(1).cloned());
                (full, true)
            }
            // A bare unresolvable ident still classifies when it is an
            // entropy name (e.g. a `thread_rng()` brought in by a glob).
            None => (segments.clone(), false),
        };
        if let Some(kind) = classify_path(&canonical) {
            syms.ambient_uses.push(AmbientUse {
                line,
                kind,
                what: canonical.join("::"),
            });
        }
        // Only resolved or qualified paths are kept — a bare local ident is
        // neither a qualified reference nor an alias use, and recording
        // every identifier in the repository would swamp the table.
        if via_alias || segments.len() > 1 {
            syms.path_uses.push(PathUse {
                line,
                head,
                canonical,
            });
        }
        ci = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(path: &str, src: &str) -> FileSymbols {
        build(&FileCtx::new(path.to_string(), src))
    }

    #[test]
    fn module_alias_resolves_through_brace_groups() {
        let s = syms(
            "crates/core/src/x.rs",
            "use std::{time as wall};\nfn f() -> u64 { wall::Instant::now().elapsed().as_secs() }\n",
        );
        assert_eq!(
            s.aliases.get("wall"),
            Some(&vec!["std".into(), "time".into()])
        );
        assert!(s
            .ambient_uses
            .iter()
            .any(|a| a.kind == Ambient::Time && a.line == 2 && a.what.contains("Instant")));
        assert!(
            s.ambient_uses
                .iter()
                .any(|a| a.kind == Ambient::Time && a.line == 1),
            "the declaration itself is a site"
        );
    }

    #[test]
    fn renamed_leaf_imports_resolve_at_use_sites() {
        let s = syms(
            "crates/core/src/x.rs",
            "use std::time::Instant as I;\nfn f() -> I { I::now() }\n",
        );
        assert_eq!(
            s.aliases.get("I"),
            Some(&vec!["std".into(), "time".into(), "Instant".into()])
        );
        let lines: Vec<u32> = s
            .ambient_uses
            .iter()
            .filter(|a| a.kind == Ambient::Time)
            .map(|a| a.line)
            .collect();
        assert!(lines.contains(&2), "use sites classified: {lines:?}");
    }

    #[test]
    fn groups_globs_and_self_parse() {
        let s = syms(
            "crates/core/src/x.rs",
            "pub use std::sync::{atomic::{AtomicU64, Ordering as O}, Arc};\nuse std::collections::btree_map::{self, Entry};\nuse rand::*;\n",
        );
        assert_eq!(
            s.aliases.get("AtomicU64"),
            Some(&vec![
                "std".into(),
                "sync".into(),
                "atomic".into(),
                "AtomicU64".into()
            ])
        );
        assert_eq!(
            s.aliases.get("O").map(|p| p.join("::")),
            Some("std::sync::atomic::Ordering".into())
        );
        assert_eq!(
            s.aliases.get("btree_map").map(|p| p.join("::")),
            Some("std::collections::btree_map".into())
        );
        assert!(s.uses.iter().any(|u| u.path == ["rand"]), "glob recorded");
    }

    #[test]
    fn pub_items_are_bare_pub_and_outside_tests() {
        let s = syms(
            "crates/core/src/x.rs",
            "pub fn outer() {}\nfn inner() {}\npub(crate) fn hidden() {}\n\
             pub const fn folded() {}\npub const LIMIT: u32 = 1;\npub struct S;\n\
             pub enum E {}\npub unsafe trait T {}\npub type Alias = u8;\n\
             #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        );
        let items: Vec<(&str, u32, &str)> = s
            .pub_items
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

    #[test]
    fn forbid_attribute_detected() {
        assert!(syms("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n").has_forbid_unsafe);
        assert!(!syms("crates/core/src/lib.rs", "#![warn(missing_docs)]\n").has_forbid_unsafe);
    }

    #[test]
    fn test_code_is_exempt_from_ambient_accounting() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn t() { Instant::now(); }\n}\n";
        let s = syms("crates/core/src/x.rs", src);
        assert!(s.ambient_uses.is_empty(), "{:?}", s.ambient_uses);
    }
}
