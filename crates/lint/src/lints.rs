//! The census and the hygiene of its allows.
//!
//! | id   | fires on                                               |
//! |------|--------------------------------------------------------|
//! | U001 | a bare-`pub` item no other non-test file names         |
//! | S001 | a `gam-lint: allow(…)` without a `reason`              |
//! | S002 | a reasoned allow that silences nothing                 |
//!
//! U001 is the caller census: public code nobody calls is deleted or
//! argued for. The S-lints keep the argument honest. See `LINTS.md`.

use crate::pass::FileCtx;
use crate::report::Diagnostic;
use crate::symbols::PubItem;
use crate::tokenizer::TokenKind;
use std::collections::BTreeMap;

/// Whether the code of `path` counts as a caller for U001: test files
/// (`tests/`, `crates/*/tests`) and examples do not.
fn is_caller_file(path: &str) -> bool {
    !path
        .split('/')
        .any(|seg| seg == "tests" || seg == "examples")
}

/// Whether `path` lies in the `src` directory of a workspace crate
/// (`crates/*/src`, the umbrella `src`): U001 takes its census there.
fn in_crate_src(path: &str) -> bool {
    path.starts_with("src/")
        || path
            .strip_prefix("crates/")
            .and_then(|p| p.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// U001 — the caller census. A bare-`pub` `fn`, `struct`, `enum`, `trait`
/// or `const` of a workspace crate whose name appears as an identifier in
/// no non-test file outside its defining file has no caller that needs it
/// public: delete it, drop the `pub`, or keep it with a reasoned allow at
/// its definition (a test oracle, a class validator). Name matching
/// over-counts uses — any `len` anywhere counts for every `pub fn len` — so
/// every entry the census lists really is uncalled. Trait methods drop out
/// on their own: they cannot be bare `pub`.
pub fn u001_uncalled_pub(ctxs: &mut [FileCtx], items: &[Vec<PubItem>], out: &mut Vec<Diagnostic>) {
    // Name → the caller files whose non-test code spells it (each at most
    // once, in scan order).
    let mut named_in: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, ctx) in ctxs.iter().enumerate() {
        if in_crate_src(&ctx.path) {
            for p in &items[i] {
                named_in.insert(p.name.as_str(), Vec::new());
            }
        }
    }
    for (i, ctx) in ctxs.iter().enumerate() {
        if !is_caller_file(&ctx.path) {
            continue;
        }
        for &t in &ctx.code {
            let t = &ctx.tokens[t];
            if t.kind != TokenKind::Ident || ctx.in_test_code(t.line) {
                continue;
            }
            if let Some(files) = named_in.get_mut(t.text.as_str()) {
                if files.last() != Some(&i) {
                    files.push(i);
                }
            }
        }
    }
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        if !in_crate_src(&ctx.path) {
            continue;
        }
        for item in &items[i] {
            if named_in[item.name.as_str()].iter().all(|&f| f == i) && !ctx.suppress(item.line) {
                out.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: item.line,
                    id: "U001",
                    message: format!(
                        "`pub {} {}` is named in no other non-test file; delete it, drop \
                         the `pub`, or keep it with `// gam-lint: allow(U001, reason = \"…\")`",
                        item.kind, item.name
                    ),
                });
            }
        }
    }
}

/// S001 and S002 over the allows of one file. Run after the census, which
/// marks the allows it consumed.
pub fn suppression_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for allow in &ctx.allows {
        let (id, message) = if allow.reason.is_none() {
            (
                "S001",
                format!(
                    "suppression of {:?} has no reason; `gam-lint: allow(U001, reason = \"…\")` \
                     requires one",
                    allow.ids
                ),
            )
        } else if !allow.used {
            (
                "S002",
                format!(
                    "suppression of {:?} silences no finding; remove the stale allow",
                    allow.ids
                ),
            )
        } else {
            continue;
        };
        out.push(Diagnostic {
            file: ctx.path.clone(),
            line: allow.line,
            id,
            message,
        });
    }
}
