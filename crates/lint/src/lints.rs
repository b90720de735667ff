//! The lint families.
//!
//! | id   | default | fires on                                              |
//! |------|---------|-------------------------------------------------------|
//! | D001 | error   | `HashMap`/`HashSet` in deterministic crates           |
//! | D002 | error   | wall-clock / entropy sources in deterministic crates  |
//! | D003 | error   | `unwrap()`, `panic!`, undocumented `expect()` in protocol code |
//! | F001 | error   | a deterministic crate root without `#![forbid(unsafe_code)]` |
//! | P001 | error   | `Executor`/`SnapshotExec` impl without a `Send` assert |
//! | P002 | error   | floating-point arithmetic in digest/fingerprint code  |
//! | S001 | error   | `gam-lint: allow(...)` without a `reason`             |
//! | S002 | warn    | a reasoned allow that silences nothing                |
//! | U001 | error   | a bare-`pub` item no other non-test file names        |
//!
//! D-lints and F001 guard the model assumption every result in this
//! repository rests on: executors are *deterministic functions of the
//! schedule*, the same quantification the paper's proofs use. P-lints pin
//! protocol-layer invariants the type system cannot express. U001 is the
//! caller census: public code nobody calls is deleted or argued for.
//! S-lints keep the suppression mechanism honest. See `LINTS.md` for the
//! full catalogue with examples.

use crate::config::Config;
use crate::pass::FileCtx;
use crate::report::{Diagnostic, Severity};
use crate::symbols::{Ambient, FileSymbols};
use crate::tokenizer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// The configured severity of `id`; the defaults are the table above.
fn severity_of(config: &Config, id: &str) -> Severity {
    let default = if id == "S002" {
        Severity::Warn
    } else {
        Severity::Error
    };
    config.severity_of(id, default)
}

/// Emits `diag` unless a reasoned inline allow covers it or the configured
/// severity is `allow`.
fn emit(
    ctx: &mut FileCtx,
    config: &Config,
    out: &mut Vec<Diagnostic>,
    id: &'static str,
    line: u32,
    message: String,
    suggestion: Option<String>,
) {
    if ctx.suppress(id, line) {
        return;
    }
    let severity = severity_of(config, id);
    if severity == Severity::Allow {
        return;
    }
    out.push(Diagnostic {
        file: ctx.path.clone(),
        line,
        id,
        severity,
        message,
        suggestion,
    });
}

/// Runs every per-file lint on `ctx`, with the file's phase-1 symbol table
/// backing the alias-aware layers.
pub fn run_file_lints(
    ctx: &mut FileCtx,
    syms: &FileSymbols,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    if config.is_deterministic(&ctx.path) {
        d001_unordered_collections(ctx, syms, config, out);
        d002_clock_and_entropy(ctx, syms, config, out);
    }
    if config.is_protocol(&ctx.path) {
        d003_panic_paths(ctx, config, out);
    }
    if config.is_digest(&ctx.path) {
        p002_floats_in_digest(ctx, config, out);
    }
}

/// F001 — every crate root in the `[deterministic]` scope (`src/lib.rs`,
/// else `src/main.rs`) carries `#![forbid(unsafe_code)]`: the attribute is
/// what makes "no unsafe" a compiler-checked claim rather than a habit. A
/// scan that does not include the crate's root cannot judge it, so
/// single-file fixture trees stay quiet.
pub fn f001_forbid_unsafe(
    ctxs: &mut [FileCtx],
    syms: &[FileSymbols],
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let scanned: BTreeSet<String> = ctxs.iter().map(|c| c.path.clone()).collect();
    for (ctx, s) in ctxs.iter_mut().zip(syms) {
        let is_root = match crate_src_path(&ctx.path) {
            Some("lib.rs") => true,
            Some("main.rs") => !scanned.contains(&ctx.path.replace("src/main.rs", "src/lib.rs")),
            _ => false,
        };
        if is_root && !s.has_forbid_unsafe && config.is_deterministic(&ctx.path) {
            let message = format!(
                "deterministic crate root {} does not carry `#![forbid(unsafe_code)]`",
                ctx.path
            );
            emit(
                ctx,
                config,
                out,
                "F001",
                1,
                message,
                Some("add the attribute".into()),
            );
        }
    }
}

/// Whether the code of `path` counts as a caller for U001: test files
/// (`tests/`, `crates/*/tests`) and examples do not.
fn is_caller_file(path: &str) -> bool {
    !path
        .split('/')
        .any(|seg| seg == "tests" || seg == "examples")
}

/// The path of `path` inside the `src` directory of its workspace crate
/// (`crates/*/src`, the umbrella `src`), or `None` outside them: U001 takes
/// its census there, and F001 finds the crate roots there.
fn crate_src_path(path: &str) -> Option<&str> {
    path.strip_prefix("src/").or_else(|| {
        let (_, rest) = path.strip_prefix("crates/")?.split_once('/')?;
        rest.strip_prefix("src/")
    })
}

/// U001 — the caller census. A bare-`pub` `fn`, `struct`, `enum`, `trait`
/// or `const` of a workspace crate whose name appears as an identifier in
/// no non-test file outside its defining file has no caller that needs it
/// public: delete it, drop the `pub`, or keep it with a reasoned allow at
/// its definition (a test oracle, a class validator). Name matching
/// over-counts uses — any `len` anywhere counts for every `pub fn len` — so
/// every entry the census lists really is uncalled. Trait methods drop out
/// on their own: they cannot be bare `pub`.
pub fn u001_uncalled_pub(
    ctxs: &mut [FileCtx],
    syms: &[FileSymbols],
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    // Name → the caller files whose non-test code spells it (each at most
    // once, in scan order).
    let mut named_in: BTreeMap<&str, Vec<usize>> = syms
        .iter()
        .zip(ctxs.iter())
        .filter(|(_, ctx)| crate_src_path(&ctx.path).is_some())
        .flat_map(|(s, _)| s.pub_items.iter().map(|p| (p.name.as_str(), Vec::new())))
        .collect();
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
    let mut uncalled = Vec::new();
    for (i, s) in syms.iter().enumerate() {
        if crate_src_path(&ctxs[i].path).is_none() {
            continue;
        }
        for item in &s.pub_items {
            if named_in[item.name.as_str()].iter().all(|&f| f == i) {
                uncalled.push((i, item.line, item.kind, item.name.clone()));
            }
        }
    }
    for (i, line, kind, name) in uncalled {
        emit(
            &mut ctxs[i],
            config,
            out,
            "U001",
            line,
            format!("`pub {kind} {name}` is named in no other non-test file"),
            Some(
                "delete it, drop the `pub`, or keep it with \
                 `// gam-lint: allow(U001, reason = \"…\")`"
                    .into(),
            ),
        );
    }
}

/// Emits the suppression-hygiene findings (S001/S002). Call after every
/// other lint — including the global P001 pass — has had the chance to
/// consume the file's allows.
pub fn run_suppression_lints(ctx: &mut FileCtx, config: &Config, out: &mut Vec<Diagnostic>) {
    // S-lints are not themselves suppressible: push directly.
    for allow in ctx.allows.clone() {
        if allow.reason.is_none() {
            let sev = severity_of(config, "S001");
            if sev != Severity::Allow {
                out.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: allow.line,
                    id: "S001",
                    severity: sev,
                    message: format!(
                        "suppression of {:?} has no reason; `gam-lint: allow(ID, reason = \"…\")` requires one",
                        allow.ids
                    ),
                    suggestion: Some("state why the finding provably cannot matter here".into()),
                });
            }
        } else if !allow.used {
            let sev = severity_of(config, "S002");
            if sev != Severity::Allow {
                out.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: allow.line,
                    id: "S002",
                    severity: sev,
                    message: format!(
                        "suppression of {:?} silences no finding; remove the stale allow",
                        allow.ids
                    ),
                    suggestion: None,
                });
            }
        }
    }
}

/// D001 — `HashMap`/`HashSet` in deterministic crates. Iteration order of
/// the std hash tables depends on a per-process random seed, so any
/// iteration (`iter`, `keys`, `values`, `into_iter`, `drain`, `for … in`)
/// that reaches a digest, a fingerprint or a delivery decision breaks
/// schedule-determinism across runs. The v1 token layer catches the names
/// where they appear literally; the symbol-table layer adds use sites that
/// only mention a rename (`use std::collections::HashMap as Map; Map::new()`).
fn d001_unordered_collections(
    ctx: &mut FileCtx,
    syms: &FileSymbols,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let mut hits = Vec::new();
    let mut seen = BTreeSet::new();
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            if ctx.in_test_code(t.line) {
                continue;
            }
            seen.insert(t.line);
            hits.push((t.line, t.text.clone()));
        }
    }
    // Alias layer: resolved paths that reach a hash table without spelling
    // its name on the line (the literal-name scan above already covered
    // every line the name appears on, declarations included).
    for pu in &syms.path_uses {
        if seen.contains(&pu.line) {
            continue;
        }
        if let Some(name) = pu
            .canonical
            .iter()
            .find(|s| *s == "HashMap" || *s == "HashSet")
        {
            seen.insert(pu.line);
            hits.push((pu.line, format!("{} (as `{}`)", name, pu.head)));
        }
    }
    hits.sort();
    for (line, name) in hits {
        let ordered = if name.starts_with("HashMap") {
            "BTreeMap"
        } else {
            "BTreeSet"
        };
        emit(
            ctx,
            config,
            out,
            "D001",
            line,
            format!(
                "`{name}` in a deterministic crate: its iteration order \
                 (iter/keys/values/into_iter/drain) is seeded per process and can \
                 leak into digests, fingerprints or delivery decisions"
            ),
            Some(format!(
                "use `{ordered}` (or sort before iterating and add a reasoned allow)"
            )),
        );
    }
}

/// D002 — wall-clock and entropy sources in deterministic crates. A
/// `Instant::now()` or an OS-seeded RNG in a protocol path makes replays
/// and cross-thread merges diverge even under identical schedules.
///
/// Two layers, deduplicated by line. The v1 token layer catches the banned
/// names where they appear literally plus the contiguous `std::time` path.
/// The symbol-table layer closes the alias hole: `use std::{time as wall}`
/// breaks the contiguous-path pattern and binds a module alias v1 could not
/// see through, so both the declaration and every `wall::…` use site were
/// invisible. It also widens the entropy net to `OsRng`/`getrandom`, which
/// classify by path rather than by the v1 ident list.
fn d002_clock_and_entropy(
    ctx: &mut FileCtx,
    syms: &FileSymbols,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    const BANNED: &[(&str, &str)] = &[
        ("Instant", "use the logical clock (`gam_kernel::Time`)"),
        ("SystemTime", "use the logical clock (`gam_kernel::Time`)"),
        ("UNIX_EPOCH", "use the logical clock (`gam_kernel::Time`)"),
        ("thread_rng", "seed a `StdRng` from the scenario config"),
        ("from_entropy", "seed a `StdRng` from the scenario config"),
    ];
    let mut hits = Vec::new();
    let mut seen = BTreeSet::new();
    for ci in 0..ctx.code.len() {
        let t = ctx.code_token(ci);
        if t.kind != TokenKind::Ident || ctx.in_test_code(t.line) {
            continue;
        }
        if let Some((name, fix)) = BANNED.iter().find(|(b, _)| t.text == *b) {
            seen.insert(t.line);
            hits.push((t.line, (*name).to_string(), (*fix).to_string()));
            continue;
        }
        // The `std::time` path itself (imports included).
        if t.text == "std"
            && ci + 3 < ctx.code.len()
            && ctx.code_token(ci + 1).is_punct(':')
            && ctx.code_token(ci + 2).is_punct(':')
            && ctx.code_token(ci + 3).is_ident("time")
        {
            seen.insert(t.line);
            hits.push((
                t.line,
                "std::time".to_string(),
                "use the logical clock".to_string(),
            ));
        }
    }
    for site in &syms.ambient_uses {
        let fix = match site.kind {
            Ambient::Time => "use the logical clock (`gam_kernel::Time`)",
            Ambient::Entropy => "seed a `StdRng` from the scenario config",
        };
        if seen.insert(site.line) {
            hits.push((site.line, site.what.clone(), fix.to_string()));
        }
    }
    hits.sort();
    for (line, name, fix) in hits {
        emit(
            ctx,
            config,
            out,
            "D002",
            line,
            format!(
                "`{name}` in a deterministic crate: wall-clock and entropy reads \
                 make runs differ under identical schedules"
            ),
            Some(fix),
        );
    }
}

/// Whether an `expect` message literal documents an invariant: long enough
/// and multi-word, e.g. `"LOG_{{g∩h}} exists for every intersecting pair"`.
fn documents_invariant(lit: &str) -> bool {
    let inner = lit
        .trim_start_matches('b')
        .trim_start_matches('r')
        .trim_matches('#')
        .trim_matches('"');
    inner.len() >= 12 && inner.contains(' ')
}

/// D003 — `unwrap()`, `panic!` and undocumented `expect()` in protocol
/// state-transition code. A panic in a `pre:`/`eff:` block tears down the
/// whole simulation instead of surfacing a checkable spec violation, so
/// each panic path must either become an error path or carry a message
/// documenting why the invariant cannot fail.
fn d003_panic_paths(ctx: &mut FileCtx, config: &Config, out: &mut Vec<Diagnostic>) {
    let mut hits = Vec::new();
    for ci in 0..ctx.code.len() {
        let t = ctx.code_token(ci);
        if t.kind != TokenKind::Ident || ctx.in_test_code(t.line) {
            continue;
        }
        let after_dot = ci > 0 && ctx.code_token(ci - 1).is_punct('.');
        let called = ci + 1 < ctx.code.len() && ctx.code_token(ci + 1).is_punct('(');
        match t.text.as_str() {
            "unwrap" if after_dot && called => {
                hits.push((t.line, "`unwrap()` panics without context".to_string()));
            }
            "panic" if ci + 1 < ctx.code.len() && ctx.code_token(ci + 1).is_punct('!') => {
                hits.push((
                    t.line,
                    "`panic!` tears down the simulation instead of reporting a violation"
                        .to_string(),
                ));
            }
            "expect" if after_dot && called => {
                let arg = (ci + 2 < ctx.code.len()).then(|| ctx.code_token(ci + 2));
                let documented =
                    arg.is_some_and(|a| a.kind == TokenKind::Str && documents_invariant(&a.text));
                if !documented {
                    hits.push((
                        t.line,
                        "`expect()` message does not document the invariant (needs ≥ 12 \
                         chars, multi-word)"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    for (line, what) in hits {
        emit(
            ctx,
            config,
            out,
            "D003",
            line,
            format!("panic path in protocol code: {what}"),
            Some(
                "return a Result/Option, or document why the invariant holds in the \
                 expect() message"
                    .into(),
            ),
        );
    }
}

/// P002 — floating-point arithmetic in digest/fingerprint code. Float
/// rounding is not associative and NaN breaks totality, so a float anywhere
/// near a digest makes "byte-identical" claims platform-dependent.
fn p002_floats_in_digest(ctx: &mut FileCtx, config: &Config, out: &mut Vec<Diagnostic>) {
    let mut hits = Vec::new();
    for &i in &ctx.code {
        let t = &ctx.tokens[i];
        if ctx.in_test_code(t.line) {
            continue;
        }
        let is_float_type = t.kind == TokenKind::Ident && (t.text == "f32" || t.text == "f64");
        let is_float_lit = t.kind == TokenKind::Number
            && (t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64"));
        if is_float_type || is_float_lit {
            hits.push((t.line, t.text.clone()));
        }
    }
    for (line, text) in hits {
        emit(
            ctx,
            config,
            out,
            "P002",
            line,
            format!(
                "floating point (`{text}`) in digest/fingerprint code: rounding is \
                 platform- and order-sensitive, breaking byte-identical replays"
            ),
            Some("keep digest arithmetic in u64 (scale fixed-point if a ratio is needed)".into()),
        );
    }
}

/// Which Send obligation a P001 site records: the executor type itself, or
/// the checkpoint type a `SnapshotExec` impl exposes as `type Snapshot`.
#[derive(Debug, Clone, Copy)]
enum SiteKind {
    Executor,
    Snapshot,
}

/// A Send obligation as parsed, before it is attributed to a file:
/// `(line, asserted type, kind)`.
type RawSite = (u32, String, SiteKind);

/// One `impl … Executor for Target` site (or the `type Snapshot = …` of an
/// `impl … SnapshotExec`) found by the global P001 pass.
#[derive(Debug)]
struct ImplSite {
    /// Index of the owning [`FileCtx`] in the scan set.
    file_idx: usize,
    line: u32,
    target: String,
    kind: SiteKind,
}

/// The cross-file state of P001 — every `Executor` impl must be covered by
/// a compile-time `assert_send::<…>` somewhere in the scanned set, because
/// the parallel explorers move one executor per worker across threads; an
/// uncovered impl compiles fine until the first `--threads N` run melts
/// down at a distance. `SnapshotExec` impls owe the same assert for their
/// checkpoint type: the parallel DFS holds per-worker stacks of snapshots,
/// so a `!Send` snapshot breaks exploration just as remotely.
#[derive(Debug, Default)]
pub struct SendAssertPass {
    impls: Vec<ImplSite>,
    asserted: BTreeSet<String>,
}

impl SendAssertPass {
    /// Collects `Executor` impls and `assert_send` targets from one file.
    pub fn collect(&mut self, file_idx: usize, ctx: &FileCtx) {
        let n = ctx.code.len();
        let mut ci = 0usize;
        while ci < n {
            let t = ctx.code_token(ci);
            if t.is_ident("impl") {
                if let Some((sites, next)) = parse_executor_impl(ctx, ci) {
                    for (line, target, kind) in sites {
                        self.impls.push(ImplSite {
                            file_idx,
                            line,
                            target,
                            kind,
                        });
                    }
                    ci = next;
                    continue;
                }
            }
            if t.is_ident("assert_send")
                && ci + 3 < n
                && ctx.code_token(ci + 1).is_punct(':')
                && ctx.code_token(ci + 2).is_punct(':')
                && ctx.code_token(ci + 3).is_punct('<')
            {
                let mut depth = 1i32;
                let mut j = ci + 4;
                while j < n && depth > 0 {
                    let a = ctx.code_token(j);
                    if a.is_punct('<') {
                        depth += 1;
                    } else if a.is_punct('>') && !(j > 0 && ctx.code_token(j - 1).is_punct('-')) {
                        depth -= 1;
                    } else if a.kind == TokenKind::Ident {
                        self.asserted.insert(a.text.clone());
                    }
                    j += 1;
                }
                ci = j;
                continue;
            }
            ci += 1;
        }
    }

    /// Emits a P001 diagnostic for every uncovered impl.
    pub fn finalize(self, ctxs: &mut [FileCtx], config: &Config, out: &mut Vec<Diagnostic>) {
        for site in self.impls {
            if self.asserted.contains(&site.target) {
                continue;
            }
            let ctx = &mut ctxs[site.file_idx];
            let message = match site.kind {
                SiteKind::Executor => format!(
                    "`impl Executor for {}` has no compile-time Send assertion: parallel \
                     explorers move executors across worker threads",
                    site.target
                ),
                SiteKind::Snapshot => format!(
                    "snapshot type `{}` has no compile-time Send assertion: the parallel \
                     DFS holds per-worker stacks of snapshots",
                    site.target
                ),
            };
            emit(
                ctx,
                config,
                out,
                "P001",
                site.line,
                message,
                Some(format!(
                    "add `const _: () = {{ const fn assert_send<T: Send>() {{}} \
                     assert_send::<{}>(); }};`",
                    site.target
                )),
            );
        }
    }
}

/// Parses an `impl` item header starting at code index `ci`. Returns
/// `Some((sites, resume_index))` where `sites` holds the Send obligations
/// the impl creates: the target of an `impl … Executor for Target`, and/or
/// the `type Snapshot = …` type of an `impl … SnapshotExec for Target`.
/// Generic-parameter targets are exempt (blanket impls: Send-ness is the
/// concrete type's concern). Returns `None` when the header is neither
/// trait's impl (inherent impls, other traits).
fn parse_executor_impl(ctx: &FileCtx, ci: usize) -> Option<(Vec<RawSite>, usize)> {
    let n = ctx.code.len();
    let impl_line = ctx.code_token(ci).line;
    let mut j = ci + 1;
    let mut generics: BTreeSet<String> = BTreeSet::new();
    // Optional generic parameter list.
    if j < n && ctx.code_token(j).is_punct('<') {
        let mut depth = 1i32;
        let mut expecting_param = true;
        j += 1;
        while j < n && depth > 0 {
            let a = ctx.code_token(j);
            if a.is_punct('<') {
                depth += 1;
            } else if a.is_punct('>') && !ctx.code_token(j - 1).is_punct('-') {
                depth -= 1;
            } else if a.is_punct(',') && depth == 1 {
                expecting_param = true;
            } else if a.kind == TokenKind::Ident && expecting_param && depth == 1 {
                generics.insert(a.text.clone());
                expecting_param = false;
            }
            j += 1;
        }
    }
    // Trait path (or self type for inherent impls), up to `for` / `{`.
    let mut last_ident: Option<String> = None;
    let mut depth = 0i32;
    while j < n {
        let a = ctx.code_token(j);
        if a.is_punct('<') {
            depth += 1;
        } else if a.is_punct('>') && !ctx.code_token(j - 1).is_punct('-') {
            depth -= 1;
        } else if depth == 0 {
            if a.is_punct('{') || a.is_punct(';') {
                // Inherent impl — not a trait impl at all.
                return None;
            }
            if a.is_ident("for") {
                break;
            }
            if a.kind == TokenKind::Ident {
                last_ident = Some(a.text.clone());
            }
        }
        j += 1;
    }
    let kind = match last_ident.as_deref() {
        Some("Executor") => SiteKind::Executor,
        Some("SnapshotExec") => SiteKind::Snapshot,
        _ => return None,
    };
    // Target: skip `&`/`mut`, take the first ident.
    j += 1;
    while j < n && (ctx.code_token(j).is_punct('&') || ctx.code_token(j).is_ident("mut")) {
        j += 1;
    }
    if j >= n || ctx.code_token(j).kind != TokenKind::Ident {
        return Some((vec![], j));
    }
    let target = ctx.code_token(j).text.clone();
    let mut sites = Vec::new();
    match kind {
        SiteKind::Executor => {
            // Blanket impl over a type parameter (e.g. `impl<E: Executor>
            // Executor for &mut E`): Send-ness is the concrete type's
            // concern.
            if !generics.contains(&target) {
                sites.push((impl_line, target, SiteKind::Executor));
            }
        }
        SiteKind::Snapshot => {
            // The executor itself is checked at its `Executor` impl
            // (SnapshotExec is a subtrait, so one exists). What this impl
            // adds is the checkpoint type: find `type Snapshot = X` in the
            // impl body, past any `where` clause.
            if let Some((line, snap)) = parse_snapshot_assoc(ctx, j + 1) {
                if !generics.contains(&snap) {
                    sites.push((line, snap, SiteKind::Snapshot));
                }
            }
        }
    }
    Some((sites, j + 1))
}

/// Scans forward from code index `k` (just past a `SnapshotExec` impl's
/// target ident) to the impl body and extracts the first type ident of its
/// `type Snapshot = X` item, with the line it sits on.
fn parse_snapshot_assoc(ctx: &FileCtx, mut k: usize) -> Option<(u32, String)> {
    let n = ctx.code.len();
    // Find the body `{` at angle depth 0 — generic arguments on the target
    // and `where` bounds like `History<Value = A::Fd>` may precede it.
    let mut angle = 0i32;
    loop {
        if k >= n {
            return None;
        }
        let a = ctx.code_token(k);
        if a.is_punct('<') {
            angle += 1;
        } else if a.is_punct('>') && !ctx.code_token(k - 1).is_punct('-') {
            angle -= 1;
        } else if angle == 0 && a.is_punct(';') {
            return None;
        } else if angle == 0 && a.is_punct('{') {
            break;
        }
        k += 1;
    }
    // Brace-match the body, looking for `type Snapshot =` at item level.
    let mut braces = 1i32;
    k += 1;
    while k < n && braces > 0 {
        let a = ctx.code_token(k);
        if a.is_punct('{') {
            braces += 1;
        } else if a.is_punct('}') {
            braces -= 1;
        } else if braces == 1
            && k + 2 < n
            && a.is_ident("type")
            && ctx.code_token(k + 1).is_ident("Snapshot")
            && ctx.code_token(k + 2).is_punct('=')
        {
            let mut m = k + 3;
            while m < n && !ctx.code_token(m).is_punct(';') {
                if ctx.code_token(m).kind == TokenKind::Ident {
                    return Some((a.line, ctx.code_token(m).text.clone()));
                }
                m += 1;
            }
            return None;
        }
        k += 1;
    }
    None
}
