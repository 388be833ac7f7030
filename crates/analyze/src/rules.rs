//! The invariant registry: what each rule enforces, where it applies, and
//! the token-level checkers.
//!
//! Every rule guards a convention the compiler cannot see but the sampler's
//! determinism contract depends on — bit-identical checkpoint/resume,
//! cross-host ensemble reproducibility, and the differential op-tape oracle
//! all assume them. Scopes are path-based (the registry knows the workspace
//! layout) plus a test-code axis: `#[cfg(test)]` regions and files under
//! `tests/`, `benches/`, or `examples/` are exempt from the rules that only
//! protect shipped sampler state.

use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};

/// One diagnostic before pragma application.
#[derive(Debug, Clone)]
pub struct RawDiag {
    /// The rule that fired (`d1` … `d6` or `pragma`).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to use instead.
    pub message: String,
}

/// Static description of one rule, shown by `--explain`.
pub struct RuleInfo {
    /// Stable id used in diagnostics and pragmas.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The long-form rationale.
    pub explain: &'static str,
}

/// Paths whose contents feed sampler state, checkpoint bytes, or codec
/// output — the determinism-critical surface for D1/D5/D6.
const DETERMINISM_PATHS: &[&str] = &[
    "crates/phylo/src",
    "crates/mcmc/src",
    "crates/lamarc/src",
    "crates/mpcgs/src",
    "crates/codec/src",
    "crates/coalescent/src",
    "crates/exec/src",
];

/// The only modules allowed to contain `unsafe` / `#[allow(unsafe_code)]`:
/// the runtime CPU-feature dispatch for the SIMD combine kernel, and the
/// rayon shim's worker pool, which hands a borrowed chunk body to its
/// long-lived workers.
const UNSAFE_ALLOWLIST: &[(&str, &str)] =
    &[("crates/phylo/src/simd.rs", "dispatch"), ("crates/shims/rayon/src/lib.rs", "pool")];

/// Where `std::thread::{spawn, scope}` is legitimate: the `Backend` seam
/// itself, and the rayon shim it delegates to.
const THREAD_ALLOWED: &[&str] = &["crates/exec/src", "crates/shims/rayon/src"];

/// Where wall-clock reads are legitimate: benchmarking and the serve
/// layer's latency reporting.
const CLOCK_ALLOWED: &[&str] =
    &["crates/bench", "crates/shims/criterion", "crates/mpcgs/src/serve.rs"];

/// Where `Mt19937` construction is legitimate: the RNG module itself, plus
/// drivers that seed a whole process (bench binaries, shims).
const RNG_ALLOWED: &[&str] = &["crates/mcmc/src/rng", "crates/bench", "crates/shims"];

/// The full registry, in diagnostic-id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "d1",
        title: "no unordered-map iteration in sampler/checkpoint/codec paths",
        explain: "HashMap and HashSet iterate in a randomized, per-process order. In the \
                  sampler, checkpoint, and codec paths that order can leak into pattern \
                  numbering, node ordering, or serialized bytes, silently breaking the \
                  bit-identical checkpoint/resume contract and cross-host ensemble \
                  reproducibility. Use BTreeMap/BTreeSet (or a Vec kept sorted) so every \
                  traversal is a deterministic function of the keys. Lookups that provably \
                  never iterate may instead carry a pragma with a written reason.\n\nSee \
                  docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "d2",
        title: "unsafe code only inside phylo::simd::dispatch and rayon::pool; every crate \
                root denies it",
        explain: "Every crate root must carry #![deny(unsafe_code)] (or forbid), and the \
                  only modules allowed to opt back in with #[allow(unsafe_code)] are \
                  phylo::simd::dispatch — the runtime CPU-feature dispatch whose soundness \
                  obligation (calling a #[target_feature] function after a CPUID probe) is \
                  documented in place — and the rayon shim's pool, whose one unsafe \
                  erases a chunk body's lifetime for the persistent workers (sound because \
                  a dispatch returns only after every chunk has finished). Unsafe code \
                  anywhere else widens the audit surface for memory-safety bugs that the \
                  determinism harnesses cannot catch.\n\n\
                  See docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "d3",
        title: "no std::thread::{spawn, scope} outside crates/exec",
        explain: "All parallelism routes through exec::Backend (map_mut / map_grid), which \
                  owns deterministic work splitting, the device command queue, and the \
                  cost accounting. A stray std::thread::spawn bypasses that seam: its \
                  interleaving is invisible to the dispatch records and its results can \
                  arrive in nondeterministic order. crates/exec itself (and the rayon shim \
                  it delegates to) are the sanctioned homes for raw threads.\n\nSee \
                  docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "d4",
        title: "no Instant::now / SystemTime in sampler-state paths",
        explain: "Wall-clock reads are nondeterministic inputs: anything derived from them \
                  that reaches sampler state, checkpoint bytes, or proposal decisions \
                  breaks run-to-run bit-identity. Timing belongs in the bench crate and \
                  the serve layer's latency reporting, where it is measurement, not \
                  state.\n\nSee docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "d5",
        title: "no bare f64/f32 == or != in sampler paths",
        explain: "Exact float equality silently encodes a bit-identity assumption. Where \
                  that assumption is the point (cache keys, checkpoint comparisons), \
                  compare the bit patterns explicitly via to_bits() — as EdgeMatrixCache \
                  keying does — so the intent survives refactoring; elsewhere use an \
                  explicit tolerance. Sentinel comparisons that are exact by construction \
                  (a value just assigned 0.0, an infinity flag) may carry a pragma with a \
                  written reason.\n\nSee docs/ARCHITECTURE.md, 'Static analysis & \
                  invariants'.",
    },
    RuleInfo {
        id: "d6",
        title: "no Mt19937 construction outside mcmc::rng, tests, and the harness",
        explain: "Every random stream in a run must be derived from the run's StreamBank \
                  (or the sanctioned mcmc::rng::host_rng root constructor) so that seeds, \
                  stream positions, and checkpoint resume stay coherent. An ad-hoc \
                  Mt19937::new(seed) creates a stream the checkpoint codec does not know \
                  about, which desynchronizes resume and cross-host replay. Tests, the \
                  op-tape harness, and bench drivers seed their own processes and are \
                  exempt.\n\nSee docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "r1",
        title: "panic-freedom: no unwrap/expect/panic!/assert!/risky indexing reachable from \
                step, serve drain, or the checkpoint codec",
        explain: "A panic inside SessionRunner::step, the JobQueue drain, or the \
                  SessionCheckpoint codec is a fault-isolation bug: it tears down a serve \
                  job (or the whole process) instead of surfacing a per-job Err outcome, \
                  and it can leave a checkpoint half-written. The rule walks the resolved \
                  call graph from those roots and flags every reachable `.unwrap()`, \
                  `.expect()`, panicking macro (panic!/assert!/unreachable!/todo!/\
                  unimplemented!), and arithmetic slice index (`v[i - 1]`) — each \
                  diagnostic shows the call chain that puts the site in scope. Invariants \
                  that genuinely cannot fail (arena indexes validated at construction) \
                  carry a pragma with the written reason; debug_assert! is exempt because \
                  release builds compile it out.\n\nThe cone walks resolved edges only: \
                  dyn-trait dispatch, function pointers, and macro bodies do not extend it \
                  (documented false-negative classes).\n\nSee docs/ARCHITECTURE.md, \
                  'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "r2",
        title: "no-alloc hot loop: no Vec/String/Box/format! allocation reachable from the \
                combine kernel or the dirty-path rescore",
        explain: "The paper's throughput rests on the per-site combine loop staying \
                  allocation-free: Kernel::combine_rows, the SIMD lanes under it, and \
                  FelsensteinPruner::rescore_with_workspace run millions of times per \
                  chain, and a single Vec::new or format! in that cone turns into \
                  allocator traffic that dwarfs the FLOPs. Workspaces are allocated once \
                  and reused; growth happens in `reserve`-style cold paths. The rule flags \
                  Vec::new/with_capacity, String construction, Box::new, vec!/format!, and \
                  .push/.to_vec/.to_string/.to_owned reachable from the kernel roots. \
                  Pooled-scratch pushes whose capacity is retained across calls (no \
                  realloc once warm) carry a pragma saying so.\n\nSee \
                  docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "r3",
        title: "no I/O reachable from sampler step paths: observers and the CLI are the \
                only output seams",
        explain: "GenealogySampler::step and SessionRunner::step must be pure state \
                  transitions: any std::fs call, print macro, or stdio handle reachable \
                  from them smuggles side effects into the sampler, breaks the serve \
                  layer's output contract (stdout is the artifact stream), and makes \
                  cross-host ensemble replicas diverge in behaviour. Progress and \
                  telemetry route through RunObserver implementations — which the graph \
                  deliberately does not traverse (dyn dispatch is an unresolved edge), \
                  making observers the sanctioned seam by construction.\n\nSee \
                  docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "r4",
        title: "golden public-API surface: docs/api-surface.txt must match --api-surface",
        explain: "`mpcgs-analyze --api-surface` emits a sorted, normalised listing of \
                  every pub item per crate (fn/struct/enum/trait/…, trait-impl methods \
                  riding their trait). CI diffs it against the committed \
                  docs/api-surface.txt; a mismatch fails the build with the exact +/- \
                  lines and the regen one-liner:\n\n    cargo run -q -p analyze --bin \
                  mpcgs-analyze -- --api-surface > docs/api-surface.txt\n\nThe point is \
                  not to freeze the API but to make drift a reviewed artifact: adding, \
                  removing, or renaming a pub item shows up as a one-line diff in the PR \
                  instead of an accident discovered downstream. Signatures and generics \
                  are deliberately ignored so parameter changes do not churn the \
                  baseline.\n\nSee docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
    RuleInfo {
        id: "pragma",
        title: "suppression pragmas must parse, name a real rule, carry a reason, and be used",
        explain: "Inline suppressions look like:\n\n    // mpcgs-analyze: allow(d1, reason \
                  = \"lookup only; iteration order never escapes\")\n\nA pragma on its own \
                  line suppresses matching diagnostics on the next code line; a trailing \
                  pragma suppresses its own line. The reason is mandatory — a suppression \
                  without a written justification is itself a violation — and a pragma \
                  that suppresses nothing is reported so stale exemptions cannot \
                  accumulate. Pragma diagnostics cannot themselves be suppressed.\n\nSee \
                  docs/ARCHITECTURE.md, 'Static analysis & invariants'.",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `path` (workspace-relative, `/`-separated) starts with any of
/// the given prefixes (component-aligned) or equals one exactly.
fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path == *p || (path.starts_with(p) && path.as_bytes()[p.len()] == b'/'))
}

/// Files that are test/driver code by location.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// Crate roots: `src/lib.rs` / `src/main.rs` of a workspace member.
fn is_crate_root(path: &str) -> bool {
    let comps: Vec<&str> = path.split('/').collect();
    match comps.as_slice() {
        ["src", file] => matches!(*file, "lib.rs" | "main.rs"),
        [rest @ .., "src", file] => {
            !rest.is_empty() && rest[0] == "crates" && matches!(*file, "lib.rs" | "main.rs")
        }
        _ => false,
    }
}

/// Run every rule over one file.
pub fn check_all(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    check_d1(path, source, ctx, out);
    check_d2(path, source, ctx, out);
    check_d3(path, source, ctx, out);
    check_d4(path, source, ctx, out);
    check_d5(path, source, ctx, out);
    check_d6(path, source, ctx, out);
}

fn diag(out: &mut Vec<RawDiag>, rule: &'static str, tok: &Token, message: String) {
    out.push(RawDiag { rule, line: tok.line, col: tok.col, message });
}

/// D1: unordered collections in determinism-critical paths.
fn check_d1(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    if !path_in(path, DETERMINISM_PATHS) || is_test_path(path) {
        return;
    }
    for &ti in &ctx.sig {
        let tok = &ctx.tokens[ti];
        if tok.kind != TokenKind::Ident || ctx.in_test_region(tok.start) {
            continue;
        }
        let (bad, good) = match tok.text(source) {
            "HashMap" => ("HashMap", "BTreeMap"),
            "HashSet" => ("HashSet", "BTreeSet"),
            "hash_map" => ("hash_map", "btree_map"),
            "hash_set" => ("hash_set", "btree_set"),
            _ => continue,
        };
        diag(
            out,
            "d1",
            tok,
            format!(
                "`{bad}` in a sampler/checkpoint/codec path: iteration order is randomized \
                 per process and can leak into pattern numbering, node order, or checkpoint \
                 bytes; use `{good}` or a sorted collection"
            ),
        );
    }
}

/// D2: crate roots deny unsafe; unsafe tokens only inside the allowlisted
/// modules.
fn check_d2(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    if is_crate_root(path) && !has_unsafe_deny_attr(source, ctx) {
        out.push(RawDiag {
            rule: "d2",
            line: 1,
            col: 1,
            message: "crate root is missing `#![deny(unsafe_code)]` (or \
                      `#![forbid(unsafe_code)]`)"
                .to_string(),
        });
    }
    let allowed_region = UNSAFE_ALLOWLIST
        .iter()
        .find(|(file, _)| *file == path)
        .and_then(|(_, module)| ctx.module_region(source, module));
    let in_allowed =
        |byte: usize| allowed_region.is_some_and(|(start, end)| byte >= start && byte < end);
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let tok = &ctx.tokens[ti];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text(source) {
            "unsafe" if !in_allowed(tok.start) => diag(
                out,
                "d2",
                tok,
                "`unsafe` outside the sanctioned boundaries: `phylo::simd::dispatch` and \
                 `rayon::pool` are the only modules allowed to hold unsafe code"
                    .to_string(),
            ),
            "unsafe_code" if !in_allowed(tok.start) => {
                // `deny(unsafe_code)` / `forbid(unsafe_code)` strengthen the
                // invariant and are welcome anywhere; `allow(unsafe_code)`
                // pokes a hole in it.
                let gate = si
                    .checked_sub(2)
                    .map(|i| ctx.tokens[ctx.sig[i]].text(source))
                    .unwrap_or_default();
                if gate != "deny" && gate != "forbid" {
                    diag(
                        out,
                        "d2",
                        tok,
                        "`#[allow(unsafe_code)]` outside the sanctioned \
                         `phylo::simd::dispatch` and `rayon::pool` boundaries"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Whether the file carries `#![deny(unsafe_code)]` or the `forbid` form.
fn has_unsafe_deny_attr(source: &str, ctx: &FileContext) -> bool {
    let s = |si: usize| ctx.tokens[ctx.sig[si]].text(source);
    (0..ctx.sig.len().saturating_sub(7)).any(|i| {
        s(i) == "#"
            && s(i + 1) == "!"
            && s(i + 2) == "["
            && (s(i + 3) == "deny" || s(i + 3) == "forbid")
            && s(i + 4) == "("
            && s(i + 5) == "unsafe_code"
            && s(i + 6) == ")"
            && s(i + 7) == "]"
    })
}

/// D3: raw threads outside the Backend seam.
fn check_d3(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    if path_in(path, THREAD_ALLOWED) || is_test_path(path) {
        return;
    }
    let s = |si: usize| ctx.tokens[ctx.sig[si]].text(source);
    for si in 0..ctx.sig.len().saturating_sub(3) {
        let tok = &ctx.tokens[ctx.sig[si]];
        if tok.kind == TokenKind::Ident
            && tok.text(source) == "thread"
            && s(si + 1) == ":"
            && s(si + 2) == ":"
            && matches!(s(si + 3), "spawn" | "scope")
            && !ctx.in_test_region(tok.start)
        {
            diag(
                out,
                "d3",
                tok,
                format!(
                    "`std::thread::{}` outside `crates/exec`: all parallelism must route \
                     through `Backend::map_mut`/`map_grid` so dispatch stays deterministic \
                     and accounted",
                    s(si + 3)
                ),
            );
        }
    }
}

/// D4: wall-clock reads outside bench/serve reporting.
fn check_d4(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    if path_in(path, CLOCK_ALLOWED) || is_test_path(path) {
        return;
    }
    let s = |si: usize| ctx.tokens[ctx.sig[si]].text(source);
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let tok = &ctx.tokens[ti];
        if tok.kind != TokenKind::Ident || ctx.in_test_region(tok.start) {
            continue;
        }
        match tok.text(source) {
            "Instant"
                if si + 3 < ctx.sig.len()
                    && s(si + 1) == ":"
                    && s(si + 2) == ":"
                    && s(si + 3) == "now" =>
            {
                diag(
                    out,
                    "d4",
                    tok,
                    "`Instant::now` in a sampler-state path: wall-clock reads are \
                     nondeterministic inputs; timing belongs in bench/serve reporting \
                     modules"
                        .to_string(),
                );
            }
            "SystemTime" => diag(
                out,
                "d4",
                tok,
                "`SystemTime` in a sampler-state path: wall-clock reads are \
                 nondeterministic inputs; timing belongs in bench/serve reporting modules"
                    .to_string(),
            ),
            _ => {}
        }
    }
}

/// D5: bare float equality.
fn check_d5(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    if !path_in(path, DETERMINISM_PATHS) || is_test_path(path) {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        let (a, b) = (&toks[i], &toks[i + 1]);
        if a.kind != TokenKind::Punct || b.kind != TokenKind::Punct || a.end != b.start {
            continue;
        }
        let op = match (a.text(source), b.text(source)) {
            ("=", "=") => "==",
            ("!", "=") => "!=",
            _ => continue,
        };
        if ctx.in_test_region(a.start) {
            continue;
        }
        let float_lhs = prev_is_float(source, toks, i);
        let float_rhs = next_is_float(source, toks, i + 2);
        if float_lhs || float_rhs {
            diag(
                out,
                "d5",
                a,
                format!(
                    "bare float `{op}`: exact float comparisons hide bit-identity \
                     assumptions; compare `to_bits()` (as `EdgeMatrixCache` keying does) \
                     or use an explicit tolerance"
                ),
            );
        }
    }
}

const FLOAT_CONSTS: &[&str] = &["INFINITY", "NEG_INFINITY", "NAN"];

fn prev_is_float(source: &str, toks: &[Token], before: usize) -> bool {
    let Some(prev) = toks[..before].iter().rev().find(|t| t.is_significant()) else {
        return false;
    };
    prev.kind == TokenKind::Float
        || (prev.kind == TokenKind::Ident && FLOAT_CONSTS.contains(&prev.text(source)))
}

fn next_is_float(source: &str, toks: &[Token], from: usize) -> bool {
    let mut sig = toks[from..].iter().filter(|t| t.is_significant());
    let mut first = match sig.next() {
        Some(t) => t,
        None => return false,
    };
    if first.kind == TokenKind::Punct && first.text(source) == "-" {
        first = match sig.next() {
            Some(t) => t,
            None => return false,
        };
    }
    if first.kind == TokenKind::Float {
        return true;
    }
    if first.kind == TokenKind::Ident && matches!(first.text(source), "f64" | "f32") {
        // `f64::INFINITY` and friends.
        let rest: Vec<&Token> = sig.take(3).collect();
        return rest.len() == 3
            && rest[0].text(source) == ":"
            && rest[1].text(source) == ":"
            && FLOAT_CONSTS.contains(&rest[2].text(source));
    }
    false
}

/// D6: ad-hoc RNG construction outside the stream plumbing.
fn check_d6(path: &str, source: &str, ctx: &FileContext, out: &mut Vec<RawDiag>) {
    if !path_in(path, DETERMINISM_PATHS) || path_in(path, RNG_ALLOWED) || is_test_path(path) {
        return;
    }
    const CTORS: &[&str] =
        &["new", "from_seed", "from_seed_array", "seed_from_u64", "from_entropy"];
    let s = |si: usize| ctx.tokens[ctx.sig[si]].text(source);
    for si in 0..ctx.sig.len().saturating_sub(3) {
        let tok = &ctx.tokens[ctx.sig[si]];
        if tok.kind == TokenKind::Ident
            && tok.text(source) == "Mt19937"
            && s(si + 1) == ":"
            && s(si + 2) == ":"
            && CTORS.contains(&s(si + 3))
            && !ctx.in_test_region(tok.start)
        {
            diag(
                out,
                "d6",
                tok,
                format!(
                    "`Mt19937::{}` outside `mcmc::rng`: every stream must be derived from \
                     `StreamBank` (or the sanctioned `mcmc::rng::host_rng` root \
                     constructor) so checkpoints can replay it",
                    s(si + 3)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, source: &str) -> Vec<RawDiag> {
        let ctx = FileContext::new(source);
        let mut out = Vec::new();
        check_all(path, source, &ctx, &mut out);
        out
    }

    fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
        run(path, source).into_iter().map(|d| d.rule).collect()
    }

    const ROOT_OK: &str = "#![forbid(unsafe_code)]\n";

    #[test]
    fn d1_fires_in_scope_and_not_in_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        assert_eq!(rules_fired("crates/phylo/src/patterns.rs", src), ["d1"]);
        assert!(rules_fired("crates/bench/src/json.rs", src).is_empty());
        assert!(rules_fired("tests/accuracy.rs", src).is_empty());
    }

    #[test]
    fn d2_requires_root_attr_and_fences_unsafe() {
        assert_eq!(rules_fired("crates/phylo/src/lib.rs", "fn f() {}\n"), ["d2"]);
        assert!(rules_fired("crates/phylo/src/lib.rs", ROOT_OK).is_empty());
        // `unsafe` outside the dispatch module, even in the allowlisted file.
        let src = "fn f() { unsafe { g(); } }\n#[allow(unsafe_code)]\npub mod dispatch { pub fn h() { unsafe { i(); } } }\n";
        let diags = run("crates/phylo/src/simd.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        // The same contents in any other file: both unsafes and the allow fire.
        let diags = run("crates/mcmc/src/chain.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "d2").count(), 3);
    }

    #[test]
    fn d2_admits_only_the_pool_module_of_the_rayon_shim() {
        const SHIM: &str = "crates/shims/rayon/src/lib.rs";
        let pool = "#[allow(unsafe_code)]\nmod pool { fn f() { unsafe { g(); } } }\n";
        assert!(rules_fired(SHIM, &format!("#![deny(unsafe_code)]\n{pool}")).is_empty());
        // The shim root still needs the deny attribute.
        assert_eq!(rules_fired(SHIM, pool), ["d2"]);
        // Any other module of the shim, or the root itself, still fires.
        let other = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\nmod iter { fn f() { unsafe { g(); } } }\nfn h() { unsafe { i(); } }\n";
        assert_eq!(rules_fired(SHIM, other), ["d2", "d2", "d2"]);
        // A `pool` module anywhere else is not the sanctioned one.
        let diags = run("crates/shims/rand/src/lib.rs", &format!("#![deny(unsafe_code)]\n{pool}"));
        assert_eq!(diags.iter().filter(|d| d.rule == "d2").count(), 2);
    }

    #[test]
    fn d2_ignores_comments_and_strings() {
        let src = "// unsafe in prose\nlet s = \"unsafe\";\n";
        assert!(rules_fired("crates/mcmc/src/chain.rs", src).is_empty());
    }

    #[test]
    fn d3_flags_spawn_and_scope_outside_exec() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_fired("crates/mpcgs/src/ensemble.rs", src), ["d3"]);
        assert!(rules_fired("crates/exec/src/executor.rs", src).is_empty());
        assert!(rules_fired("crates/shims/rayon/src/pool.rs", src).is_empty());
        let src2 = "fn f() { thread::scope(|s| {}); }\n";
        assert_eq!(rules_fired("crates/lamarc/src/run.rs", src2), ["d3"]);
        // available_parallelism is a read, not a spawn.
        assert!(rules_fired(
            "crates/lamarc/src/run.rs",
            "let n = std::thread::available_parallelism();\n"
        )
        .is_empty());
    }

    #[test]
    fn d4_flags_clocks_outside_reporting() {
        let src = "let t0 = std::time::Instant::now();\n";
        assert_eq!(rules_fired("crates/mpcgs/src/sampler.rs", src), ["d4"]);
        assert!(rules_fired("crates/mpcgs/src/serve.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/perf_trajectory.rs", src).is_empty());
        assert_eq!(
            rules_fired("crates/phylo/src/likelihood.rs", "use std::time::SystemTime;\n"),
            ["d4"]
        );
    }

    #[test]
    fn d5_flags_float_literal_comparisons() {
        for src in [
            "if x == 1.0 {}\n",
            "if 0.5 != y {}\n",
            "if x == -1.0e-9 {}\n",
            "if max == f64::INFINITY {}\n",
            "if self.0 != f64::NAN {}\n",
        ] {
            assert_eq!(rules_fired("crates/mcmc/src/logdomain.rs", src), ["d5"], "{src}");
        }
        for src in ["if x == y {}\n", "if n == 1 {}\n", "if a.to_bits() == b.to_bits() {}\n"] {
            assert!(rules_fired("crates/mcmc/src/logdomain.rs", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn d6_flags_adhoc_rng_construction() {
        let src = "let mut rng = Mt19937::new(42);\n";
        assert_eq!(rules_fired("crates/mpcgs/src/session.rs", src), ["d6"]);
        assert!(rules_fired("crates/mcmc/src/rng/streams.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/fig2_burnin_trace.rs", src).is_empty());
        assert!(rules_fired("tests/harness/mod.rs", src).is_empty());
        // Non-constructor paths are fine.
        assert!(rules_fired("crates/mpcgs/src/session.rs", "let p = Mt19937::position(&rng);\n")
            .is_empty());
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/mpcgs/src/main.rs"));
        assert!(is_crate_root("crates/shims/rand/src/lib.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/perf_trajectory.rs"));
        assert!(!is_crate_root("crates/phylo/src/tree/mod.rs"));
        assert!(!is_crate_root("tests/accuracy.rs"));
    }

    #[test]
    fn registry_ids_are_unique_and_looked_up() {
        for r in RULES {
            assert_eq!(RULES.iter().filter(|o| o.id == r.id).count(), 1);
            assert!(rule(r.id).is_some());
        }
        assert!(rule("d99").is_none());
    }
}
