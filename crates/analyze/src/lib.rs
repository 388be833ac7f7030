//! `mpcgs-analyze` — the workspace invariant linter.
//!
//! The sampler's strongest guarantees — bit-identical checkpoint/resume,
//! deterministic MC³ ensembles, the differential op-tape oracle — rest on
//! conventions the compiler cannot check: no unordered-map iteration in
//! sampler/codec paths, `unsafe` only inside `phylo::simd::dispatch` and the
//! rayon shim's `pool`, raw threads only under the `Backend` seam, no
//! wall-clock reads in sampler state, no bare float equality, RNG streams
//! only via `StreamBank`. This crate makes those conventions
//! machine-checked: a small lossless Rust lexer ([`lexer`]), per-file context
//! extraction ([`context`]), and a rule registry ([`rules`]) producing
//! pointed `file:line:col` diagnostics ([`diag::Diagnostic`]).
//!
//! Violations that are correct by construction carry an inline pragma with
//! a mandatory written reason:
//!
//! ```text
//! // mpcgs-analyze: allow(d5, reason = "sentinel is exact by construction")
//! ```
//!
//! Like the rest of the workspace tooling, the crate is dependency-free
//! (JSON output rides [`codec`], the shared serde-free codec). Run it as
//! `cargo run -p analyze --bin mpcgs-analyze`; see `--explain <rule>` for
//! each invariant's rationale and docs/ARCHITECTURE.md, "Static analysis &
//! invariants", for the full story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod context;
pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use codec::Json;

use context::FileContext;
use diag::Diagnostic;

/// Directories never scanned: build output, VCS, and the linter's own
/// seeded-violation fixture corpus. Nested cargo workspaces (a subdirectory
/// whose `Cargo.toml` declares its own `[workspace]`) are skipped too: they
/// build apart from this workspace and keep their own conventions.
const SKIP_RELATIVE: &[&str] = &["target", ".git", "crates/analyze/tests/fixtures"];

/// Analyze one file's source under its workspace-relative path, applying
/// pragmas and appending the pragma meta-diagnostics.
///
/// Runs the per-file rules *and* the graph rules (r1–r3) over this single
/// file — fixtures seed self-contained roots, so reachability works on one
/// file too. For cross-crate reachability use [`analyze_files`].
pub fn analyze_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let mut report = analyze_files(vec![(path.to_string(), source.to_string())]);
    std::mem::take(&mut report.diagnostics)
}

/// Analyze a set of `(workspace-relative path, source)` files as one unit:
/// per-file token rules, then the workspace call graph and the r1–r3
/// reachability rules, then per-file pragma application.
pub fn analyze_files(files: Vec<(String, String)>) -> Report {
    let units = graph::units(files);
    let files_scanned = units.len();
    let mut raw_per_file: Vec<Vec<rules::RawDiag>> = units
        .iter()
        .map(|u| {
            let mut raw = Vec::new();
            rules::check_all(&u.path, &u.source, &u.ctx, &mut raw);
            raw
        })
        .collect();
    let call_graph = graph::build(&units);
    reach::check_reachability(&units, &call_graph, &mut raw_per_file);
    let mut diagnostics = Vec::new();
    for (unit, raw) in units.iter().zip(raw_per_file) {
        diagnostics.extend(apply_pragmas(&unit.path, &unit.ctx, raw));
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Report { files_scanned, diagnostics }
}

/// Apply a file's suppression pragmas to its raw diagnostics and append
/// the pragma meta-diagnostics (unknown rule, unused pragma, parse error).
fn apply_pragmas(path: &str, ctx: &FileContext, raw: Vec<rules::RawDiag>) -> Vec<Diagnostic> {
    let mut used = vec![false; ctx.pragmas.len()];
    let mut diags: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let suppressed = ctx
            .pragmas
            .iter()
            .enumerate()
            .find(|(_, p)| p.rule == d.rule && p.target_line == d.line)
            .map(|(pi, p)| {
                used[pi] = true;
                p.reason.clone()
            });
        diags.push(Diagnostic {
            rule: d.rule,
            file: path.to_string(),
            line: d.line,
            col: d.col,
            message: d.message,
            suppressed,
        });
    }
    for e in &ctx.pragma_errors {
        diags.push(Diagnostic {
            rule: "pragma",
            file: path.to_string(),
            line: e.line,
            col: e.col,
            message: e.message.clone(),
            suppressed: None,
        });
    }
    for (pi, p) in ctx.pragmas.iter().enumerate() {
        let message = if rules::rule(&p.rule).is_none() {
            format!("pragma names unknown rule `{}` (see --list for the registry)", p.rule)
        } else if !used[pi] {
            format!(
                "unused pragma: no `{}` diagnostic on line {} to suppress — remove the \
                 stale exemption",
                p.rule, p.target_line
            )
        } else {
            continue;
        };
        diags.push(Diagnostic {
            rule: "pragma",
            file: path.to_string(),
            line: p.line,
            col: p.col,
            message,
            suppressed: None,
        });
    }
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

/// The result of analyzing a whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All diagnostics, sorted by (file, line, col).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// The diagnostics no pragma suppressed — these fail CI.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// The pragma-suppressed diagnostics (each carries its written reason).
    pub fn suppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_some())
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "mpcgs-analyze: {} file(s) scanned, {} diagnostic(s), {} suppressed by pragma",
            self.files_scanned,
            self.unsuppressed().count(),
            self.suppressed().count()
        )
    }

    /// The `mpcgs-analyze/v1` JSON artifact.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("format".to_string(), Json::string("mpcgs-analyze/v1")),
            ("files_scanned".to_string(), Json::Number(self.files_scanned as f64)),
            ("unsuppressed_count".to_string(), Json::Number(self.unsuppressed().count() as f64)),
            ("suppressed_count".to_string(), Json::Number(self.suppressed().count() as f64)),
            (
                "diagnostics".to_string(),
                Json::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

/// Analyze every workspace `.rs` file under `root` as one unit, so the
/// r1–r3 reachability cones cross crate boundaries.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    Ok(analyze_files(read_workspace(root)?))
}

/// Read every workspace `.rs` file under `root` into `(relative path,
/// source)` pairs, in deterministic (sorted) order.
pub fn read_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    workspace_files(root)?
        .into_iter()
        .map(|(rel, abs)| Ok((rel, fs::read_to_string(&abs)?)))
        .collect()
}

/// Every `.rs` file under `root` in deterministic (sorted) order, as
/// `(workspace-relative path, absolute path)` pairs. Nested cargo workspaces
/// below `root` are not part of it and are skipped.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let rel = relative(root, &path);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if name.starts_with('.')
                || SKIP_RELATIVE.contains(&rel.as_str())
                || name == "target"
                || declares_workspace(&path)
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push((rel, path));
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if declares_workspace(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Whether `dir` holds a `Cargo.toml` with a `[workspace]` table header.
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|line| line.trim() == "[workspace]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_suppresses_exactly_its_rule_and_line() {
        let src = "use std::collections::HashMap; // mpcgs-analyze: allow(d1, reason = \"lookup only\")\nuse std::collections::HashSet;\n";
        let diags = analyze_source("crates/phylo/src/patterns.rs", src);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].suppressed.as_deref(), Some("lookup only"));
        assert!(diags[1].suppressed.is_none());
    }

    #[test]
    fn standalone_pragma_covers_the_next_code_line() {
        let src =
            "// mpcgs-analyze: allow(d6, reason = \"root seeding\")\nlet rng = Mt19937::new(1);\n";
        let diags = analyze_source("crates/mpcgs/src/session.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed.is_some());
    }

    #[test]
    fn unused_and_unknown_pragmas_are_diagnostics() {
        let src = "// mpcgs-analyze: allow(d1, reason = \"nothing here\")\nlet x = 1;\n// mpcgs-analyze: allow(d99, reason = \"no such rule\")\nlet y = 2;\n";
        let diags = analyze_source("crates/phylo/src/patterns.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == "pragma" && d.suppressed.is_none()));
        assert!(diags[0].message.contains("unused pragma"));
        assert!(diags[1].message.contains("unknown rule `d99`"));
    }

    #[test]
    fn wrong_rule_pragma_does_not_suppress() {
        let src =
            "use std::collections::HashMap; // mpcgs-analyze: allow(d5, reason = \"wrong rule\")\n";
        let diags = analyze_source("crates/phylo/src/patterns.rs", src);
        // The d1 diagnostic survives and the d5 pragma is unused.
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().any(|d| d.rule == "d1" && d.suppressed.is_none()));
        assert!(diags.iter().any(|d| d.rule == "pragma" && d.message.contains("unused")));
    }

    #[test]
    fn walk_skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("analyze-walk-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/a\"]\n");
        write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write("crates/a/src/lib.rs", "pub fn a() {}\n");
        write("tools/own/Cargo.toml", "[package]\nname = \"own\"\n\n[workspace]\n");
        write("tools/own/src/main.rs", "fn main() {}\n");
        write("tools/loose.rs", "fn loose() {}\n");

        let files: Vec<String> =
            workspace_files(&root).unwrap().into_iter().map(|(rel, _)| rel).collect();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(files, ["crates/a/src/lib.rs", "tools/loose.rs"]);
    }

    #[test]
    fn report_json_shape() {
        let report = Report {
            files_scanned: 3,
            diagnostics: analyze_source(
                "crates/phylo/src/patterns.rs",
                "use std::collections::HashMap;\n",
            ),
        };
        let json = report.to_json();
        assert_eq!(json.get("format").and_then(Json::as_str), Some("mpcgs-analyze/v1"));
        assert_eq!(json.get("unsuppressed_count").and_then(Json::as_f64), Some(1.0));
        let text = json.to_pretty();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed, json);
    }
}
