//! The `mpcgs-analyze` binary: lint the workspace's determinism, unsafe-
//! boundary, and Backend-seam invariants.
//!
//! ```text
//! mpcgs-analyze [--root DIR] [--json]       lint every workspace .rs file
//! mpcgs-analyze --explain <rule>            document one invariant
//! mpcgs-analyze --list                      list the rule registry
//! mpcgs-analyze --api-surface               print the public-API listing
//! mpcgs-analyze --check-api-surface FILE    diff the listing against FILE
//! ```
//!
//! Exit code 0 means zero unsuppressed diagnostics; 1 means findings; 2
//! means the invocation itself was wrong.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use analyze::rules;

struct Args {
    root: Option<PathBuf>,
    json: bool,
    explain: Option<String>,
    list: bool,
    api_surface: bool,
    check_api_surface: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        explain: None,
        list: false,
        api_surface: false,
        check_api_surface: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--json" => args.json = true,
            "--explain" => {
                let rule = it.next().ok_or("--explain needs a rule id (try --list)")?;
                args.explain = Some(rule.clone());
            }
            "--list" => args.list = true,
            "--api-surface" => args.api_surface = true,
            "--check-api-surface" => {
                let file = it.next().ok_or("--check-api-surface needs a baseline file argument")?;
                args.check_api_surface = Some(PathBuf::from(file));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn print_usage() {
    eprintln!(
        "mpcgs-analyze — workspace invariant linter\n\n\
         USAGE:\n  mpcgs-analyze [--root DIR] [--json]\n  mpcgs-analyze --explain <rule>\n  \
         mpcgs-analyze --list\n  mpcgs-analyze --api-surface\n  mpcgs-analyze \
         --check-api-surface FILE\n\nOPTIONS:\n  --root DIR       workspace root (default: \
         walk up from the current directory\n                   to the nearest [workspace] \
         Cargo.toml)\n  \
         --json           emit the mpcgs-analyze/v1 JSON artifact instead of text\n  \
         --explain RULE   print one rule's rationale (d1..d6, r1..r4, pragma)\n  --list           \
         list the rule registry\n  --api-surface    print the normalised public-API listing \
         (rule r4)\n  --check-api-surface FILE\n                   diff the live listing \
         against the committed FILE baseline;\n                   exit 1 with the +/- lines \
         and the regen one-liner on drift\n\nSuppress a finding in place, with a mandatory \
         written reason:\n  \
         // mpcgs-analyze: allow(d1, reason = \"lookup only; order never escapes\")\n\nSee \
         docs/ARCHITECTURE.md, \"Static analysis & invariants\"."
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("mpcgs-analyze: {message}");
            }
            print_usage();
            return ExitCode::from(2);
        }
    };

    if args.list {
        for rule in rules::RULES {
            println!("{:<7} {}", rule.id, rule.title);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &args.explain {
        match rules::rule(id) {
            Some(rule) => {
                println!("[{}] {}\n\n{}", rule.id, rule.title, rule.explain);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("mpcgs-analyze: no rule named `{id}` (try --list)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match args
        .root
        .or_else(|| std::env::current_dir().ok().and_then(|cwd| analyze::find_workspace_root(&cwd)))
    {
        Some(root) => root,
        None => {
            eprintln!(
                "mpcgs-analyze: no [workspace] Cargo.toml above the current directory — \
                 pass --root"
            );
            return ExitCode::from(2);
        }
    };

    if args.api_surface || args.check_api_surface.is_some() {
        let files = match analyze::read_workspace(&root) {
            Ok(files) => files,
            Err(error) => {
                eprintln!("mpcgs-analyze: failed to scan {}: {error}", root.display());
                return ExitCode::from(2);
            }
        };
        let live = analyze::api::surface(&analyze::graph::units(files));
        if args.api_surface {
            print!("{live}");
            return ExitCode::SUCCESS;
        }
        let baseline_path =
            args.check_api_surface.as_deref().unwrap_or_else(|| std::path::Path::new(""));
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!(
                    "mpcgs-analyze: cannot read baseline {}: {error}",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        };
        return if analyze::api::check(&live, &baseline).is_empty() {
            println!("mpcgs-analyze: API surface matches {}", baseline_path.display());
            ExitCode::SUCCESS
        } else {
            eprint!("{}", analyze::api::render_diff(&live, &baseline));
            ExitCode::FAILURE
        };
    }

    let report = match analyze::analyze_workspace(&root) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("mpcgs-analyze: failed to scan {}: {error}", root.display());
            return ExitCode::from(2);
        }
    };

    if args.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        for diagnostic in report.unsuppressed() {
            println!("{}", diagnostic.render());
        }
        println!("{}", report.summary());
    }
    if report.unsuppressed().count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
