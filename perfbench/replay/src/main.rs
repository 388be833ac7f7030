//! `perfbench-replay`: the compiled half of the mpcgs end-to-end benchmark.
//!
//! ```text
//! perfbench-replay gen <workload> --seed <n> --out <dir>
//! perfbench-replay replay <workload> [--trace <spans.json>] <dir>...
//! ```
//!
//! `gen` writes one operation's inputs (see [`workloads`]). `replay` re-runs
//! the operations in `<dir>...` in-process through the public API and prints
//! one JSON document: per operation the values the output checks need, and,
//! with `--trace`, the per-layer metrics of a traced replay of the first
//! operation (its spans are written to the given file).

mod indep;
mod layers;
mod replay;
mod rng;
mod sim;
mod trace;
mod workloads;

use std::path::Path;

use codec::Json;

use replay::{
    cli_config, cli_spec, eq26_deviation, job_spec, json_strings, load_dataset, load_jobs,
    printed_row, pruning_deviation, run_estimation, Estimation, EstimationSpec,
};
use trace::Tracer;

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("inputs.json: missing {key:?}"))
}

fn string_list(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| format!("inputs.json: {key:?} is not an array"))?
        .iter()
        .map(|v| v.as_str().map(str::to_string).ok_or_else(|| format!("{key:?}: not a string")))
        .collect()
}

fn read_inputs(dir: &str) -> Result<Json, String> {
    let path = Path::new(dir).join("inputs.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rows_json(est: &Estimation) -> Json {
    Json::Array(est.rows.iter().map(|row| json_strings(&printed_row(row))).collect())
}

/// The CLI sizing of a reference or long-loci operation, read back from the
/// generated command line.
fn cli_sizing(args: &[String]) -> Result<(f64, usize, usize, usize), String> {
    let flag = |name: &str| -> Result<usize, String> {
        let at = args.iter().position(|a| a == name).ok_or(format!("{name} missing"))?;
        args[at + 1].parse().map_err(|e| format!("{name}: {e}"))
    };
    let theta_at = args.iter().position(|a| a.starts_with("--")).ok_or("no flags")? - 1;
    let theta: f64 = args[theta_at].parse().map_err(|e| format!("theta: {e}"))?;
    Ok((theta, flag("--samples")?, flag("--burn-in")?, flag("--em")?))
}

/// Replay one reference or long-loci operation; returns the per-operation
/// values, the replayed estimation, its spec and its input files.
fn replay_cli_op(
    tr: &mut Tracer,
    workload: &str,
    dir: &str,
) -> Result<(Json, Estimation, EstimationSpec, Vec<String>), String> {
    let inputs = read_inputs(dir)?;
    let files = string_list(&inputs, "files")?;
    let args = string_list(&inputs, "args")?;
    let (theta, samples, burn_in, em) = cli_sizing(&args)?;
    // The root span covers what the binary does: load, build and run.
    let root = tr.enter("replay");
    let dataset = load_dataset(tr, &files)?;
    let spec = cli_spec(dataset, cli_config(theta, samples, burn_in, em));
    // The traced replay mirrors the binary's checkpoint writes; the untraced
    // one only needs the chain.
    let (every, path) = match workload {
        "long_loci" if tr.enabled() => {
            (Some(workloads::LONG_CHECKPOINT_EVERY), Some(Path::new(dir).join("replay.ckpt")))
        }
        _ => (None, None),
    };
    let est = run_estimation(tr, &spec, every, path.as_deref(), tr.enabled())?;
    tr.exit(root, None);
    let mut fields = vec![
        ("rows".to_string(), rows_json(&est)),
        ("theta".to_string(), Json::string(format!("{:.6}", est.theta))),
        ("eq26_deviation".to_string(), Json::Number(eq26_deviation(&est))),
        // What the replay ran with, as the CLI banner names it.
        ("backend".to_string(), Json::string(spec.config.backend.to_string())),
        ("kernel".to_string(), Json::string(spec.config.kernel.variant().to_string())),
    ];
    if workload == "reference" {
        fields
            .push(("pruning_deviation".into(), Json::Number(pruning_deviation(&est, &files[0])?)));
    }
    Ok((Json::Object(fields), est, spec, files))
}

/// A serve batch's per-job values, each job's solo replay, and the root
/// span (still open).
type ServeReplay = (Json, Vec<(String, Estimation)>, usize);

/// Replay every job of a serve batch alone, in submission order. The root
/// span is left open so the traced replay can add the in-process drain.
fn replay_serve_op(tr: &mut Tracer, dir: &str) -> Result<ServeReplay, String> {
    let inputs = read_inputs(dir)?;
    let spec_path = field(&inputs, "spec")?.as_str().ok_or("spec is not a string")?.to_string();
    let root = tr.enter("replay");
    let (_, jobs) = tr.span("phylo.io.parse", || load_jobs(&spec_path))?;
    let mut runs = Vec::new();
    for job in &jobs {
        runs.push((job.name.clone(), run_estimation(tr, &job_spec(job), None, None, false)?));
    }
    let out = runs
        .iter()
        .map(|(name, est)| {
            Json::Object(vec![
                ("name".into(), Json::string(name.as_str())),
                ("theta".into(), Json::string(format!("{:.6}", est.theta))),
            ])
        })
        .collect();
    Ok((Json::Object(vec![("jobs".into(), Json::Array(out))]), runs, root))
}

fn replay(workload: &str, trace_out: Option<&str>, dirs: &[String]) -> Result<Json, String> {
    let mut ops = Vec::new();
    let mut layers = Json::Null;
    for (k, dir) in dirs.iter().enumerate() {
        let traced = k == 0 && trace_out.is_some();
        let mut tr = Tracer::new(traced);
        let op = match workload {
            "reference" | "long_loci" => {
                let (op, est, spec, files) = replay_cli_op(&mut tr, workload, dir)?;
                if traced {
                    layers = layers::cli_layers(&tr, workload, &spec, &files, &est)?;
                }
                op
            }
            "serve_mix" => {
                let (op, runs, root) = replay_serve_op(&mut tr, dir)?;
                if traced {
                    layers = layers::serve_layers(&mut tr, root, dir, &runs)?;
                } else {
                    tr.exit(root, None);
                }
                op
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        if traced {
            let path = trace_out.expect("traced");
            std::fs::write(path, tr.to_json().to_pretty())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        ops.push(op);
    }
    Ok(Json::Object(vec![("ops".into(), Json::Array(ops)), ("layers".into(), layers)]))
}

fn run(args: &[String]) -> Result<(), String> {
    let usage = "usage: perfbench-replay gen <workload> --seed <n> --out <dir>\n       \
                 perfbench-replay replay <workload> [--trace <file>] <dir>...";
    match args.first().map(String::as_str) {
        Some("gen") => {
            let workload = args.get(1).ok_or(usage)?;
            let value = |name: &str| -> Result<&String, String> {
                let at = args.iter().position(|a| a == name).ok_or(usage)?;
                args.get(at + 1).ok_or_else(|| usage.to_string())
            };
            let seed: u64 = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            workloads::generate(workload, seed, Path::new(value("--out")?))
        }
        Some("replay") => {
            let workload = args.get(1).ok_or(usage)?;
            let mut trace_out = None;
            let mut dirs = Vec::new();
            let mut i = 2;
            while i < args.len() {
                if args[i] == "--trace" {
                    trace_out = Some(args.get(i + 1).ok_or(usage)?.as_str());
                    i += 2;
                } else {
                    dirs.push(args[i].clone());
                    i += 1;
                }
            }
            if dirs.is_empty() {
                return Err(usage.to_string());
            }
            let doc = replay(workload, trace_out, &dirs)?;
            print!("{}", doc.to_pretty());
            Ok(())
        }
        _ => Err(usage.to_string()),
    }
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-replay: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}
