//! Command-line argument parsing for the `mpcgs` binary, as a library
//! module so every validation rule is unit-testable without spawning a
//! process.
//!
//! The original program is invoked as `./mpcgs <seqdata.phy> <init theta>`
//! (Section 5.1.1); this parser keeps that positional interface, accepts
//! *several* PHYLIP files for multi-locus runs, and adds flags for chain
//! sizing, sampler strategy, execution backend (including the simulated
//! accelerator, `--backend device` with `--device-spec kepler|modern`),
//! per-locus relative rates (`--rate <locus>=<r>`) and ensembles.

use std::path::Path;

use codec::Json;
use exec::{Backend, DeviceSpec};
use phylo::io::phylip::parse_phylip;
use phylo::likelihood::Kernel;
use phylo::{Dataset, Locus};

use crate::config::MpcgsConfig;
use crate::ensemble::{EnsembleSpec, ExchangePolicy};
use crate::serve::{JobSpec, ServeConfig};
use crate::session::SamplerStrategy;

/// Which exchange policy the CLI builds for a multi-chain run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Fully independent replicated chains.
    Independent,
    /// MC³ replica exchange on a geometric temperature ladder.
    Ladder,
}

/// Everything the command line configures.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// The PHYLIP input files, one locus each.
    pub phylip_paths: Vec<String>,
    /// The initial driving value θ₀ (last positional argument).
    pub initial_theta: f64,
    /// Retained genealogy samples per chain.
    pub samples: usize,
    /// Burn-in draws per chain.
    pub burn_in: usize,
    /// Proposals per Generalized-MH iteration.
    pub proposals: usize,
    /// EM iterations.
    pub em_iterations: usize,
    /// Host RNG seed.
    pub seed: u32,
    /// Sampler strategy.
    pub strategy: SamplerStrategy,
    /// Execution backend.
    pub backend: Backend,
    /// Likelihood combine kernel.
    pub kernel: Kernel,
    /// Number of chains per run (1 = single chain).
    pub chains: usize,
    /// Ensemble exchange policy, when given.
    pub exchange: Option<ExchangeKind>,
    /// Rounds between replica-exchange swap attempts (ladder only).
    pub swap_interval: Option<usize>,
    /// Temperature of the hottest ladder rung (ladder only; validated
    /// finite and > 1 at parse time).
    pub hottest: Option<f64>,
    /// Per-locus relative mutation rates (`--rate <locus>=<r>`), validated
    /// finite and > 0 at parse time; locus names are checked against the
    /// loaded dataset by [`apply_rates`].
    pub rates: Vec<(String, f64)>,
    /// Write a checkpoint every this many runner increments
    /// (`--checkpoint-every`; requires `--checkpoint-path`).
    pub checkpoint_every: Option<usize>,
    /// Where checkpoints are written (`--checkpoint-path`).
    pub checkpoint_path: Option<String>,
    /// Resume a run from this checkpoint file (`--resume`).
    pub resume: Option<String>,
}

/// Print the usage text to stderr.
pub fn print_usage() {
    eprintln!(
        "usage: mpcgs <seqdata.phy>... <init-theta> [options]\n\
         \n\
         Each PHYLIP file becomes one locus; several files run a multi-locus\n\
         estimation over their shared sequence names.\n\
         \n\
         options:\n\
           --samples <n>        retained genealogy samples per chain (default 10000)\n\
           --burn-in <n>        burn-in draws per chain (default 1000)\n\
           --proposals <n>      proposals per Generalized-MH iteration (default 32)\n\
           --em <n>             EM iterations (default 3)\n\
           --seed <n>           host RNG seed (default 20160401)\n\
           --strategy <name>    sampler strategy: gmh | baseline (default gmh)\n\
           --backend <name>     execution backend: serial | rayon | device (default rayon;\n\
                                device runs the simulated accelerator queue, reporting a\n\
                                measured host-vs-device cost breakdown)\n\
           --device-spec <name> device preset for --backend device: kepler | modern\n\
                                (default kepler)\n\
           --kernel <name>      likelihood combine kernel: scalar | simd | auto\n\
                                (default auto: probe the CPU at startup and use the\n\
                                AVX2+FMA combine loop when available)\n\
           --rate <locus>=<r>   relative mutation rate for one locus (repeatable; the\n\
                                locus name is the PHYLIP file stem; r finite and > 0)\n\
           --chains <n>         shard each run across n chains (default 1: single chain)\n\
           --exchange <name>    ensemble exchange policy: independent | ladder\n\
                                (default independent; ladder runs MC3 replica exchange\n\
                                on a geometric temperature ladder)\n\
           --swap-interval <n>  rounds between replica-exchange swap attempts\n\
                                (ladder only, default 10)\n\
           --hottest <t>        temperature of the hottest ladder rung (default 4.0;\n\
                                must be finite and > 1)\n\
           --checkpoint-every <n>  write a checkpoint every n sampler increments\n\
                                (requires --checkpoint-path; an increment is one kernel\n\
                                step, or one dispatch segment for an ensemble)\n\
           --checkpoint-path <file> where the checkpoint JSON is written (atomically\n\
                                replaced at each interval; resumable with --resume)\n\
           --resume <file>      continue bit-identically from a checkpoint written by\n\
                                --checkpoint-path (the run configuration must match)\n\
         \n\
         job-queue mode:\n\
           mpcgs serve <jobs.json | -> [--workers <n>] [--backend <name>] [--quantum <n>]\n\
         \n\
         Drains a queue of estimation jobs over a fixed worker pool, streaming\n\
         per-job progress. The spec file (or stdin, with \"-\") is a JSON document:\n\
           {{\"workers\": 4, \"backend\": \"rayon\", \"quantum\": 64,\n\
            \"jobs\": [{{\"name\": \"j0\", \"phylip\": [\"data.phy\"], \"theta\": 1.0,\n\
                      \"seed\": 7, \"samples\": 1000, \"burn_in\": 100, \"em\": 3,\n\
                      \"strategy\": \"gmh\", \"chains\": 1}}, ...]}}\n\
         Command-line --workers/--backend/--quantum override the file's values."
    );
}

/// Parse `--rate <locus>=<r>` syntax.
fn parse_rate(text: &str) -> Result<(String, f64), String> {
    let (name, value) = text.split_once('=').ok_or_else(|| {
        format!("--rate: expected <locus>=<rate>, got {text:?} (e.g. --rate locus1=2.0)")
    })?;
    if name.is_empty() {
        return Err(format!("--rate: empty locus name in {text:?}"));
    }
    let rate: f64 =
        value.parse().map_err(|_| format!("--rate: invalid rate {value:?} for locus {name:?}"))?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("--rate: rate for locus {name:?} must be finite and > 0, got {rate}"));
    }
    Ok((name.to_string(), rate))
}

/// Parse the command line (everything after the program name).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    // Leading positional arguments: one or more PHYLIP files, then theta.
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() && !args[i].starts_with("--") {
        positionals.push(args[i].clone());
        i += 1;
    }
    if positionals.len() < 2 {
        return Err("expected at least one PHYLIP file and an initial theta".to_string());
    }
    let theta_text = positionals.pop().expect("at least two positionals");
    let initial_theta: f64 =
        theta_text.parse().map_err(|_| format!("invalid initial theta {theta_text:?}"))?;
    let mut cli = CliArgs {
        phylip_paths: positionals,
        initial_theta,
        samples: 10_000,
        burn_in: 1_000,
        proposals: 32,
        em_iterations: 3,
        seed: 20_160_401,
        strategy: SamplerStrategy::MultiProposal,
        backend: Backend::Rayon,
        kernel: Kernel::Auto,
        chains: 1,
        exchange: None,
        swap_interval: None,
        hottest: None,
        rates: Vec::new(),
        checkpoint_every: None,
        checkpoint_path: None,
        resume: None,
    };
    let mut device_spec: Option<String> = None;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take_value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        match flag {
            "--samples" => {
                cli.samples =
                    take_value("--samples")?.parse().map_err(|e| format!("--samples: {e}"))?
            }
            "--burn-in" => {
                cli.burn_in =
                    take_value("--burn-in")?.parse().map_err(|e| format!("--burn-in: {e}"))?
            }
            "--proposals" => {
                cli.proposals =
                    take_value("--proposals")?.parse().map_err(|e| format!("--proposals: {e}"))?
            }
            "--em" => {
                cli.em_iterations = take_value("--em")?.parse().map_err(|e| format!("--em: {e}"))?
            }
            "--seed" => {
                cli.seed = take_value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--strategy" => {
                cli.strategy = match take_value("--strategy")?.to_ascii_lowercase().as_str() {
                    "gmh" | "multiproposal" | "multi-proposal" => SamplerStrategy::MultiProposal,
                    "baseline" | "lamarc" => SamplerStrategy::Baseline,
                    other => {
                        return Err(format!(
                            "unknown strategy {other:?} (expected \"gmh\" or \"baseline\")"
                        ))
                    }
                }
            }
            "--backend" => cli.backend = take_value("--backend")?.parse::<Backend>()?,
            "--device-spec" => device_spec = Some(take_value("--device-spec")?),
            "--kernel" => cli.kernel = take_value("--kernel")?.parse::<Kernel>()?,
            "--rate" => cli.rates.push(parse_rate(&take_value("--rate")?)?),
            "--chains" => {
                cli.chains =
                    take_value("--chains")?.parse().map_err(|e| format!("--chains: {e}"))?;
                if cli.chains == 0 {
                    return Err("--chains: 0 chains cannot sample anything; pass 1 for a \
                                single chain or n > 1 for an ensemble"
                        .to_string());
                }
            }
            "--exchange" => {
                cli.exchange = match take_value("--exchange")?.to_ascii_lowercase().as_str() {
                    "independent" => Some(ExchangeKind::Independent),
                    "ladder" | "temperature-ladder" | "mc3" => Some(ExchangeKind::Ladder),
                    other => {
                        return Err(format!(
                            "unknown exchange policy {other:?} (expected \"independent\" or \
                             \"ladder\")"
                        ))
                    }
                }
            }
            "--swap-interval" => {
                cli.swap_interval = Some(
                    take_value("--swap-interval")?
                        .parse()
                        .map_err(|e| format!("--swap-interval: {e}"))?,
                )
            }
            "--hottest" => {
                let hottest: f64 =
                    take_value("--hottest")?.parse().map_err(|e| format!("--hottest: {e}"))?;
                if !(hottest.is_finite() && hottest > 1.0) {
                    return Err(format!(
                        "--hottest: the hottest rung must be finite and > 1 (a ladder that \
                         never heats is not a ladder), got {hottest}"
                    ));
                }
                cli.hottest = Some(hottest);
            }
            "--checkpoint-every" => {
                let every: usize = take_value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if every == 0 {
                    return Err("--checkpoint-every: the interval must be at least 1 \
                                increment"
                        .to_string());
                }
                cli.checkpoint_every = Some(every);
            }
            "--checkpoint-path" => cli.checkpoint_path = Some(take_value("--checkpoint-path")?),
            "--resume" => cli.resume = Some(take_value("--resume")?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    if cli.checkpoint_every.is_some() && cli.checkpoint_path.is_none() {
        return Err("--checkpoint-every requires --checkpoint-path (somewhere to write the \
             checkpoint)"
            .to_string());
    }
    // Resolve the device preset into the backend.
    if let Some(preset) = device_spec {
        if !cli.backend.is_device() {
            return Err("--device-spec only applies with --backend device".to_string());
        }
        let spec = DeviceSpec::from_preset(&preset).ok_or_else(|| {
            format!("--device-spec: unknown preset {preset:?} (expected \"kepler\" or \"modern\")")
        })?;
        cli.backend = Backend::device(spec);
    }
    // Ensemble flags only act when more than one chain runs — reject
    // combinations the run would otherwise silently ignore.
    if cli.chains <= 1 {
        if cli.exchange.is_some() {
            return Err("--exchange requires --chains > 1".to_string());
        }
        if cli.swap_interval.is_some() || cli.hottest.is_some() {
            return Err(
                "--swap-interval/--hottest require --chains > 1 and --exchange ladder".to_string()
            );
        }
    } else if cli.exchange != Some(ExchangeKind::Ladder)
        && (cli.swap_interval.is_some() || cli.hottest.is_some())
    {
        return Err("--swap-interval/--hottest only apply with --exchange ladder".to_string());
    }
    Ok(cli)
}

impl CliArgs {
    /// The exchange policy of a multi-chain run (`None` when a single chain
    /// runs). Ladder construction validates the temperature span.
    pub fn exchange_policy(&self) -> Result<Option<ExchangePolicy>, String> {
        if self.chains <= 1 {
            return Ok(None);
        }
        let policy = match self.exchange.unwrap_or(ExchangeKind::Independent) {
            ExchangeKind::Independent => ExchangePolicy::Independent,
            ExchangeKind::Ladder => ExchangePolicy::geometric_ladder(
                self.chains,
                self.hottest.unwrap_or(4.0),
                self.swap_interval.unwrap_or(10),
            )
            .map_err(|e| format!("invalid temperature ladder: {e}"))?,
        };
        Ok(Some(policy))
    }

    /// The ensemble specification of a multi-chain run (`None` when a single
    /// chain runs).
    pub fn ensemble_spec(&self) -> Result<Option<EnsembleSpec>, String> {
        Ok(self.exchange_policy()?.map(|exchange| EnsembleSpec {
            n_chains: self.chains,
            exchange,
            ensemble_seed: self.seed as u64,
            ..EnsembleSpec::default()
        }))
    }
}

/// Load every PHYLIP file as one locus of a shared [`Dataset`]; the locus
/// name is the file stem.
pub fn load_dataset(paths: &[String]) -> Result<Dataset, String> {
    let mut loci = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let alignment =
            parse_phylip(&text).map_err(|e| format!("cannot parse PHYLIP input {path}: {e}"))?;
        let name = Path::new(path)
            .file_stem()
            .map(|stem| stem.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        loci.push(Locus::new(name, alignment));
    }
    Dataset::new(loci).map_err(|e| format!("inconsistent loci: {e}"))
}

/// Apply `--rate <locus>=<r>` assignments to a loaded dataset. Unknown locus
/// names are rejected (listing the names that exist), repeated assignments
/// take the last value, loci without an assignment keep rate 1.
pub fn apply_rates(dataset: Dataset, rates: &[(String, f64)]) -> Result<Dataset, String> {
    if rates.is_empty() {
        return Ok(dataset);
    }
    let known: Vec<String> = dataset.loci().iter().map(|l| l.name().to_string()).collect();
    for (name, _) in rates {
        if !known.iter().any(|k| k == name) {
            return Err(format!(
                "--rate: unknown locus {name:?} (loaded loci: {})",
                known.join(", ")
            ));
        }
    }
    let loci = dataset
        .loci()
        .iter()
        .map(|locus| {
            let rate = rates
                .iter()
                .rev()
                .find(|(name, _)| name == locus.name())
                .map(|&(_, rate)| rate)
                .unwrap_or_else(|| locus.relative_rate());
            Locus::with_rate(locus.name(), locus.alignment().clone(), rate)
                .map_err(|e| format!("--rate: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Dataset::new(loci).map_err(|e| format!("inconsistent loci: {e}"))
}

/// Everything `mpcgs serve` configures from its command line (the job specs
/// themselves come from the spec file).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// The job spec file path, or `"-"` for stdin.
    pub job_path: String,
    /// `--workers` override (file value or default 1 otherwise).
    pub workers: Option<usize>,
    /// `--backend` override for the worker pool dispatch.
    pub backend: Option<Backend>,
    /// `--quantum` override (runner increments per scheduling slice).
    pub quantum: Option<usize>,
}

/// Parse the arguments after `mpcgs serve`.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut serve =
        ServeArgs { job_path: String::new(), workers: None, backend: None, quantum: None };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take_value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        match flag {
            "--workers" => {
                let workers: usize =
                    take_value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers: the pool needs at least one worker".to_string());
                }
                serve.workers = Some(workers);
            }
            "--backend" => serve.backend = Some(take_value("--backend")?.parse::<Backend>()?),
            "--quantum" => {
                let quantum: usize =
                    take_value("--quantum")?.parse().map_err(|e| format!("--quantum: {e}"))?;
                if quantum == 0 {
                    return Err("--quantum: a scheduling slice must cover at least one \
                                increment"
                        .to_string());
                }
                serve.quantum = Some(quantum);
            }
            other if other.starts_with("--") => {
                return Err(format!("serve: unknown option {other:?}"))
            }
            positional if serve.job_path.is_empty() => serve.job_path = positional.to_string(),
            extra => return Err(format!("serve: unexpected argument {extra:?}")),
        }
        i += 1;
    }
    if serve.job_path.is_empty() {
        return Err("serve: expected a job spec file (or \"-\" for stdin)".to_string());
    }
    Ok(serve)
}

fn job_field_usize(job: &Json, key: &str, default: usize, name: &str) -> Result<usize, String> {
    match job.get(key) {
        None => Ok(default),
        Some(value) => {
            let x = value
                .as_f64()
                // mpcgs-analyze: allow(d5, reason = "integrality validation: fract() of a JSON-decoded count is exactly 0.0 iff the value is an integer")
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .ok_or_else(|| format!("job {name:?}: {key:?} must be a non-negative integer"))?;
            Ok(x as usize)
        }
    }
}

/// Parse a serve job spec document (see [`print_usage`] for the shape) into
/// the pool configuration and the fully loaded jobs. `overrides` (the
/// command-line `--workers`/`--backend`/`--quantum`) win over the file's
/// top-level values; PHYLIP paths are loaded relative to the working
/// directory.
pub fn parse_job_file(
    text: &str,
    overrides: &ServeArgs,
) -> Result<(ServeConfig, Vec<JobSpec>), String> {
    let doc = Json::parse(text).map_err(|e| format!("job spec file is not valid JSON: {e}"))?;
    let mut config = ServeConfig::default();
    if let Some(workers) = doc.get("workers") {
        config.workers = workers
            .as_f64()
            // mpcgs-analyze: allow(d5, reason = "integrality validation: fract() of a JSON-decoded count is exactly 0.0 iff the value is an integer")
            .filter(|x| *x >= 1.0 && x.fract() == 0.0)
            .ok_or("job spec: \"workers\" must be a positive integer")?
            as usize;
    }
    if let Some(backend) = doc.get("backend") {
        config.backend = backend
            .as_str()
            .ok_or("job spec: \"backend\" must be a string")?
            .parse::<Backend>()
            .map_err(|e| format!("job spec: {e}"))?;
    }
    if let Some(quantum) = doc.get("quantum") {
        config.quantum = quantum
            .as_f64()
            // mpcgs-analyze: allow(d5, reason = "integrality validation: fract() of a JSON-decoded count is exactly 0.0 iff the value is an integer")
            .filter(|x| *x >= 1.0 && x.fract() == 0.0)
            .ok_or("job spec: \"quantum\" must be a positive integer")?
            as usize;
    }
    if let Some(workers) = overrides.workers {
        config.workers = workers;
    }
    if let Some(backend) = overrides.backend {
        config.backend = backend;
    }
    if let Some(quantum) = overrides.quantum {
        config.quantum = quantum;
    }

    let jobs_json = doc
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or("job spec: expected a top-level \"jobs\" array")?;
    let mut jobs = Vec::with_capacity(jobs_json.len());
    for (k, job) in jobs_json.iter().enumerate() {
        let name = match job.get("name").and_then(Json::as_str) {
            Some(name) => name.to_string(),
            None => format!("job-{k}"),
        };
        let phylip: Vec<String> = job
            .get("phylip")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("job {name:?}: expected a \"phylip\" array of file paths"))?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("job {name:?}: \"phylip\" entries must be strings"))
            })
            .collect::<Result<_, _>>()?;
        let theta = job
            .get("theta")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("job {name:?}: expected a numeric \"theta\""))?;
        if !(theta.is_finite() && theta > 0.0) {
            return Err(format!("job {name:?}: theta must be finite and > 0, got {theta}"));
        }
        let dataset = load_dataset(&phylip).map_err(|e| format!("job {name:?}: {e}"))?;
        let proposals = job_field_usize(job, "proposals", 32, &name)?;
        // Jobs default to the serial backend — the pool supplies the
        // parallelism; per-job "backend" opts into nested dispatch.
        let mut job_backend = Backend::Serial;
        if let Some(backend) = job.get("backend") {
            job_backend = backend
                .as_str()
                .ok_or_else(|| format!("job {name:?}: \"backend\" must be a string"))?
                .parse::<Backend>()
                .map_err(|e| format!("job {name:?}: {e}"))?;
        }
        let mpcgs_config = MpcgsConfig {
            initial_theta: theta,
            em_iterations: job_field_usize(job, "em", 3, &name)?,
            proposals_per_iteration: proposals,
            draws_per_iteration: proposals,
            burn_in_draws: job_field_usize(job, "burn_in", 1_000, &name)?,
            sample_draws: job_field_usize(job, "samples", 10_000, &name)?,
            backend: job_backend,
            ..MpcgsConfig::default()
        };
        let strategy = match job.get("strategy").and_then(Json::as_str) {
            None | Some("gmh") => SamplerStrategy::MultiProposal,
            Some("baseline") => SamplerStrategy::Baseline,
            Some(other) => {
                return Err(format!(
                    "job {name:?}: unknown strategy {other:?} (expected \"gmh\" or \"baseline\")"
                ))
            }
        };
        let chains = job_field_usize(job, "chains", 1, &name)?;
        let ensemble = if chains > 1 {
            let exchange = match job.get("exchange").and_then(Json::as_str) {
                None | Some("independent") => ExchangePolicy::Independent,
                Some("ladder") => ExchangePolicy::geometric_ladder(
                    chains,
                    job.get("hottest").and_then(Json::as_f64).unwrap_or(4.0),
                    job_field_usize(job, "swap_interval", 10, &name)?,
                )
                .map_err(|e| format!("job {name:?}: invalid temperature ladder: {e}"))?,
                Some(other) => {
                    return Err(format!(
                        "job {name:?}: unknown exchange policy {other:?} (expected \
                         \"independent\" or \"ladder\")"
                    ))
                }
            };
            Some(EnsembleSpec {
                n_chains: chains,
                exchange,
                ensemble_seed: job_field_usize(job, "seed", 20_160_401, &name)? as u64,
                ..EnsembleSpec::default()
            })
        } else {
            None
        };
        let mut spec = JobSpec::new(name.clone(), dataset, mpcgs_config, 0);
        spec.seed = u32::try_from(job_field_usize(job, "seed", 20_160_401, &name)?)
            .map_err(|_| format!("job {name:?}: seed does not fit in 32 bits"))?;
        spec.strategy = strategy;
        spec.ensemble = ensemble;
        jobs.push(spec);
    }
    Ok((config, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::Alignment;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn parse(line: &str) -> Result<CliArgs, String> {
        parse_args(&argv(line))
    }

    #[test]
    fn positional_interface_and_defaults() {
        let cli = parse("a.phy b.phy 0.5").unwrap();
        assert_eq!(cli.phylip_paths, vec!["a.phy", "b.phy"]);
        assert_eq!(cli.initial_theta, 0.5);
        assert_eq!(cli.chains, 1);
        assert_eq!(cli.backend, Backend::Rayon);
        assert!(cli.rates.is_empty());
        assert!(cli.ensemble_spec().unwrap().is_none());
        assert!(parse("a.phy").is_err());
        assert!(parse("a.phy x").is_err());
    }

    #[test]
    fn zero_chains_is_rejected_at_parse_time() {
        let err = parse("a.phy 1.0 --chains 0").unwrap_err();
        assert!(err.contains("--chains"), "unhelpful error: {err}");
        assert!(err.contains("0 chains"), "error should name the problem: {err}");
    }

    #[test]
    fn hottest_must_be_finite_and_above_one() {
        for bad in ["1.0", "0.5", "-2", "nan", "inf"] {
            let err = parse(&format!("a.phy 1.0 --chains 4 --exchange ladder --hottest {bad}"))
                .unwrap_err();
            assert!(err.contains("--hottest"), "unhelpful error for {bad}: {err}");
        }
        let cli = parse("a.phy 1.0 --chains 4 --exchange ladder --hottest 8.0").unwrap();
        let spec = cli.ensemble_spec().unwrap().unwrap();
        assert_eq!(spec.n_chains, 4);
        spec.validate().unwrap();
    }

    #[test]
    fn ladder_flags_require_a_ladder_ensemble() {
        assert!(parse("a.phy 1.0 --exchange ladder").is_err());
        assert!(parse("a.phy 1.0 --hottest 4.0").is_err());
        assert!(parse("a.phy 1.0 --chains 4 --hottest 4.0").is_err());
        assert!(parse("a.phy 1.0 --chains 4 --exchange independent --swap-interval 5").is_err());
        let cli = parse("a.phy 1.0 --chains 4 --exchange ladder --swap-interval 5").unwrap();
        assert!(matches!(
            cli.exchange_policy().unwrap(),
            Some(ExchangePolicy::TemperatureLadder { swap_interval: 5, .. })
        ));
    }

    #[test]
    fn rates_round_trip_through_the_parser() {
        let cli = parse("a.phy b.phy 1.0 --rate a=2.0 --rate b=0.25").unwrap();
        assert_eq!(cli.rates, vec![("a".to_string(), 2.0), ("b".to_string(), 0.25)]);
        // Malformed and degenerate rates are rejected with pointed errors.
        for bad in ["a", "=2.0", "a=", "a=zero", "a=0", "a=-1", "a=nan", "a=inf"] {
            let err = parse(&format!("a.phy 1.0 --rate {bad}")).unwrap_err();
            assert!(err.contains("--rate"), "unhelpful error for {bad:?}: {err}");
        }
    }

    #[test]
    fn rates_apply_to_known_loci_and_reject_unknown_names() {
        let alignment = Alignment::from_letters(&[("x", "ACGT"), ("y", "ACGA")]).unwrap();
        let dataset = Dataset::new(vec![
            Locus::new("a", alignment.clone()),
            Locus::new("b", alignment.clone()),
        ])
        .unwrap();
        let rated = apply_rates(dataset.clone(), &[("b".to_string(), 2.0), ("b".to_string(), 3.0)])
            .unwrap();
        assert_eq!(rated.locus(0).relative_rate(), 1.0);
        assert_eq!(rated.locus(1).relative_rate(), 3.0); // last assignment wins
        let err = apply_rates(dataset.clone(), &[("c".to_string(), 2.0)]).unwrap_err();
        assert!(err.contains("unknown locus") && err.contains("a, b"), "{err}");
        // No rates: the dataset passes through untouched.
        assert_eq!(apply_rates(dataset.clone(), &[]).unwrap(), dataset);
    }

    #[test]
    fn device_spec_requires_the_device_backend() {
        let err = parse("a.phy 1.0 --device-spec kepler").unwrap_err();
        assert!(err.contains("--backend device"), "{err}");
    }

    #[test]
    fn device_backend_and_presets_parse() {
        let cli = parse("a.phy 1.0 --backend device").unwrap();
        assert_eq!(cli.backend.device_spec(), Some(DeviceSpec::kepler()));
        let cli = parse("a.phy 1.0 --backend device --device-spec modern").unwrap();
        assert_eq!(cli.backend.device_spec(), Some(DeviceSpec::modern()));
        // Order does not matter.
        let cli = parse("a.phy 1.0 --device-spec modern --backend device").unwrap();
        assert_eq!(cli.backend.device_spec(), Some(DeviceSpec::modern()));
        assert!(parse("a.phy 1.0 --backend device --device-spec tpu").is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse("a.phy 1.0 --frobnicate").is_err());
        assert!(parse("a.phy 1.0 --samples").is_err()); // missing value
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let cli = parse("a.phy 1.0 --checkpoint-every 50 --checkpoint-path run.ckpt").unwrap();
        assert_eq!(cli.checkpoint_every, Some(50));
        assert_eq!(cli.checkpoint_path.as_deref(), Some("run.ckpt"));
        assert!(cli.resume.is_none());

        let cli = parse("a.phy 1.0 --resume run.ckpt").unwrap();
        assert_eq!(cli.resume.as_deref(), Some("run.ckpt"));

        let err = parse("a.phy 1.0 --checkpoint-every 50").unwrap_err();
        assert!(err.contains("--checkpoint-path"), "unpointed error: {err}");
        let err = parse("a.phy 1.0 --checkpoint-every 0 --checkpoint-path x").unwrap_err();
        assert!(err.contains("--checkpoint-every"), "unpointed error: {err}");
    }

    #[test]
    fn serve_args_parse_with_overrides() {
        let serve =
            parse_serve_args(&argv("jobs.json --workers 4 --backend rayon --quantum 16")).unwrap();
        assert_eq!(serve.job_path, "jobs.json");
        assert_eq!(serve.workers, Some(4));
        assert_eq!(serve.backend, Some(Backend::Rayon));
        assert_eq!(serve.quantum, Some(16));

        let stdin = parse_serve_args(&argv("-")).unwrap();
        assert_eq!(stdin.job_path, "-");
        assert!(stdin.workers.is_none());

        assert!(parse_serve_args(&argv("")).is_err());
        assert!(parse_serve_args(&argv("jobs.json extra.json")).is_err());
        assert!(parse_serve_args(&argv("jobs.json --workers 0")).is_err());
        assert!(parse_serve_args(&argv("jobs.json --quantum 0")).is_err());
        assert!(parse_serve_args(&argv("jobs.json --frobnicate")).is_err());
    }

    #[test]
    fn job_files_parse_with_defaults_and_pointed_errors() {
        let dir = std::env::temp_dir().join("mpcgs-cli-jobfile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let phy = dir.join("tiny.phy");
        std::fs::write(&phy, " 4 8\nseq_a     ACGTACGT\nseq_b     ACGTACGA\nseq_c     ACGAACGT\nseq_d     TCGTACGT\n").unwrap();
        let phy = phy.to_string_lossy().into_owned();

        let no_overrides =
            ServeArgs { job_path: "-".to_string(), workers: None, backend: None, quantum: None };
        let text = format!(
            r#"{{"workers": 3, "quantum": 8,
                "jobs": [
                  {{"name": "plain", "phylip": ["{phy}"], "theta": 0.5,
                    "samples": 64, "burn_in": 16, "em": 1, "seed": 9}},
                  {{"phylip": ["{phy}"], "theta": 1.0, "chains": 2, "exchange": "ladder",
                    "hottest": 2.0, "swap_interval": 5, "strategy": "baseline"}}
                ]}}"#
        );
        let (config, jobs) = parse_job_file(&text, &no_overrides).unwrap();
        assert_eq!(config.workers, 3);
        assert_eq!(config.quantum, 8);
        assert_eq!(config.backend, Backend::Serial);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "plain");
        assert_eq!(jobs[0].seed, 9);
        assert_eq!(jobs[0].config.sample_draws, 64);
        assert_eq!(jobs[0].config.initial_theta, 0.5);
        assert!(jobs[0].ensemble.is_none());
        assert_eq!(jobs[1].name, "job-1"); // unnamed jobs get an index name
        assert_eq!(jobs[1].strategy, SamplerStrategy::Baseline);
        let spec = jobs[1].ensemble.as_ref().unwrap();
        assert_eq!(spec.n_chains, 2);
        spec.validate().unwrap();

        // Command-line overrides win over the file.
        let overrides = ServeArgs {
            job_path: "-".to_string(),
            workers: Some(7),
            backend: Some(Backend::Rayon),
            quantum: Some(2),
        };
        let (config, _) = parse_job_file(&text, &overrides).unwrap();
        assert_eq!((config.workers, config.backend, config.quantum), (7, Backend::Rayon, 2));

        // Pointed errors name the job and the field.
        let err = parse_job_file(r#"{"jobs": [{"name": "x", "theta": 1.0}]}"#, &no_overrides)
            .unwrap_err();
        assert!(err.contains("\"x\"") && err.contains("phylip"), "unpointed error: {err}");
        let err =
            parse_job_file(&format!(r#"{{"jobs": [{{"phylip": ["{phy}"]}}]}}"#), &no_overrides)
                .unwrap_err();
        assert!(err.contains("theta"), "unpointed error: {err}");
        assert!(parse_job_file("not json", &no_overrides).is_err());
        assert!(parse_job_file("{}", &no_overrides).is_err());
    }
}
