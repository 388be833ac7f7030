//! In-process replay of each workload through the public `mpcgs` API.
//!
//! The replay builds the same [`Session`] the binary builds from the same
//! generated files, drives it through a [`SessionRunner`] one increment at a
//! time, and records what the binary does not print: the retained
//! genealogies' waiting statistics (for ESS and the Eq. 26 check), the final
//! genealogy and the last trace value (for the pruning check). With tracing
//! on, every call into a layer is wrapped in a [`Tracer`] span.

use std::path::Path;
use std::sync::{Arc, Mutex};

use codec::Json;
use mpcgs::cli::{parse_job_file, ServeArgs};
use mpcgs::{
    Backend, EmUpdate, EnsembleSpec, JobSpec, MpcgsConfig, RunCounters, RunObserver, RunReport,
    SamplerStrategy, Session, SessionCheckpoint, SessionRunner,
};
use phylo::io::phylip::parse_phylip;
use phylo::likelihood::ExecutionMode;
use phylo::{CoalescentIntervals, Dataset, GeneTree, Locus};

use crate::indep::{self, PruneTree};
use crate::trace::Tracer;

/// The host seed the `mpcgs` CLI uses when no `--seed` is given.
pub const CLI_DEFAULT_SEED: u32 = 20_160_401;

/// What the replay keeps from the end of one chain.
#[derive(Debug, Clone)]
pub struct ChainEnd {
    /// `W = Σ k(k−1)t` of each retained genealogy.
    pub waiting: Vec<f64>,
    /// Coalescences of each retained genealogy.
    pub coalescences: Vec<f64>,
    /// The chain's final genealogy.
    pub final_tree: GeneTree,
    /// The last `ln P(D|G)` of the chain's trace.
    pub last_trace: f64,
    /// Interval summaries, kept only when the traced replay times the
    /// maximisation on them.
    pub summaries: Option<Vec<CoalescentIntervals>>,
}

#[derive(Default)]
struct Record {
    keep_summaries: bool,
    rows: Vec<EmUpdate>,
    chains: Vec<ChainEnd>,
}

struct Recorder(Arc<Mutex<Record>>);

impl RunObserver for Recorder {
    fn on_em_update(&mut self, update: &EmUpdate) {
        self.0.lock().expect("recorder").rows.push(*update);
    }

    fn on_chain_end(&mut self, report: &RunReport) {
        let mut record = self.0.lock().expect("recorder");
        let summaries = record.keep_summaries.then(|| report.interval_summaries());
        record.chains.push(ChainEnd {
            waiting: report.samples.iter().map(|s| s.intervals.waiting_statistic()).collect(),
            coalescences: report
                .samples
                .iter()
                .map(|s| s.intervals.n_coalescences() as f64)
                .collect(),
            final_tree: report.final_tree.clone(),
            last_trace: report.trace.all().last().copied().unwrap_or(f64::NAN),
            summaries,
        });
    }
}

/// One estimation to replay: everything a [`Session`] is built from.
#[derive(Clone)]
pub struct EstimationSpec {
    /// The loaded dataset.
    pub dataset: Dataset,
    /// The sampler strategy.
    pub strategy: SamplerStrategy,
    /// The configuration.
    pub config: MpcgsConfig,
    /// Site-level execution mode.
    pub execution: ExecutionMode,
    /// The ensemble, when the run is sharded.
    pub ensemble: Option<EnsembleSpec>,
    /// The host seed.
    pub seed: u32,
}

/// Checkpoint figures of one replayed run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointFigures {
    /// Seconds per `SessionRunner::checkpoint`.
    pub capture: Vec<f64>,
    /// Encoding rate of each checkpoint, MB/s.
    pub encode_mb_per_s: Vec<f64>,
    /// Largest checkpoint, bytes.
    pub bytes_max: usize,
    /// The last checkpoint's text.
    pub last: Option<String>,
}

/// The outcome of one replayed estimation.
pub struct Estimation {
    /// One entry per EM round.
    pub rows: Vec<EmUpdate>,
    /// One entry per chain per EM round, in the order chains ended.
    pub chains: Vec<ChainEnd>,
    /// The final θ̂.
    pub theta: f64,
    /// Wall seconds of the whole estimation, build included.
    pub seconds: f64,
    /// Checkpoint figures (empty when no checkpoints were taken).
    pub checkpoints: CheckpointFigures,
    /// Work counters of each EM round (pooled over an ensemble's chains).
    pub round_counters: Vec<RunCounters>,
}

/// Parse PHYLIP files into a dataset the way the CLI does (locus name = file
/// stem).
pub fn load_dataset(tr: &mut Tracer, paths: &[String]) -> Result<Dataset, String> {
    let mut loci = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let alignment = tr
            .span("phylo.io.parse", || parse_phylip(&text))
            .map_err(|e| format!("cannot parse {path}: {e}"))?;
        let stem = Path::new(path).file_stem().map(|s| s.to_string_lossy().into_owned());
        loci.push(Locus::new(stem.unwrap_or_else(|| path.clone()), alignment));
    }
    Dataset::new(loci).map_err(|e| format!("inconsistent loci: {e}"))
}

/// Build the session the spec describes, with a recorder attached.
fn build_session(spec: &EstimationSpec, record: &Arc<Mutex<Record>>) -> Result<Session, String> {
    let mut builder = Session::builder()
        .dataset(spec.dataset.clone())
        .strategy(spec.strategy)
        .config(spec.config)
        .execution(spec.execution)
        .observe(Recorder(Arc::clone(record)));
    if let Some(ensemble) = &spec.ensemble {
        builder = builder.ensemble(ensemble.clone());
    }
    builder.build().map_err(|e| format!("invalid configuration: {e}"))
}

/// Build a fresh runner for `spec` (no recorder events are kept).
pub fn build_runner(spec: &EstimationSpec) -> Result<SessionRunner, String> {
    let record = Arc::new(Mutex::new(Record::default()));
    build_session(spec, &record)?.into_runner(spec.seed).map_err(|e| e.to_string())
}

/// Resume `spec` from a checkpoint (the session build is not part of the
/// returned duration).
pub fn time_resume(spec: &EstimationSpec, checkpoint: &SessionCheckpoint) -> Result<f64, String> {
    let record = Arc::new(Mutex::new(Record::default()));
    let session = build_session(spec, &record)?;
    let start = std::time::Instant::now();
    let runner = session.resume(checkpoint).map_err(|e| format!("cannot resume: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    drop(runner);
    Ok(seconds)
}

/// Replay one estimation to its end. `checkpoint_every` mirrors the CLI's
/// `--checkpoint-every`: after every that many increments (unless the run
/// finished) the runner is checkpointed, encoded and written to
/// `checkpoint_path` through a temp file and a rename.
pub fn run_estimation(
    tr: &mut Tracer,
    spec: &EstimationSpec,
    checkpoint_every: Option<usize>,
    checkpoint_path: Option<&Path>,
    keep_summaries: bool,
) -> Result<Estimation, String> {
    let start = std::time::Instant::now();
    let record = Arc::new(Mutex::new(Record { keep_summaries, ..Record::default() }));
    let build = tr.enter("mpcgs.session.build");
    let mut runner = build_session(spec, &record)?
        .into_runner(spec.seed)
        .map_err(|e| format!("estimation failed to start: {e}"))?;
    tr.exit(build, None);
    let step_name =
        if spec.ensemble.is_some() { "mpcgs.ensemble.segment" } else { "mpcgs.session.step" };
    let mut checkpoints = CheckpointFigures::default();
    let mut increments = 0usize;
    loop {
        let rounds_before = record.lock().expect("recorder").rows.len();
        let id = tr.enter(step_name);
        let finished = runner.step().map_err(|e| format!("estimation failed: {e}"))?;
        let closed = record.lock().expect("recorder").rows.len() > rounds_before;
        tr.exit(id, closed.then_some("mpcgs.session.round_close"));
        if finished {
            break;
        }
        increments += 1;
        if let (Some(every), Some(path)) = (checkpoint_every, checkpoint_path) {
            if increments.is_multiple_of(every) {
                let t0 = std::time::Instant::now();
                let frozen = tr
                    .span("mpcgs.checkpoint.capture", || runner.checkpoint())
                    .map_err(|e| format!("checkpoint failed: {e}"))?;
                let t1 = std::time::Instant::now();
                let text = tr.span("mpcgs.checkpoint.encode", || frozen.to_pretty());
                let t2 = std::time::Instant::now();
                tr.span("mpcgs.checkpoint.write", || write_atomically(path, &text))?;
                checkpoints.capture.push((t1 - t0).as_secs_f64());
                checkpoints
                    .encode_mb_per_s
                    .push(text.len() as f64 / 1e6 / (t2 - t1).as_secs_f64().max(1e-9));
                checkpoints.bytes_max = checkpoints.bytes_max.max(text.len());
                checkpoints.last = Some(text);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let report = runner.report().ok_or("finished runner without a report")?;
    let round_counters = report.iterations.iter().map(|round| round.counters).collect();
    let record = std::mem::take(&mut *record.lock().expect("recorder"));
    Ok(Estimation {
        rows: record.rows,
        chains: record.chains,
        theta: report.theta,
        seconds,
        checkpoints,
        round_counters,
    })
}

fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalise {}: {e}", path.display()))
}

/// The CLI's configuration for the given sizing (default flags otherwise).
pub fn cli_config(theta: f64, samples: usize, burn_in: usize, em: usize) -> MpcgsConfig {
    MpcgsConfig {
        initial_theta: theta,
        em_iterations: em,
        proposals_per_iteration: 32,
        draws_per_iteration: 32,
        burn_in_draws: burn_in,
        sample_draws: samples,
        backend: Backend::Rayon,
        ..MpcgsConfig::default()
    }
}

/// A CLI estimation over `files` with the given sizing.
pub fn cli_spec(dataset: Dataset, config: MpcgsConfig) -> EstimationSpec {
    EstimationSpec {
        dataset,
        strategy: SamplerStrategy::MultiProposal,
        config,
        // The CLI mirrors its default rayon backend into site parallelism.
        execution: ExecutionMode::Parallel,
        ensemble: None,
        seed: CLI_DEFAULT_SEED,
    }
}

/// The spec a serve job runs under, exactly as the job queue builds it.
pub fn job_spec(job: &JobSpec) -> EstimationSpec {
    EstimationSpec {
        dataset: job.dataset.clone(),
        strategy: job.strategy,
        config: job.config,
        execution: ExecutionMode::Serial,
        ensemble: job.ensemble.clone(),
        seed: job.seed,
    }
}

/// Parse a serve spec file the way `mpcgs serve` does.
pub fn load_jobs(spec_path: &str) -> Result<(mpcgs::ServeConfig, Vec<JobSpec>), String> {
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let args =
        ServeArgs { job_path: spec_path.to_string(), workers: None, backend: None, quantum: None };
    parse_job_file(&text, &args)
}

/// The CLI's table row at printed precision: iteration, driving θ, θ̂,
/// move rate, mean ln P(D|G).
pub fn printed_row(update: &EmUpdate) -> Vec<String> {
    vec![
        format!("{}", update.iteration + 1),
        format!("{:.6}", update.driving_theta),
        format!("{:.6}", update.estimate),
        format!("{:.3}", update.acceptance_rate),
        format!("{:.3}", update.mean_log_data_likelihood),
    ]
}

/// ESS of the waiting statistic, summed over EM rounds and over the chains
/// whose samples the estimate uses (`cold`: one flag per chain of a round).
pub fn ess_total(est: &Estimation, cold: &[bool]) -> f64 {
    est.chains
        .chunks(cold.len())
        .flat_map(|round| round.iter().zip(cold).filter(|(_, &c)| c).map(|(chain, _)| chain))
        .map(|chain| indep::ess(&chain.waiting))
        .sum()
}

/// Check R2 on a single-chain estimation: every round's θ̂ is the maximiser
/// of Eq. 26 recomputed from the round's (coalescences, W) pairs. Returns
/// the largest relative deviation.
pub fn eq26_deviation(est: &Estimation) -> f64 {
    est.rows
        .iter()
        .zip(&est.chains)
        .map(|(row, chain)| {
            let stats: Vec<(f64, f64)> =
                chain.coalescences.iter().copied().zip(chain.waiting.iter().copied()).collect();
            let best = indep::maximise_relative_likelihood(row.driving_theta, &stats);
            (row.estimate / best - 1.0).abs()
        })
        .fold(0.0, f64::max)
}

/// Read a PHYLIP file written by the generator: names and base-index rows.
pub fn read_rows(path: &str) -> Result<(Vec<String>, Vec<Vec<u8>>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut names = Vec::new();
    let mut rows = Vec::new();
    for line in text.lines().skip(1).filter(|l| !l.trim().is_empty()) {
        let mut fields = line.split_whitespace();
        let name = fields.next().ok_or("missing name")?;
        let seq = fields.next().ok_or("missing sequence")?;
        let row = seq
            .chars()
            .map(|c| crate::sim::BASES.iter().position(|&b| b == c).map(|i| i as u8))
            .collect::<Option<Vec<u8>>>()
            .ok_or_else(|| format!("unexpected base in {path}"))?;
        names.push(name.to_string());
        rows.push(row);
    }
    Ok((names, rows))
}

/// Convert a genealogy into the independent pruning representation, mapping
/// tips to alignment rows by name.
pub fn prune_tree(tree: &GeneTree, names: &[String]) -> Result<PruneTree, String> {
    let n = tree.n_nodes();
    let mut tip_row = vec![0; n];
    let mut children = vec![None; n];
    for node in 0..n {
        if tree.is_tip(node) {
            let label = tree.label(node).ok_or("unlabelled tip")?;
            tip_row[node] =
                names.iter().position(|name| name == label).ok_or("tip not in alignment")?;
        } else {
            children[node] = tree.children(node);
        }
    }
    Ok(PruneTree {
        children,
        time: (0..n).map(|v| tree.time(v)).collect(),
        tip_row,
        root: tree.root(),
    })
}

/// Check R3: the independent ln P(D|G) of the final genealogy against the
/// chain's last trace value. Returns the relative deviation.
pub fn pruning_deviation(est: &Estimation, file: &str) -> Result<f64, String> {
    let last = est.chains.last().ok_or("no chain ended")?;
    let (names, rows) = read_rows(file)?;
    relative_pruning_deviation(&last.final_tree, last.last_trace, &names, &rows)
}

/// Relative distance between `log_likelihood` and the independent pruning
/// of `tree` over `rows`.
fn relative_pruning_deviation(
    tree: &GeneTree,
    log_likelihood: f64,
    names: &[String],
    rows: &[Vec<u8>],
) -> Result<f64, String> {
    let tree = prune_tree(tree, names)?;
    let ours = indep::log_likelihood(&tree, rows, &indep::empirical_freqs(rows));
    Ok(((ours - log_likelihood) / log_likelihood).abs())
}

/// JSON array of strings.
pub fn json_strings(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::string(s.as_str())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::sim::{coalescent, evolve, phylip, tip_name, SimModel};
    use mpcgs::{maximize_relative_likelihood, GradientAscentConfig, RelativeLikelihood};
    use phylo::likelihood::{LikelihoodEngine, MultiLocusEngine};
    use phylo::model::F81;
    use phylo::tree::TreeBuilder;

    /// The benchmark's own genealogy as a program `GeneTree`.
    fn gene_tree(tree: &crate::sim::SimTree) -> GeneTree {
        let mut builder = TreeBuilder::new();
        let mut ids = Vec::new();
        for node in 0..tree.time.len() {
            ids.push(match tree.children[node] {
                None => builder.add_tip(tip_name(node), 0.0),
                Some((a, b)) => builder.join(ids[a], ids[b], tree.time[node]),
            });
        }
        builder.build().unwrap()
    }

    #[test]
    fn r3_agrees_with_the_program_and_fails_on_a_wrong_branch_length() {
        let mut rng = Rng::new(9);
        let genealogy = coalescent(&mut rng, 8, 1.0);
        let model = SimModel::F84 { freqs: [0.3, 0.2, 0.2, 0.3], kappa: 2.0 };
        let rows = evolve(&mut rng, &genealogy.tree, &model, 150);
        let alignment = parse_phylip(&phylip(&rows)).unwrap();
        let names: Vec<String> = (0..rows.len()).map(tip_name).collect();
        let dataset = Dataset::new(vec![Locus::new("data", alignment)]).unwrap();
        let engine = MultiLocusEngine::new(&dataset, |a| F81::normalized(a.base_frequencies()));
        let tree = gene_tree(&genealogy.tree);
        let program = engine.log_likelihood(&tree).unwrap();
        assert!(relative_pruning_deviation(&tree, program, &names, &rows).unwrap() < 1e-9);
        // The same likelihood against a tree whose root is 1% older.
        let mut wrong = tree.clone();
        let node = wrong.root();
        wrong.set_time(node, wrong.time(node) * 1.01);
        assert!(relative_pruning_deviation(&wrong, program, &names, &rows).unwrap() > 1e-9);
    }

    #[test]
    fn r2_agrees_with_the_program_and_fails_on_a_perturbed_estimate() {
        let mut rng = Rng::new(4);
        let trees: Vec<GeneTree> =
            (0..200).map(|_| gene_tree(&coalescent(&mut rng, 10, 0.8).tree)).collect();
        let summaries: Vec<CoalescentIntervals> = trees.iter().map(GeneTree::intervals).collect();
        let theta0 = 1.0;
        let relative = RelativeLikelihood::new(theta0, &summaries).unwrap();
        let program = maximize_relative_likelihood(&relative, &GradientAscentConfig::default());
        let estimation = |estimate: f64| Estimation {
            rows: vec![EmUpdate {
                iteration: 0,
                driving_theta: theta0,
                estimate,
                acceptance_rate: 0.5,
                mean_log_data_likelihood: -1.0,
            }],
            chains: vec![ChainEnd {
                waiting: summaries.iter().map(|s| s.waiting_statistic()).collect(),
                coalescences: summaries.iter().map(|s| s.n_coalescences() as f64).collect(),
                final_tree: trees[0].clone(),
                last_trace: -1.0,
                summaries: None,
            }],
            theta: estimate,
            seconds: 0.0,
            checkpoints: CheckpointFigures::default(),
            round_counters: Vec::new(),
        };
        assert!(eq26_deviation(&estimation(program)) < 1e-5);
        assert!(eq26_deviation(&estimation(program * 1.001)) > 1e-5);
    }

    #[test]
    fn printed_rows_use_the_cli_precision() {
        let update = EmUpdate {
            iteration: 2,
            driving_theta: 0.5,
            estimate: 0.123_456_789,
            acceptance_rate: 0.61249,
            mean_log_data_likelihood: -1334.3899,
        };
        assert_eq!(printed_row(&update), ["3", "0.500000", "0.123457", "0.612", "-1334.390"]);
    }
}
