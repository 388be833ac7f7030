//! Per-layer metrics of the traced replay.
//!
//! The traced replay wraps every call the benchmark makes into a layer in a
//! span. Calls the runner makes internally (propose, rescore, commit,
//! select, intervals, maximise) cannot be wrapped from outside, so they are
//! timed by calling the same public functions on states captured from the
//! replayed chain — its final genealogies and fresh proposal sets drawn from
//! them — with a separate engine and RNG, leaving the chain undisturbed.
//! Those probe timings, multiplied by the chain's own call counts, split the
//! runner steps' self time between the layers for the `<layer>.share`
//! metrics; what the estimates do not cover stays with the runner's layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use codec::Json;
use exec::Backend;
use mcmc::rng::dist::log_categorical;
use mcmc::rng::{Mt19937, StreamBank};
use mpcgs::{
    maximize_relative_likelihood, EnsembleSpec, ExchangePolicy, GenealogyProposer,
    GradientAscentConfig, JobQueue, JobSpec, ProposalConfig, RelativeLikelihood, RunCounters,
    SamplerStrategy, ServeConfig, ServeEvent, SessionCheckpoint,
};
use phylo::io::phylip::parse_phylip;
use phylo::likelihood::{ExecutionMode, Kernel, LikelihoodEngine, MultiLocusEngine, TreeProposal};
use phylo::model::F81;
use phylo::{Dataset, GeneTree, NodeId};

use crate::replay::{
    build_runner, cli_config, job_spec, load_jobs, run_estimation, time_resume, CheckpointFigures,
    Estimation, EstimationSpec,
};
use crate::trace::Tracer;

/// Proposals per set, as the CLI and the serve jobs run them.
const PROPOSALS: usize = 32;

/// The layers a share is reported for, in output order.
const LAYERS: [&str; 11] = [
    "exec",
    "phylo.io",
    "mpcgs.session",
    "lamarc.proposal",
    "phylo.likelihood",
    "mcmc",
    "phylo.tree",
    "lamarc.mle",
    "mpcgs.checkpoint",
    "mpcgs.ensemble",
    "mpcgs.serve",
];

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (name.clone(), Json::Array(vec![Json::Number(*value), Json::string(*unit)]))
                })
                .collect(),
        )
    }
}

/// Per-call probe timings (seconds) of the runner's internal calls.
struct CallTimes {
    propose: f64,
    full_prune: f64,
    rescore: f64,
    commit: f64,
    select: f64,
    intervals: f64,
    maximise: f64,
    dispatch: f64,
}

/// The engine the session builds for its default model (F81 with each
/// locus's empirical frequencies).
fn engine_for(dataset: &Dataset, execution: ExecutionMode) -> MultiLocusEngine<F81> {
    MultiLocusEngine::new(dataset, |a| F81::normalized(a.base_frequencies()))
        .with_mode(execution)
        .with_kernel(Kernel::Auto)
}

/// Time the runner's internal calls on captured generators.
fn probe_calls(
    spec: &EstimationSpec,
    states: &[GeneTree],
    rounds: &[(f64, Vec<phylo::CoalescentIntervals>)],
    metrics: &mut Metrics,
) -> Result<CallTimes, String> {
    let backend = spec.config.backend;
    let engine = engine_for(&spec.dataset, spec.execution);
    let theta = rounds.last().map_or(spec.config.initial_theta, |r| r.0);
    let proposer = GenealogyProposer::with_config(theta, ProposalConfig::default())
        .map_err(|e| e.to_string())?;
    let streams = StreamBank::new(0x7E57_0B5E_55ED, PROPOSALS);
    let mut host = Mt19937::new(0x0B5E);
    let (mut propose, mut full, mut rescore, mut commit, mut select, mut intervals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let reps = 6;
    let mut epoch = 0u64;
    for state in states {
        for _ in 0..reps {
            epoch += 1;
            let phi = proposer.sample_target(state, &mut host);
            let set: Vec<(GeneTree, Vec<NodeId>)> = (0..PROPOSALS)
                .map(|slot| {
                    let mut stream = streams.detached(epoch, slot);
                    let (proposal, t) =
                        timed(|| proposer.propose_with_edit(state, phi, &mut stream));
                    propose.push(t);
                    proposal
                })
                .collect();
            engine.clear_cache();
            let (cold, t) = timed(|| engine.log_likelihood_batch(backend, state, &[]));
            cold.map_err(|e| e.to_string())?;
            full.push(t);
            let refs: Vec<TreeProposal<'_>> =
                set.iter().map(|(tree, edited)| TreeProposal { tree, edited }).collect();
            let (eval, t) = timed(|| engine.log_likelihood_batch(backend, state, &refs));
            let eval = eval.map_err(|e| e.to_string())?;
            rescore.push(t / PROPOSALS as f64);
            let mut weights = eval.log_likelihoods.clone();
            weights.push(eval.generator_log_likelihood);
            let ((), t) = timed(|| {
                for _ in 0..PROPOSALS {
                    std::hint::black_box(log_categorical(&mut host, &weights));
                }
            });
            select.push(t);
            for (accepted, edited) in set.iter().take(4) {
                engine.prime_cache(Some(state)).map_err(|e| e.to_string())?;
                let (done, t) = timed(|| engine.commit_accepted(state, accepted, edited));
                done.map_err(|e| e.to_string())?;
                commit.push(t);
            }
            for _ in 0..20 {
                let (summary, t) = timed(|| state.intervals());
                std::hint::black_box(summary);
                intervals.push(t);
            }
        }
    }
    let maximise: Vec<f64> = rounds
        .iter()
        .map(|(theta0, summaries)| {
            timed(|| {
                RelativeLikelihood::new(*theta0, summaries)
                    .map(|rel| maximize_relative_likelihood(&rel, &GradientAscentConfig::default()))
            })
            .1
        })
        .collect();
    let dispatch = {
        let (mut rayon, mut serial) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            rayon.push(timed(|| Backend::Rayon.map_indexed(PROPOSALS, |i| i)).1);
            serial.push(timed(|| Backend::Serial.map_indexed(PROPOSALS, |i| i)).1);
        }
        median(rayon) - median(serial)
    };
    let calls = CallTimes {
        propose: median(propose),
        full_prune: median(full),
        rescore: median(rescore),
        commit: median(commit),
        select: median(select),
        intervals: median(intervals),
        maximise: median(maximise),
        dispatch,
    };
    metrics.put("exec.dispatch_us", calls.dispatch * 1e6, "us");
    metrics.put("lamarc.proposal.propose_us", calls.propose * 1e6, "us");
    metrics.put("phylo.likelihood.full_prune_us", calls.full_prune * 1e6, "us");
    metrics.put("phylo.likelihood.rescore_us", calls.rescore * 1e6, "us");
    metrics.put("phylo.likelihood.commit_us", calls.commit * 1e6, "us");
    metrics.put("phylo.likelihood.kernel_mpatterns_per_s", kernel_rate(), "Mpatterns/s");
    metrics.put("mcmc.select_us", calls.select * 1e6, "us");
    metrics.put("phylo.tree.intervals_us", calls.intervals * 1e6, "us");
    metrics.put("lamarc.mle.maximise_ms", calls.maximise * 1e3, "ms");
    Ok(calls)
}

/// Throughput of the combine kernel the binary resolves (`Kernel::Auto`) at
/// 256 patterns, in million patterns per second.
fn kernel_rate() -> f64 {
    let n = 256;
    let p = |t: f64| {
        let decay = (-t * 4.0 / 3.0f64).exp();
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = 0.25 * (1.0 - decay) + if i == j { decay } else { 0.0 };
            }
        }
        m
    };
    let (ma, mb) = (p(0.1), p(0.3));
    let pa: Vec<f64> = (0..4 * n).map(|i| 0.1 + (i % 7) as f64 * 0.1).collect();
    let pb: Vec<f64> = (0..4 * n).map(|i| 0.2 + (i % 5) as f64 * 0.1).collect();
    let (sa, sb) = (vec![0.0; n], vec![0.0; n]);
    let (mut out, mut scales) = (vec![0.0; 4 * n], vec![0.0; n]);
    let calls = 2000;
    let rates: Vec<f64> = (0..15)
        .map(|_| {
            let ((), t) = timed(|| {
                for _ in 0..calls {
                    Kernel::Auto.combine_rows(
                        1e-100,
                        &ma,
                        &mb,
                        &pa,
                        &pb,
                        &sa,
                        &sb,
                        &mut out,
                        &mut scales,
                    );
                    std::hint::black_box(&out);
                }
            });
            (calls * n) as f64 / t / 1e6
        })
        .collect();
    median(rates)
}

/// Wall time of fixed CPU work on `Backend::Serial` divided by the same work
/// spread over `Backend::Rayon`'s threads: the parallelism the host delivers.
fn parallelism() -> f64 {
    fn spin(seed: usize) -> f64 {
        let mut x = seed as f64;
        for i in 0..4_000_000u32 {
            x = x * 0.999_999_9 + f64::from(i & 7) * 1e-9;
        }
        x
    }
    let threads = Backend::Rayon.threads();
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let serial =
                timed(|| std::hint::black_box(Backend::Serial.map_indexed(threads, spin))).1;
            let rayon = timed(|| std::hint::black_box(Backend::Rayon.map_indexed(threads, spin))).1;
            serial / rayon
        })
        .collect();
    median(ratios)
}

/// Checkpoint a fresh run of `spec` after `steps` increments and time the
/// codec round trip.
fn checkpoint_probe(spec: &EstimationSpec, steps: usize) -> Result<CheckpointFigures, String> {
    let mut runner = build_runner(spec)?;
    for _ in 0..steps {
        runner.step().map_err(|e| e.to_string())?;
    }
    let mut figures = CheckpointFigures::default();
    for _ in 0..3 {
        let (frozen, capture) = timed(|| runner.checkpoint());
        let frozen = frozen.map_err(|e| e.to_string())?;
        let (text, encode) = timed(|| frozen.to_pretty());
        figures.capture.push(capture);
        figures.encode_mb_per_s.push(text.len() as f64 / 1e6 / encode);
        figures.bytes_max = figures.bytes_max.max(text.len());
        figures.last = Some(text);
    }
    Ok(figures)
}

fn put_checkpoint(
    spec: &EstimationSpec,
    figures: &CheckpointFigures,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let text = figures.last.as_deref().ok_or("no checkpoint was taken")?;
    let mut decode = Vec::new();
    let mut resume = Vec::new();
    for _ in 0..3 {
        let (parsed, t) = timed(|| SessionCheckpoint::parse(text));
        let parsed = parsed.map_err(|e| e.to_string())?;
        decode.push(text.len() as f64 / 1e6 / t);
        resume.push(time_resume(spec, &parsed)?);
    }
    metrics.put("mpcgs.checkpoint.capture_ms", median(figures.capture.clone()) * 1e3, "ms");
    metrics.put(
        "mpcgs.checkpoint.encode_mb_per_s",
        median(figures.encode_mb_per_s.clone()),
        "MB/s",
    );
    metrics.put("mpcgs.checkpoint.bytes_max", figures.bytes_max as f64, "bytes");
    metrics.put("mpcgs.checkpoint.decode_mb_per_s", median(decode), "MB/s");
    metrics.put("mpcgs.checkpoint.resume_ms", median(resume) * 1e3, "ms");
    Ok(())
}

/// A small job over `dataset` as the serve layer runs it (serial inside).
fn small_config(theta: f64) -> mpcgs::MpcgsConfig {
    mpcgs::MpcgsConfig { backend: Backend::Serial, ..cli_config(theta, 320, 64, 1) }
}

/// A 4-rung ladder over the workload's data: the ensemble layer's segments
/// and swaps on this workload's likelihood.
fn ensemble_probe(dataset: &Dataset, theta: f64, metrics: &mut Metrics) -> Result<(), String> {
    let exchange = ExchangePolicy::geometric_ladder(4, 4.0, 10).map_err(|e| e.to_string())?;
    let spec = EstimationSpec {
        dataset: dataset.clone(),
        strategy: SamplerStrategy::MultiProposal,
        config: small_config(theta),
        execution: ExecutionMode::Serial,
        ensemble: Some(EnsembleSpec {
            n_chains: 4,
            exchange,
            ensemble_seed: 1,
            chain_dispatch: None,
        }),
        seed: 1,
    };
    let mut probe = Tracer::new(true);
    let est = run_estimation(&mut probe, &spec, None, None, false)?;
    put_ensemble(&probe, &est.round_counters, metrics);
    Ok(())
}

fn put_ensemble(tr: &Tracer, counters: &[RunCounters], metrics: &mut Metrics) {
    let total = counters.iter().fold(RunCounters::default(), |a, c| a.merged(c));
    metrics.put(
        "mpcgs.ensemble.segment_ms",
        median(tr.durations("mpcgs.ensemble.segment")) * 1e3,
        "ms",
    );
    metrics.put("mpcgs.ensemble.swap_acceptance", total.swap_acceptance_rate(), "ratio");
}

/// Drain `jobs` in-process over the serve configuration; returns the drain
/// wall and each job's time to its first slice.
fn drain(config: ServeConfig, jobs: &[JobSpec]) -> Result<(f64, Vec<f64>), String> {
    let mut queue = JobQueue::new(config);
    for job in jobs {
        queue.submit(job.clone());
    }
    let started = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&started);
    let origin = Instant::now();
    let report = queue.run_with(move |event| {
        if let ServeEvent::JobStarted { .. } = event {
            sink.lock().expect("events").push(origin.elapsed().as_secs_f64());
        }
    });
    let wall = origin.elapsed().as_secs_f64();
    if report.failed() > 0 {
        return Err(format!("{} job(s) failed in the in-process drain", report.failed()));
    }
    let first_slices = std::mem::take(&mut *started.lock().expect("events"));
    Ok((wall, first_slices))
}

fn put_serve(wall: f64, first_slices: Vec<f64>, alone: f64, workers: usize, metrics: &mut Metrics) {
    metrics.put("mpcgs.serve.first_slice_s_p50", median(first_slices), "s");
    metrics.put("mpcgs.serve.pool_efficiency", alone / (workers as f64 * wall), "ratio");
}

/// A mini drain of eight small jobs over the workload's data, for the CLI
/// workloads that never reach the serve layer themselves.
fn serve_probe(dataset: &Dataset, theta: f64, metrics: &mut Metrics) -> Result<(), String> {
    let jobs: Vec<JobSpec> = (0..8)
        .map(|k| JobSpec::new(format!("probe{k}"), dataset.clone(), small_config(theta), k + 1))
        .collect();
    let mut quiet = Tracer::new(false);
    let mut alone = 0.0;
    for job in &jobs {
        alone += run_estimation(&mut quiet, &job_spec(job), None, None, false)?.seconds;
    }
    let config = ServeConfig { backend: Backend::Rayon, workers: 2, quantum: 64 };
    let (wall, first) = drain(config, &jobs)?;
    put_serve(wall, first, alone, config.workers, metrics);
    Ok(())
}

/// The layer a span belongs to: its name without the last component.
fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// What the replayed chains did: the counts the probe timings multiply.
struct Work {
    counters: RunCounters,
    retained: usize,
    rounds: usize,
    /// Rayon dispatches per sampler iteration (proposal map and batch
    /// scoring on the rayon backend; none on the serial backend).
    dispatches_per_iteration: f64,
}

impl Work {
    fn of<'a>(runs: impl Iterator<Item = &'a Estimation>, backend: Backend) -> Work {
        let mut work = Work {
            counters: RunCounters::default(),
            retained: 0,
            rounds: 0,
            dispatches_per_iteration: if backend == Backend::Rayon { 2.0 } else { 0.0 },
        };
        for est in runs {
            for round in &est.round_counters {
                work.counters = work.counters.merged(round);
            }
            work.retained += est.chains.iter().map(|c| c.waiting.len()).sum::<usize>();
            work.rounds += est.rows.len();
        }
        work
    }
}

/// Split the traced replay's wall between layers (see the module docs) and
/// report each layer's share. `drain` is the summed time the in-process serve
/// drain's jobs took alone and the pool's worker count, when the replay ran
/// one.
fn put_shares(
    tr: &Tracer,
    root: usize,
    calls: &CallTimes,
    work: &Work,
    drain: Option<(f64, usize)>,
    metrics: &mut Metrics,
) {
    let spans = tr.spans();
    let own = tr.self_times();
    let in_root = |mut i: usize| loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut seconds: BTreeMap<&str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    let mut opaque: BTreeMap<&str, f64> = BTreeMap::new();
    let mut drain_self = 0.0;
    let mut unattributed = 0.0;
    for (i, span) in spans.iter().enumerate() {
        if !in_root(i) {
            continue;
        }
        match span.name {
            "replay" => unattributed += own[i],
            "mpcgs.session.step" | "mpcgs.session.round_close" => {
                *opaque.entry("mpcgs.session").or_default() += own[i]
            }
            "mpcgs.ensemble.segment" => *opaque.entry("mpcgs.ensemble").or_default() += own[i],
            "mpcgs.serve.drain" => drain_self += own[i],
            name => *seconds.entry(layer_of(name)).or_default() += own[i],
        }
    }
    // Runner internals, estimated from probe timings and the chain's counts.
    let c = &work.counters;
    let estimates = [
        ("lamarc.proposal", calls.propose * c.proposals_generated as f64),
        (
            "phylo.likelihood",
            calls.rescore * c.likelihood_evaluations as f64
                + calls.full_prune
                    * (c.iterations - c.generator_cache_hits.min(c.iterations)) as f64
                + calls.commit * c.workspace_commits as f64,
        ),
        ("mcmc", calls.select * c.draws as f64 / PROPOSALS as f64),
        ("phylo.tree", calls.intervals * work.retained as f64),
        ("lamarc.mle", calls.maximise * work.rounds as f64),
        ("exec", calls.dispatch.max(0.0) * c.iterations as f64 * work.dispatches_per_iteration),
    ];
    let opaque_total: f64 = opaque.values().sum();
    let estimated: f64 = estimates.iter().map(|(_, s)| s).sum();
    let scale = if estimated > opaque_total { opaque_total / estimated } else { 1.0 };
    for (layer, s) in estimates {
        *seconds.get_mut(layer).expect("known layer") += s * scale;
    }
    let leftover = opaque_total - estimated * scale;
    for (layer, s) in &opaque {
        *seconds.get_mut(layer).expect("known layer") += leftover * s / opaque_total;
    }
    // The drain's jobs did the same work as the solo runs; what the pool
    // spent beyond that work spread over its workers is the serve layer's.
    if let Some((alone, workers)) = drain {
        let serve = (drain_self - alone / workers as f64).max(0.0);
        *seconds.get_mut("mpcgs.serve").expect("known layer") += serve;
        let work = drain_self - serve;
        let solo: f64 = seconds.iter().filter(|(l, _)| **l != "mpcgs.serve").map(|(_, s)| s).sum();
        let shares: Vec<(&str, f64)> = seconds
            .iter()
            .filter(|(l, _)| **l != "mpcgs.serve" && **l != "phylo.io")
            .map(|(l, s)| (*l, *s))
            .collect();
        for (layer, s) in shares {
            *seconds.get_mut(layer).expect("known layer") += work * s / solo.max(1e-12);
        }
    }
    let total = spans[root].seconds();
    for layer in LAYERS {
        metrics.put(&format!("{layer}.share"), seconds[layer] / total, "ratio");
    }
    metrics.put("unattributed.share", unattributed / total, "ratio");
}

fn put_counters(counters: &RunCounters, patterns: usize, ess: f64, metrics: &mut Metrics) {
    metrics.put("phylo.likelihood.patterns", patterns as f64, "count");
    metrics.put(
        "phylo.likelihood.nodes_per_evaluation",
        counters.nodes_pruned_per_evaluation(),
        "count",
    );
    metrics.put(
        "phylo.likelihood.matrix_cache_hit_rate",
        counters.matrix_cache_hit_rate(),
        "ratio",
    );
    let iterations = counters.iterations.max(1) as f64;
    metrics.put(
        "phylo.likelihood.generator_cache_hit_rate",
        counters.generator_cache_hits as f64 / iterations,
        "ratio",
    );
    metrics.put("mcmc.move_rate", counters.acceptance_rate(), "ratio");
    metrics.put("mcmc.ess", ess, "count");
}

fn patterns(dataset: &Dataset) -> usize {
    engine_for(dataset, ExecutionMode::Serial).locus_engines().iter().map(|e| e.n_patterns()).sum()
}

fn parse_ms(files: &[String]) -> Result<f64, String> {
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}")))
        .collect::<Result<_, _>>()?;
    let times: Vec<f64> = (0..20)
        .map(|_| timed(|| texts.iter().filter(|t| parse_phylip(t).is_ok()).count()).1)
        .collect();
    Ok(median(times) * 1e3)
}

fn build_ms(spec: &EstimationSpec) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let (runner, t) = timed(|| build_runner(spec));
        runner?;
        times.push(t);
    }
    Ok(median(times) * 1e3)
}

/// Per-layer metrics of a reference or long-loci operation. `tr` holds the
/// closed spans of its traced replay (root span 0) of `spec` over `files`.
pub fn cli_layers(
    tr: &Tracer,
    workload: &str,
    spec: &EstimationSpec,
    files: &[String],
    est: &Estimation,
) -> Result<Json, String> {
    let dataset = &spec.dataset;
    let mut metrics = Metrics::default();
    metrics.put("exec.parallelism", parallelism(), "ratio");
    metrics.put("phylo.io.parse_ms", parse_ms(files)?, "ms");
    metrics.put("mpcgs.session.build_ms", build_ms(spec)?, "ms");
    put_steps(tr, &mut metrics);
    let mut states = vec![start_tree(spec)?];
    states.extend(est.chains.iter().map(|c| c.final_tree.clone()));
    let calls = probe_calls(spec, &states, &round_samples(est), &mut metrics)?;
    let work = Work::of(std::iter::once(est), spec.config.backend);
    let ess = crate::replay::ess_total(est, &[true]);
    put_counters(&work.counters, patterns(dataset), ess, &mut metrics);
    if workload == "long_loci" {
        put_checkpoint(spec, &est.checkpoints, &mut metrics)?;
    } else {
        // Freeze the reference run halfway through its last round.
        let steps_per_round = spec.config.total_draws().div_ceil(PROPOSALS);
        let steps = steps_per_round * (est.rows.len() - 1) + steps_per_round / 2;
        put_checkpoint(spec, &checkpoint_probe(spec, steps)?, &mut metrics)?;
    }
    ensemble_probe(dataset, est.theta, &mut metrics)?;
    serve_probe(dataset, est.theta, &mut metrics)?;
    put_shares(tr, 0, &calls, &work, None, &mut metrics);
    // The replay did what one run of the binary does.
    metrics.put("trace.replay_wall_s", tr.spans()[0].seconds(), "s");
    Ok(metrics.to_json())
}

/// The starting genealogy a session builds (UPGMA of the primary locus).
fn start_tree(spec: &EstimationSpec) -> Result<GeneTree, String> {
    phylo::upgma_tree(spec.dataset.primary_alignment(), 1.0).map_err(|e| e.to_string())
}

/// Each EM round's driving θ and retained interval summaries.
fn round_samples(est: &Estimation) -> Vec<(f64, Vec<phylo::CoalescentIntervals>)> {
    est.rows
        .iter()
        .zip(&est.chains)
        .map(|(row, chain)| (row.driving_theta, chain.summaries.clone().unwrap_or_default()))
        .collect()
}

fn put_steps(tr: &Tracer, metrics: &mut Metrics) {
    metrics.put("mpcgs.session.step_us", median(tr.durations("mpcgs.session.step")) * 1e6, "us");
    metrics.put(
        "mpcgs.session.round_close_ms",
        median(tr.durations("mpcgs.session.round_close")) * 1e3,
        "ms",
    );
}

/// Per-layer metrics of the serve mix. `tr` holds the spans of every job's
/// solo replay under the still-open `root`; the in-process drain of the
/// whole batch runs inside it too.
pub fn serve_layers(
    tr: &mut Tracer,
    root: usize,
    dir: &str,
    runs: &[(String, Estimation)],
) -> Result<Json, String> {
    let inputs = std::fs::read_to_string(Path::new(dir).join("inputs.json"))
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))?;
    let spec_path = inputs.get("spec").and_then(Json::as_str).ok_or("inputs.json: spec")?;
    let (config, jobs) = load_jobs(spec_path)?;
    let id = tr.enter("mpcgs.serve.drain");
    let (wall, first_slices) = drain(config, &jobs)?;
    tr.exit(id, None);
    tr.exit(root, None);
    let alone: f64 = runs.iter().map(|(_, est)| est.seconds).sum();

    let files: Vec<String> = inputs
        .get("files")
        .and_then(Json::as_array)
        .ok_or("inputs.json: files")?
        .iter()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();
    // The probes run on the first single-chain GMH job's data and chain.
    let (k, first_gmh) = jobs
        .iter()
        .enumerate()
        .find(|(_, j)| j.strategy == SamplerStrategy::MultiProposal && j.ensemble.is_none())
        .ok_or("the mix has no single-chain GMH job")?;
    let spec = job_spec(first_gmh);
    let est = &runs[k].1;
    let mut metrics = Metrics::default();
    metrics.put("exec.parallelism", parallelism(), "ratio");
    metrics.put("phylo.io.parse_ms", parse_ms(&files)?, "ms");
    metrics.put("mpcgs.session.build_ms", build_ms(&spec)?, "ms");
    put_steps(tr, &mut metrics);
    let mut states = vec![start_tree(&spec)?];
    states.extend(est.chains.iter().map(|c| c.final_tree.clone()));
    // Maximisation is timed on a replay of that job that keeps its samples.
    let kept = run_estimation(&mut Tracer::new(false), &spec, None, None, true)?;
    let calls = probe_calls(&spec, &states, &round_samples(&kept), &mut metrics)?;
    let work = Work::of(runs.iter().map(|(_, e)| e), spec.config.backend);
    let ess: f64 = runs
        .iter()
        .zip(&jobs)
        .map(|((_, e), job)| {
            let cold = job.ensemble.as_ref().map_or(vec![true], EnsembleSpec::cold_mask);
            crate::replay::ess_total(e, &cold)
        })
        .sum();
    let all_patterns: usize = {
        let mut seen = Vec::new();
        for f in &files {
            let d = crate::replay::load_dataset(&mut Tracer::new(false), std::slice::from_ref(f))?;
            seen.push(patterns(&d));
        }
        seen.iter().sum()
    };
    put_counters(&work.counters, all_patterns, ess, &mut metrics);
    let steps_per_round = spec.config.total_draws().div_ceil(PROPOSALS);
    let figures = checkpoint_probe(&spec, steps_per_round + steps_per_round / 2)?;
    put_checkpoint(&spec, &figures, &mut metrics)?;
    let ladder_counters: Vec<RunCounters> = runs
        .iter()
        .zip(&jobs)
        .filter(|(_, job)| {
            job.ensemble.as_ref().is_some_and(|e| e.exchange.name() != "independent")
        })
        .flat_map(|((_, e), _)| e.round_counters.iter().copied())
        .collect();
    put_ensemble(tr, &ladder_counters, &mut metrics);
    put_serve(wall, first_slices, alone, config.workers, &mut metrics);
    put_shares(tr, root, &calls, &work, Some((alone, config.workers)), &mut metrics);
    // The in-process drain did what one run of the binary does.
    metrics.put("trace.replay_wall_s", wall, "s");
    Ok(metrics.to_json())
}
