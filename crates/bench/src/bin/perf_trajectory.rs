//! The persisted performance trajectory of the likelihood engine.
//!
//! Every tracked optimisation claim of the engine is measured here in one
//! run and written as a schema'd JSON artefact (`BENCH_<seq>.json` at the
//! repo root), so performance is a committed, diffable series rather than
//! a one-off number in a PR description:
//!
//! * **kernel** — pure combine-kernel throughput (Mpatterns/s) for the
//!   scalar, four-lane SIMD and runtime-dispatched `auto` variants, at the
//!   engine's own `PATTERN_CHUNK`-sized call shape.
//! * **full_prune** — nanoseconds per full workspace build (kernel plus
//!   build overhead) for the scalar and `auto` kernels.
//! * **dirty_path** — nanoseconds per proposal of batched dirty-path
//!   rescoring on a deep tree, plus the edge transition-matrix cache hit
//!   rate the run observed (the machine-independent metric).
//! * **snapshots** — nanoseconds per genealogy snapshot (`GeneTree::clone`
//!   over the columnar copy-on-write store) versus the legacy pointer-arena
//!   deep copy, slab allocations per snapshot (exactly zero — the O(1)
//!   claim, machine-independent), and the per-swap cost of swap-heavy
//!   8/16/32-rung exchange sweeps.
//! * **ensemble** — effective samples per second of a short
//!   Generalized-MH chain (Geyer initial-sequence ESS over the post
//!   burn-in trace divided by sampling wall-clock).
//! * **serve** — job-queue drain rate of the service layer (jobs/s and
//!   p50/p99 job latency for a flood of small complete estimation jobs,
//!   serial pool vs threaded pool).
//!
//! `--check-against <baseline.json>` compares the current run to a
//! committed artefact and exits non-zero on a >15% regression
//! (direction-aware). `--smoke` shrinks repetition counts for CI and gates
//! only the machine-independent cache hit rate — wall-clock metrics on
//! shared CI hosts are reported but not enforced.
//!
//! Usage: `perf_trajectory [--smoke] [--seq <n>] [--out <path>]
//! [--check-against <path>]` (pass `--out -` to skip writing a file).

use std::process::ExitCode;
use std::time::Instant;

use benchkit::{harness_rng, simulate_alignment};
use coalescent::CoalescentSimulator;
use codec::Json;
use exec::Backend;
use lamarc::GenealogyProposer;
use mcmc::diagnostics::effective_sample_size;
use mcmc::rng::Mt19937;
use mpcgs::{MpcgsConfig, SamplerStrategy, Session};
use phylo::likelihood::{host_cpu_features, LikelihoodEngine};
use phylo::model::F81;
use phylo::tree::legacy::LegacyTree;
use phylo::{upgma_tree, Alignment, FelsensteinPruner, GeneTree, Kernel, NodeId, TreeProposal};

const SCHEMA: &str = "mpcgs-perf-trajectory/v1";
const REGRESSION_TOLERANCE: f64 = 0.15;

struct Opts {
    smoke: bool,
    seq: usize,
    out: Option<String>,
    check_against: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { smoke: false, seq: 0, out: None, check_against: None };
    let mut i = 0;
    while i < args.len() {
        let take_value = |name: &str, i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
            "--seq" => {
                let text = take_value("--seq", &mut i)?;
                opts.seq = text.parse().map_err(|_| format!("invalid --seq {text:?}"))?;
            }
            "--out" => opts.out = Some(take_value("--out", &mut i)?),
            "--check-against" => opts.check_against = Some(take_value("--check-against", &mut i)?),
            "--help" | "-h" => {
                return Err("usage: perf_trajectory [--smoke] [--seq <n>] [--out <path>] \
                            [--check-against <path>]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Interleaved min-of-rounds timing: robust to other tenants of a shared
/// machine, exactly like the `kernel` criterion bench's summary.
fn min_seconds_of(rounds: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

// ---------------------------------------------------------------------------
// Section 1: pure combine-kernel throughput.

struct KernelRows {
    ma: [[f64; 4]; 4],
    mb: [[f64; 4]; 4],
    pa: Vec<f64>,
    pb: Vec<f64>,
    sa: Vec<f64>,
    sb: Vec<f64>,
}

fn kernel_rows(len: usize) -> KernelRows {
    let ma =
        [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.2, 0.1, 0.6, 0.1], [0.1, 0.2, 0.1, 0.6]];
    let mb =
        [[0.6, 0.2, 0.1, 0.1], [0.1, 0.6, 0.2, 0.1], [0.1, 0.1, 0.7, 0.1], [0.2, 0.1, 0.1, 0.6]];
    let pa = (0..len * 4).map(|i| 0.05 + ((i * 37) % 100) as f64 / 150.0).collect();
    let pb = (0..len * 4).map(|i| 0.05 + ((i * 53) % 100) as f64 / 150.0).collect();
    KernelRows { ma, mb, pa, pb, sa: vec![0.0; len], sb: vec![0.0; len] }
}

fn kernel_section(opts: &Opts) -> Json {
    // The engine walks alignments in PATTERN_CHUNK = 256-pattern chunks, so
    // this is the call shape every build and rescore issues.
    let len = 256usize;
    let (reps, rounds) = if opts.smoke { (2_000, 3) } else { (60_000, 7) };
    let rows = kernel_rows(len);
    let mut op = vec![0.0; len * 4];
    let mut os = vec![0.0; len];
    let variants = [Kernel::Scalar, Kernel::Simd, Kernel::Auto];
    let mut best = [f64::MAX; 3];
    // Interleave the variants inside each round so machine noise hits all
    // three equally.
    for _ in 0..rounds {
        for (slot, kernel) in variants.into_iter().enumerate() {
            let t0 = Instant::now();
            for _ in 0..reps {
                kernel.combine_rows(
                    1e-100, &rows.ma, &rows.mb, &rows.pa, &rows.pb, &rows.sa, &rows.sb, &mut op,
                    &mut os,
                );
                std::hint::black_box(&op);
            }
            best[slot] = best[slot].min(t0.elapsed().as_secs_f64());
        }
    }
    let patterns = (len * reps) as f64;
    let mpatterns = |t: f64| patterns / t / 1e6;
    println!("kernel ({len} patterns/call, {reps} calls, min of {rounds} rounds):");
    for (slot, kernel) in variants.into_iter().enumerate() {
        println!(
            "  {:<7} [{}]: {:>8.1} Mpatterns/s",
            kernel.to_string(),
            kernel.variant(),
            mpatterns(best[slot])
        );
    }
    let auto_over_scalar = best[0] / best[2];
    println!("  auto/scalar: {auto_over_scalar:.2}x");
    Json::Object(vec![
        ("patterns_per_call".to_string(), Json::Number(len as f64)),
        ("scalar_mpatterns_per_s".to_string(), Json::Number(mpatterns(best[0]))),
        ("simd_mpatterns_per_s".to_string(), Json::Number(mpatterns(best[1]))),
        ("auto_mpatterns_per_s".to_string(), Json::Number(mpatterns(best[2]))),
        ("auto_over_scalar".to_string(), Json::Number(auto_over_scalar)),
    ])
}

// ---------------------------------------------------------------------------
// Sections 2 and 3: engine-level paths.

struct Fixture {
    alignment: Alignment,
    generator: GeneTree,
    edits: Vec<(GeneTree, Vec<NodeId>)>,
}

fn fixture(label: &str, n_taxa: usize, sites: usize, n_proposals: usize, deep: bool) -> Fixture {
    let mut rng = harness_rng(label, (n_taxa * sites) as u64);
    let alignment = simulate_alignment(&mut rng, 1.0, n_taxa, sites);
    let generator = upgma_tree(&alignment, 1.0).unwrap();
    let proposer = GenealogyProposer::new(1.0).unwrap();
    // `deep` pins φ to the deepest eligible target so every proposal's dirty
    // path spans the full tree depth — the steady-state regime the
    // edge-matrix cache exists for. Otherwise φ is drawn as a sampler would.
    let phi = if deep {
        deepest_target(&generator).unwrap_or_else(|| proposer.sample_target(&generator, &mut rng))
    } else {
        proposer.sample_target(&generator, &mut rng)
    };
    let edits =
        (0..n_proposals).map(|_| proposer.propose_with_edit(&generator, phi, &mut rng)).collect();
    Fixture { alignment, generator, edits }
}

/// The non-root interior node with the longest ancestor chain.
fn deepest_target(tree: &GeneTree) -> Option<NodeId> {
    tree.non_root_internal_nodes().into_iter().max_by_key(|&node| {
        let mut depth = 0usize;
        let mut cursor = node;
        while let Some(parent) = tree.parent(cursor) {
            depth += 1;
            cursor = parent;
        }
        depth
    })
}

fn engine_for(fixture: &Fixture, kernel: Kernel) -> FelsensteinPruner<F81> {
    FelsensteinPruner::new(
        &fixture.alignment,
        F81::normalized(fixture.alignment.base_frequencies()),
    )
    .with_kernel(kernel)
}

fn full_prune_section(opts: &Opts) -> Json {
    let (taxa, sites) = (12usize, if opts.smoke { 240 } else { 1_000 });
    let (reps, rounds) = if opts.smoke { (3, 2) } else { (20, 5) };
    let fx = fixture("perf-trajectory-prune", taxa, sites, 1, false);
    let mut best = [f64::MAX; 2];
    for _ in 0..rounds {
        for (slot, kernel) in [Kernel::Scalar, Kernel::Auto].into_iter().enumerate() {
            let engine = engine_for(&fx, kernel);
            let _ = engine.build_workspace(Backend::Serial, &fx.generator).unwrap();
            let t = min_seconds_of(1, || {
                for _ in 0..reps {
                    let ws = engine.build_workspace(Backend::Serial, &fx.generator).unwrap();
                    std::hint::black_box(ws.log_likelihood());
                }
            });
            best[slot] = best[slot].min(t / reps as f64);
        }
    }
    println!(
        "full prune ({taxa} taxa x {sites} bp): scalar {:.0} ns, auto {:.0} ns, {:.2}x",
        best[0] * 1e9,
        best[1] * 1e9,
        best[0] / best[1]
    );
    Json::Object(vec![
        ("taxa".to_string(), Json::Number(taxa as f64)),
        ("sites".to_string(), Json::Number(sites as f64)),
        ("scalar_ns".to_string(), Json::Number(best[0] * 1e9)),
        ("auto_ns".to_string(), Json::Number(best[1] * 1e9)),
    ])
}

fn dirty_path_section(opts: &Opts) -> Json {
    // The workload is identical in smoke and full runs (only the repetition
    // count differs) so the cache hit rate — the gated metric — stays
    // comparable across modes. Deep trees exercise long dirty paths, the
    // regime the edge-matrix cache is built for.
    let (taxa, sites, n_proposals) = (96usize, 400usize, 32usize);
    let (reps, rounds) = if opts.smoke { (2, 2) } else { (10, 5) };
    let fx = fixture("perf-trajectory-dirty", taxa, sites, n_proposals, true);
    let engine = engine_for(&fx, Kernel::Auto);
    let proposals: Vec<TreeProposal<'_>> =
        fx.edits.iter().map(|(tree, edited)| TreeProposal { tree, edited }).collect();
    // Warm the generator memo: steady state is rescore-only.
    let _ = engine.log_likelihood_batch(Backend::Serial, &fx.generator, &proposals).unwrap();
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let t = min_seconds_of(1, || {
            for _ in 0..reps {
                let eval = engine
                    .log_likelihood_batch(Backend::Serial, &fx.generator, &proposals)
                    .unwrap();
                hits += eval.matrix_cache_hits;
                misses += eval.matrix_cache_misses;
                std::hint::black_box(eval.generator_log_likelihood);
            }
        });
        best = best.min(t / (reps * n_proposals) as f64);
    }
    let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    println!(
        "dirty path ({taxa} taxa x {sites} bp, {n_proposals} proposals): {:.0} ns/proposal, \
         matrix-cache hit rate {:.1}% ({hits} hits / {misses} misses)",
        best * 1e9,
        100.0 * hit_rate
    );
    Json::Object(vec![
        ("taxa".to_string(), Json::Number(taxa as f64)),
        ("sites".to_string(), Json::Number(sites as f64)),
        ("proposals".to_string(), Json::Number(n_proposals as f64)),
        ("ns_per_proposal".to_string(), Json::Number(best * 1e9)),
        ("matrix_cache_hit_rate".to_string(), Json::Number(hit_rate)),
    ])
}

// ---------------------------------------------------------------------------
// Section 4: genealogy snapshots — the CoW columnar store vs deep copies.

fn snapshots_section(opts: &Opts) -> Json {
    let tips = 384usize;
    let (clone_reps, rounds) = if opts.smoke { (2_000, 3) } else { (50_000, 7) };
    let mut rng = harness_rng("perf-trajectory-snapshots", tips as u64);
    let tree = CoalescentSimulator::constant(1.0)
        .expect("valid theta")
        .simulate(&mut rng, tips)
        .expect("valid simulation size");
    let legacy = LegacyTree::from_node_records(tree.node_records(), tree.root())
        .expect("records round-trip");

    // Snapshot cost, with the O(1) claim checked on the slab ledger: the
    // timing loop takes `clone_reps × rounds` snapshots and must allocate
    // (and CoW-materialise) zero slabs — this quotient is the
    // machine-independent gate.
    let before = phylo::tables::cow_stats();
    let snapshot_s = min_seconds_of(rounds, || {
        for _ in 0..clone_reps {
            std::hint::black_box(tree.clone());
        }
    });
    let delta = phylo::tables::cow_stats().since(&before);
    let slab_allocs_per_snapshot =
        (delta.slab_allocs + delta.slab_cow_clones) as f64 / delta.snapshots.max(1) as f64;
    let deep_copy_s = min_seconds_of(rounds, || {
        for _ in 0..clone_reps {
            std::hint::black_box(legacy.clone());
        }
    });
    let snapshot_ns = snapshot_s / clone_reps as f64 * 1e9;
    let deep_copy_ns = deep_copy_s / clone_reps as f64 * 1e9;
    println!(
        "snapshots ({tips} tips): cow {snapshot_ns:.0} ns, legacy deep copy {deep_copy_ns:.0} ns \
         ({:.1}x), {slab_allocs_per_snapshot:.4} slab allocs/snapshot",
        deep_copy_ns / snapshot_ns
    );

    // Swap-heavy exchange sweeps: every adjacent-rung swap exports both
    // replicas' trees (two clones, the `current_state` half) and installs
    // them crosswise (the `replace_state` half) — the state traffic the
    // sharded sampler pays per exchange segment.
    let sweep_reps = if opts.smoke { 50 } else { 500 };
    let mut ladder_rows = Vec::new();
    let mut ladder32 = (f64::NAN, f64::NAN);
    for &rungs in &[8usize, 16, 32] {
        let swaps_per_sweep = (rungs - 1) as f64;
        let mut cow: Vec<GeneTree> = (0..rungs).map(|_| tree.clone()).collect();
        let cow_s = min_seconds_of(rounds, || {
            for _ in 0..sweep_reps {
                for i in 0..cow.len() - 1 {
                    let a = cow[i].clone();
                    let b = cow[i + 1].clone();
                    cow[i] = b;
                    cow[i + 1] = a;
                }
            }
            std::hint::black_box(&cow);
        });
        let mut deep: Vec<LegacyTree> = (0..rungs).map(|_| legacy.clone()).collect();
        let legacy_s = min_seconds_of(rounds, || {
            for _ in 0..sweep_reps {
                for i in 0..deep.len() - 1 {
                    let a = deep[i].clone();
                    let b = deep[i + 1].clone();
                    deep[i] = b;
                    deep[i + 1] = a;
                }
            }
            std::hint::black_box(&deep);
        });
        let cow_ns = cow_s / (sweep_reps as f64 * swaps_per_sweep) * 1e9;
        let legacy_ns = legacy_s / (sweep_reps as f64 * swaps_per_sweep) * 1e9;
        println!(
            "  ladder {rungs:>2} rungs: cow {cow_ns:.0} ns/swap, legacy {legacy_ns:.0} ns/swap \
             ({:.1}x)",
            legacy_ns / cow_ns
        );
        ladder_rows.push((
            format!("rungs_{rungs}"),
            Json::Object(vec![
                ("cow_ns_per_swap".to_string(), Json::Number(cow_ns)),
                ("legacy_ns_per_swap".to_string(), Json::Number(legacy_ns)),
            ]),
        ));
        if rungs == 32 {
            ladder32 = (cow_ns, legacy_ns);
        }
    }
    Json::Object(vec![
        ("tips".to_string(), Json::Number(tips as f64)),
        ("snapshot_ns".to_string(), Json::Number(snapshot_ns)),
        ("deep_copy_ns".to_string(), Json::Number(deep_copy_ns)),
        ("deep_copy_over_snapshot".to_string(), Json::Number(deep_copy_ns / snapshot_ns)),
        ("slab_allocs_per_snapshot".to_string(), Json::Number(slab_allocs_per_snapshot)),
        ("ladder".to_string(), Json::Object(ladder_rows)),
        ("ladder32_cow_ns_per_swap".to_string(), Json::Number(ladder32.0)),
        ("ladder32_legacy_over_cow".to_string(), Json::Number(ladder32.1 / ladder32.0)),
    ])
}

// ---------------------------------------------------------------------------
// Section 5: end-to-end chain throughput in effective samples per second.

fn ensemble_section(opts: &Opts) -> Json {
    let (taxa, sites) = (10usize, if opts.smoke { 100 } else { 200 });
    let (burn_in, samples) = if opts.smoke { (20, 120) } else { (200, 2_000) };
    let mut rng = harness_rng("perf-trajectory-ensemble", 0);
    let alignment = simulate_alignment(&mut rng, 1.0, taxa, sites);
    let config = MpcgsConfig {
        initial_theta: 1.0,
        burn_in_draws: burn_in,
        sample_draws: samples,
        proposals_per_iteration: 8,
        draws_per_iteration: 8,
        backend: Backend::Serial,
        ..MpcgsConfig::default()
    };
    let mut session = Session::builder()
        .alignment(alignment)
        .strategy(SamplerStrategy::MultiProposal)
        .config(config)
        .build()
        .expect("valid session");
    let t0 = Instant::now();
    let report = session.run_chain(&mut Mt19937::new(20_160_401)).expect("chain run succeeds");
    let wall = t0.elapsed().as_secs_f64();
    let trace = report.trace.post_burn_in();
    // A short, well-mixed trace can defeat the initial-sequence estimator;
    // fall back to the raw draw count rather than dying.
    let ess = effective_sample_size(trace).unwrap_or(trace.len() as f64);
    let ess_per_s = ess / wall;
    let hit_rate = report.counters.matrix_cache_hit_rate();
    println!(
        "ensemble chain ({taxa} taxa x {sites} bp, {} draws): ESS {ess:.0} in {wall:.2} s = \
         {ess_per_s:.1} ESS/s, matrix-cache hit rate {:.1}%",
        burn_in + samples,
        100.0 * hit_rate
    );
    Json::Object(vec![
        ("taxa".to_string(), Json::Number(taxa as f64)),
        ("sites".to_string(), Json::Number(sites as f64)),
        ("draws".to_string(), Json::Number((burn_in + samples) as f64)),
        ("ess".to_string(), Json::Number(ess)),
        ("wall_s".to_string(), Json::Number(wall)),
        ("ess_per_s".to_string(), Json::Number(ess_per_s)),
        ("matrix_cache_hit_rate".to_string(), Json::Number(hit_rate)),
    ])
}

// ---------------------------------------------------------------------------
// Section 6: serve-layer job-queue throughput.

fn serve_section(opts: &Opts) -> Json {
    // Many small-but-real jobs (a complete 1-round EM estimate each), so the
    // queue machinery — locking, quantum preemption, event fan-in — is a
    // visible fraction of the cost. The full run floods the queue past the
    // 1k-job acceptance mark; the deeper sweep lives in `serve_throughput`.
    let n_jobs = if opts.smoke { 200 } else { 2_000 };
    let workers = std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4);
    let mut rng = harness_rng("perf-trajectory-serve", 0);
    let alignment = simulate_alignment(&mut rng, 1.0, 5, 40);
    let dataset = mpcgs::Dataset::single(alignment);
    let config = MpcgsConfig {
        initial_theta: 1.0,
        em_iterations: 1,
        proposals_per_iteration: 4,
        draws_per_iteration: 4,
        burn_in_draws: 8,
        sample_draws: 24,
        backend: Backend::Serial,
        ..MpcgsConfig::default()
    };
    let drain = |backend: Backend, workers: usize| {
        let mut queue = mpcgs::JobQueue::new(mpcgs::ServeConfig { backend, workers, quantum: 4 });
        for k in 0..n_jobs {
            queue.submit(mpcgs::JobSpec::new(
                format!("job-{k}"),
                dataset.clone(),
                config,
                20_160_401 + k as u32,
            ));
        }
        let report = queue.run();
        assert_eq!(report.completed(), n_jobs, "every queued job must complete");
        report
    };
    let serial = drain(Backend::Serial, 1);
    let threaded = drain(Backend::Rayon, workers);
    println!(
        "serve queue ({n_jobs} jobs): serial {:.0} jobs/s, threaded x{workers} {:.0} jobs/s, \
         threaded p50 {:.4} s p99 {:.4} s",
        serial.jobs_per_sec(),
        threaded.jobs_per_sec(),
        threaded.latency_quantile(0.5),
        threaded.latency_quantile(0.99)
    );
    Json::Object(vec![
        ("jobs".to_string(), Json::Number(n_jobs as f64)),
        ("workers".to_string(), Json::Number(workers as f64)),
        ("serial_jobs_per_sec".to_string(), Json::Number(serial.jobs_per_sec())),
        ("threaded_jobs_per_sec".to_string(), Json::Number(threaded.jobs_per_sec())),
        ("threaded_p50_s".to_string(), Json::Number(threaded.latency_quantile(0.5))),
        ("threaded_p99_s".to_string(), Json::Number(threaded.latency_quantile(0.99))),
    ])
}

// ---------------------------------------------------------------------------
// Baseline comparison.

/// A gated metric: dotted path into the artefact, and whether bigger is
/// better. `machine_bound` metrics are wall-clock-derived and only enforced
/// in full (non-smoke) runs on both sides.
struct Gate {
    path: &'static str,
    higher_is_better: bool,
    machine_bound: bool,
}

const GATES: [Gate; 9] = [
    Gate { path: "kernel.scalar_mpatterns_per_s", higher_is_better: true, machine_bound: true },
    Gate { path: "kernel.auto_mpatterns_per_s", higher_is_better: true, machine_bound: true },
    Gate { path: "full_prune.auto_ns", higher_is_better: false, machine_bound: true },
    Gate { path: "dirty_path.ns_per_proposal", higher_is_better: false, machine_bound: true },
    Gate { path: "dirty_path.matrix_cache_hit_rate", higher_is_better: true, machine_bound: false },
    // Snapshots stay O(1): zero slab traffic per clone (exact, every run)
    // and the per-snapshot / per-swap wall clocks on comparable hosts.
    Gate {
        path: "snapshots.slab_allocs_per_snapshot",
        higher_is_better: false,
        machine_bound: false,
    },
    Gate { path: "snapshots.snapshot_ns", higher_is_better: false, machine_bound: true },
    Gate {
        path: "snapshots.ladder32_cow_ns_per_swap",
        higher_is_better: false,
        machine_bound: true,
    },
    Gate { path: "ensemble.ess_per_s", higher_is_better: true, machine_bound: true },
];

fn check_against(current: &Json, baseline_path: &str, smoke: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = Json::parse(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?;
    let baseline_schema = baseline.get("schema").and_then(Json::as_str);
    if baseline_schema != Some(SCHEMA) {
        return Err(format!(
            "baseline {baseline_path} has schema {baseline_schema:?}, expected {SCHEMA:?}"
        ));
    }
    let baseline_smoke = baseline.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let enforce_timings = !smoke && !baseline_smoke;
    println!(
        "\ncomparison against {baseline_path} (tolerance {:.0}%):",
        REGRESSION_TOLERANCE * 100.0
    );
    let mut failures = Vec::new();
    for gate in &GATES {
        let (Some(now), Some(then)) = (
            current.get_path(gate.path).and_then(Json::as_f64),
            baseline.get_path(gate.path).and_then(Json::as_f64),
        ) else {
            failures.push(format!("{}: metric missing from current run or baseline", gate.path));
            continue;
        };
        let ratio = if then == 0.0 { 1.0 } else { now / then };
        let regressed = if gate.higher_is_better {
            now < then * (1.0 - REGRESSION_TOLERANCE)
        } else {
            now > then * (1.0 + REGRESSION_TOLERANCE)
        };
        let enforced = enforce_timings || !gate.machine_bound;
        let verdict = match (regressed, enforced) {
            (false, _) => "ok",
            (true, true) => "REGRESSED",
            (true, false) => "regressed (informational: wall-clock metric not gated here)",
        };
        println!("  {:<38} {then:>12.3} -> {now:>12.3}  ({ratio:.2}x)  {verdict}", gate.path);
        if regressed && enforced {
            failures.push(format!(
                "{}: {then:.3} -> {now:.3} ({ratio:.2}x) exceeds the {:.0}% tolerance",
                gate.path,
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!("  all gated metrics within tolerance");
        Ok(())
    } else {
        Err(format!("performance regression:\n  {}", failures.join("\n  ")))
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let features = host_cpu_features();
    println!(
        "perf trajectory ({} mode): auto resolves to {}, host cpu {}",
        if opts.smoke { "smoke" } else { "full" },
        Kernel::Auto.variant(),
        if features.is_empty() { "baseline".to_string() } else { features.join("+") }
    );

    let kernel = kernel_section(opts);
    let full_prune = full_prune_section(opts);
    let dirty_path = dirty_path_section(opts);
    let snapshots = snapshots_section(opts);
    let ensemble = ensemble_section(opts);
    let serve = serve_section(opts);

    let artefact = Json::Object(vec![
        ("schema".to_string(), Json::string(SCHEMA)),
        ("seq".to_string(), Json::Number(opts.seq as f64)),
        ("smoke".to_string(), Json::Bool(opts.smoke)),
        (
            "host".to_string(),
            Json::Object(vec![
                (
                    "cpu_features".to_string(),
                    Json::Array(features.iter().map(|f| Json::string(*f)).collect()),
                ),
                ("auto_variant".to_string(), Json::string(Kernel::Auto.variant().to_string())),
            ]),
        ),
        ("kernel".to_string(), kernel),
        ("full_prune".to_string(), full_prune),
        ("dirty_path".to_string(), dirty_path),
        ("snapshots".to_string(), snapshots),
        ("ensemble".to_string(), ensemble),
        ("serve".to_string(), serve),
    ]);

    let out_path = match opts.out.as_deref() {
        Some("-") => None,
        Some(path) => Some(path.to_string()),
        None => Some(format!("BENCH_{}.json", opts.seq)),
    };
    if let Some(path) = out_path {
        std::fs::write(&path, artefact.to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(baseline) = &opts.check_against {
        check_against(&artefact, baseline, opts.smoke)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_opts(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
