//! Speedup analysis: the device/host cost model behind Tables 2–4 and the
//! Amdahl argument of Section 3, printed alongside a *measured* caching
//! report from a real `Session` run — the modelled GPU-versus-host ratios
//! next to what this implementation's dirty-path engine actually saves.
//!
//! Run with `cargo run --release --example speedup_analysis`.

use coalescent::{CoalescentSimulator, SequenceSimulator};
use exec::amdahl::{multichain_time, parallel_burnin_time};
use mcmc::rng::Mt19937;
use phylo::model::Jc69;

use mpcgs::perf::{SpeedupModel, Workload, TABLE2_SAMPLES, TABLE3_SEQUENCES, TABLE4_LENGTHS};
use mpcgs::{CachingReport, Kernel, MpcgsConfig, Session};

fn main() {
    let model = SpeedupModel::paper_calibrated();
    let reference = Workload::reference();
    println!("reference workload: {reference:?}");
    println!(
        "modelled runtimes: baseline {:.1} s, mpcgs {:.1} s, speedup {:.2}x\n",
        model.lamarc_time_us(&reference) / 1e6,
        model.mpcgs_time_us(&reference) / 1e6,
        model.speedup(&reference)
    );

    println!("speedup vs number of samples (Table 2 / Figure 14):");
    for (samples, speedup) in model.sweep_samples(&TABLE2_SAMPLES) {
        println!("   {samples:>7} samples -> {speedup:.2}x");
    }
    println!("\nspeedup vs number of sequences (Table 3 / Figure 15):");
    for (n, speedup) in model.sweep_sequences(&TABLE3_SEQUENCES) {
        println!("   {n:>3} sequences -> {speedup:.2}x");
    }
    println!("\nspeedup vs sequence length (Table 4 / Figure 16):");
    for (len, speedup) in model.sweep_sequence_length(&TABLE4_LENGTHS) {
        println!("   {len:>4} bp -> {speedup:.2}x");
    }

    // The Amdahl argument (Section 3): why the multi-chain work-around stops
    // scaling while the parallel-burn-in scheme keeps dividing.
    println!("\nidealised chain cost with B = 1000, N = 10000 (Section 3):");
    println!("   P    multi-chain B+N/P    parallel burn-in (B+N)/P");
    for p in [1usize, 4, 16, 64, 256] {
        println!(
            "   {p:>3}  {:>18.1}  {:>25.1}",
            multichain_time(1_000.0, 10_000.0, p),
            parallel_burnin_time(1_000.0, 10_000.0, p)
        );
    }

    // Where the model predicts, a Session measures: run one real chain on a
    // paper-shaped workload and report what the dirty-path cache saved.
    let mut rng = Mt19937::new(20_160_401);
    let tree = CoalescentSimulator::constant(1.0)
        .expect("valid theta")
        .simulate(&mut rng, reference.n_sequences)
        .expect("simulation succeeds");
    let alignment = SequenceSimulator::new(Jc69::new(), reference.sequence_length, 1.0)
        .expect("valid simulator")
        .simulate(&mut rng, &tree)
        .expect("sequence simulation succeeds");
    // The measured chain runs on the simulated accelerator backend
    // (bit-identical results) and the caching report additionally carries
    // the queue's host-vs-device cost breakdown.
    let config = MpcgsConfig {
        initial_theta: 1.0,
        em_iterations: 1,
        proposals_per_iteration: reference.proposals_per_iteration,
        draws_per_iteration: reference.proposals_per_iteration,
        burn_in_draws: 200,
        sample_draws: 2_000,
        kernel: Kernel::Simd,
        backend: exec::Backend::device(exec::DeviceSpec::kepler()),
        ..MpcgsConfig::default()
    };
    let mut session = Session::builder()
        .alignment(alignment)
        .config(config)
        .build()
        .expect("valid configuration");
    let device_baseline = exec::Queue::stats();
    let report = session.run_chain(&mut rng).expect("chain run succeeds");
    let caching = CachingReport::from_stats(
        &report.counters,
        reference.interior_nodes(),
        session.config().kernel,
    );
    let caching = caching.with_device(exec::DeviceReport::new(
        exec::DeviceSpec::kepler(),
        exec::Queue::stats().delta(&device_baseline),
    ));
    println!(
        "\nmeasured caching on one {}x{} bp chain ({} kernel, {} evaluations):",
        reference.n_sequences,
        reference.sequence_length,
        caching.kernel,
        report.counters.likelihood_evaluations
    );
    println!(
        "   {:.2} of {} interior nodes recomputed per evaluation ({:.1}% of a full prune)",
        caching.nodes_per_evaluation,
        caching.full_prune_nodes,
        100.0 * caching.reprune_fraction
    );
    println!(
        "   node-recomputation speedup over naive pruning: {:.1}x, generator memo hit rate {:.1}%",
        caching.estimated_kernel_speedup,
        100.0 * caching.generator_cache_hit_rate
    );
    println!(
        "   edge transition-matrix cache hit rate {:.1}%",
        100.0 * caching.matrix_cache_hit_rate
    );
    if let Some(device) = &caching.device {
        println!("\n{}", device.summary());
    }
}
