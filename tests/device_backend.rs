//! Integration tests of the simulated accelerator backend
//! (`Backend::Device`).
//!
//! The load-bearing contract: the device backend changes *where and in what
//! order batches are accounted*, never the arithmetic — so every likelihood,
//! every `RunReport` and every pooled ensemble result must be **bit
//! identical** to `Backend::Serial`, while the run additionally carries a
//! `DeviceReport` cost breakdown whose accounting reproduces the paper's
//! qualitative speedup shapes.

use coalescent::{CoalescentSimulator, SequenceSimulator};
use exec::{Backend, DeviceReport, DeviceSpec, Queue};
use lamarc::GenealogyProposer;
use mcmc::rng::Mt19937;
use mpcgs::ensemble::{EnsembleSpec, ExchangePolicy};
use mpcgs::{MpcgsConfig, SamplerStrategy, Session};
use phylo::likelihood::{LikelihoodEngine, MultiLocusEngine};
use phylo::model::Jc69;
use phylo::{Alignment, Dataset, GeneTree, Locus, TreeProposal};

fn simulate(rng: &mut Mt19937, n: usize, sites: usize) -> (Alignment, GeneTree) {
    let tree = CoalescentSimulator::constant(1.0).unwrap().simulate(rng, n).unwrap();
    let alignment =
        SequenceSimulator::new(Jc69::new(), sites, 1.0).unwrap().simulate(rng, &tree).unwrap();
    (alignment, tree)
}

/// A dataset of `n_loci` independently simulated loci over one shared set of
/// individuals, plus a genealogy over those individuals.
fn multi_locus_dataset(seed: u32, n_loci: usize, n: usize) -> (Dataset, GeneTree) {
    let mut rng = Mt19937::new(seed);
    let (first, tree) = simulate(&mut rng, n, 40 + 17 * n_loci);
    let names: Vec<String> = first.names().iter().map(|s| s.to_string()).collect();
    let mut loci = vec![Locus::new("locus0", first)];
    for l in 1..n_loci {
        let tree_l = CoalescentSimulator::constant(1.0)
            .unwrap()
            .simulate_labelled(&mut rng, &names)
            .unwrap();
        let alignment = SequenceSimulator::new(Jc69::new(), 30 + 13 * l, 1.0)
            .unwrap()
            .simulate(&mut rng, &tree_l)
            .unwrap();
        loci.push(Locus::new(format!("locus{l}"), alignment));
    }
    (Dataset::new(loci).unwrap(), tree)
}

fn small_config(backend: Backend) -> MpcgsConfig {
    MpcgsConfig {
        initial_theta: 1.0,
        em_iterations: 1,
        proposals_per_iteration: 8,
        draws_per_iteration: 8,
        burn_in_draws: 30,
        sample_draws: 120,
        backend,
        ..MpcgsConfig::default()
    }
}

#[test]
fn device_grid_is_bit_identical_to_serial_across_loci_and_proposals() {
    // The full (locus × proposal) matrix of the flattened grid dispatch:
    // 1–4 loci × 1–8 proposals, device vs serial, exact equality.
    let device = Backend::device(DeviceSpec::kepler());
    let proposer = GenealogyProposer::new(1.0).unwrap();
    for n_loci in 1..=4usize {
        let (dataset, tree) = multi_locus_dataset(500 + n_loci as u32, n_loci, 6);
        let serial_engine = MultiLocusEngine::new(&dataset, |_| Jc69::new());
        let device_engine = MultiLocusEngine::new(&dataset, |_| Jc69::new());
        let mut rng = Mt19937::new(9_000 + n_loci as u32);
        for n_proposals in 1..=8usize {
            let edits: Vec<(GeneTree, Vec<usize>)> = (0..n_proposals)
                .map(|_| {
                    let phi = proposer.sample_target(&tree, &mut rng);
                    proposer.propose_with_edit(&tree, phi, &mut rng)
                })
                .collect();
            let views: Vec<TreeProposal<'_>> =
                edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();
            let a = serial_engine.log_likelihood_batch(Backend::Serial, &tree, &views).unwrap();
            let b = device_engine.log_likelihood_batch(device, &tree, &views).unwrap();
            assert_eq!(
                a.log_likelihoods, b.log_likelihoods,
                "{n_loci} loci x {n_proposals} proposals must be bit-identical"
            );
            assert_eq!(a.generator_log_likelihood, b.generator_log_likelihood);
            assert_eq!(a.nodes_repruned, b.nodes_repruned);
        }
    }
}

#[test]
fn device_chain_runs_are_bit_identical_to_serial_for_both_strategies() {
    let (dataset, _) = multi_locus_dataset(601, 2, 6);
    for strategy in [SamplerStrategy::MultiProposal, SamplerStrategy::Baseline] {
        let mut serial = Session::builder()
            .dataset(dataset.clone())
            .strategy(strategy)
            .config(small_config(Backend::Serial))
            .build()
            .unwrap();
        let serial_report = serial.run_chain(&mut Mt19937::new(3)).unwrap();

        let mut device = Session::builder()
            .dataset(dataset.clone())
            .strategy(strategy)
            .config(small_config(Backend::device(DeviceSpec::kepler())))
            .build()
            .unwrap();
        let device_report = device.run_chain(&mut Mt19937::new(3)).unwrap();

        assert_eq!(
            serial_report, device_report,
            "{strategy:?}: serial and device runs must be bit-identical"
        );
    }
}

#[test]
fn parallel_execution_mode_does_not_clobber_the_device_backend() {
    // `with_mode(Parallel)` upgrades serial dispatch to rayon, but must
    // never silently replace the device backend — that would drop every
    // likelihood launch from the queue's accounting while still attaching
    // a (now misleading) DeviceReport to the run.
    use phylo::likelihood::ExecutionMode;
    let (dataset, _) = multi_locus_dataset(659, 2, 6);
    let mut serial = Session::builder()
        .dataset(dataset.clone())
        .config(small_config(Backend::Serial))
        .build()
        .unwrap();
    let serial_report = serial.run_chain(&mut Mt19937::new(5)).unwrap();

    let mut device = Session::builder()
        .dataset(dataset)
        .config(small_config(Backend::device(DeviceSpec::kepler())))
        .execution(ExecutionMode::Parallel)
        .build()
        .unwrap();
    let baseline = Queue::stats();
    let device_report = device.run_chain(&mut Mt19937::new(5)).unwrap();
    let stats = Queue::stats().delta(&baseline);

    assert_eq!(serial_report, device_report);
    // The likelihood grids were submitted to the queue, not rerouted to
    // rayon: batched-grid launches are present.
    assert!(stats.grid_batches > 0, "likelihood grids must stay on the device queue");
}

#[test]
fn device_session_reports_theta_and_cost_breakdown() {
    let (dataset, _) = multi_locus_dataset(617, 1, 6);
    let mut serial = Session::builder()
        .dataset(dataset.clone())
        .config(small_config(Backend::Serial))
        .build()
        .unwrap();
    let serial_estimate = serial.run(&mut Mt19937::new(11)).unwrap();
    assert!(serial_estimate.device.is_none());

    let mut device = Session::builder()
        .dataset(dataset)
        .config(small_config(Backend::device(DeviceSpec::modern())))
        .build()
        .unwrap();
    let device_estimate = device.run(&mut Mt19937::new(11)).unwrap();

    // Identical estimation, plus the cost section.
    assert_eq!(serial_estimate.theta, device_estimate.theta);
    assert_eq!(serial_estimate.iterations, device_estimate.iterations);
    let report = device_estimate.device.expect("device runs carry a DeviceReport");
    assert_eq!(report.spec, DeviceSpec::modern());
    assert!(report.stats.launches > 0);
    assert!(report.stats.grid_batches > 0);
    assert!(report.stats.logical_threads > report.stats.host_items);
    assert!(report.stats.modelled_device_us > 0.0);
    assert!(report.modelled_host_us > 0.0);
    assert!(report.stats.measured_host_us > 0.0);
    assert!(report.mean_occupancy() > 0.0 && report.mean_occupancy() <= 1.0);
    assert!(report.summary().contains("modern"));
}

#[test]
fn device_ensemble_matches_serial_and_reports_device_costs() {
    let (dataset, _) = multi_locus_dataset(631, 1, 6);
    let ladder = ExchangePolicy::geometric_ladder(3, 4.0, 5).unwrap();
    let spec =
        EnsembleSpec { n_chains: 3, exchange: ladder, ensemble_seed: 19, chain_dispatch: None };

    let mut serial = Session::builder()
        .dataset(dataset.clone())
        .config(small_config(Backend::Serial))
        .build()
        .unwrap();
    serial.set_ensemble(Some(spec.clone()));
    let serial_report = serial.run_ensemble(&mut Mt19937::new(2)).unwrap();
    assert!(serial_report.device.is_none());

    let mut device = Session::builder()
        .dataset(dataset)
        .config(small_config(Backend::device(DeviceSpec::kepler())))
        .build()
        .unwrap();
    device.set_ensemble(Some(spec));
    let device_report = device.run_ensemble(&mut Mt19937::new(2)).unwrap();

    // Everything the sampler computed is bit-identical; only the device
    // section differs (present vs absent).
    assert_eq!(serial_report.chains, device_report.chains);
    assert_eq!(serial_report.temperatures, device_report.temperatures);
    assert_eq!(serial_report.cold_rungs, device_report.cold_rungs);
    assert_eq!(serial_report.pooled_samples, device_report.pooled_samples);
    assert_eq!(serial_report.counters, device_report.counters);
    let section = device_report.device.expect("device ensemble carries a DeviceReport");
    assert!(section.stats.launches > 0);
    assert!(section.stats.grid_batches > 0);
}

#[test]
fn device_backend_rejects_rayon_chain_dispatch() {
    let (dataset, _) = multi_locus_dataset(647, 1, 5);
    let mut session = Session::builder()
        .dataset(dataset)
        .config(small_config(Backend::device(DeviceSpec::kepler())))
        .build()
        .unwrap();
    session.set_ensemble(Some(EnsembleSpec {
        chain_dispatch: Some(Backend::Rayon),
        ..EnsembleSpec::independent(2)
    }));
    let err = session.run_ensemble(&mut Mt19937::new(1)).unwrap_err();
    assert!(err.to_string().contains("command queue"), "unhelpful error: {err}");

    // Serial chain dispatch over device within-chain work is fine.
    let (dataset, _) = multi_locus_dataset(653, 1, 5);
    let mut session = Session::builder()
        .dataset(dataset)
        .config(small_config(Backend::device(DeviceSpec::kepler())))
        .build()
        .unwrap();
    session.set_ensemble(Some(EnsembleSpec {
        chain_dispatch: Some(Backend::Serial),
        ..EnsembleSpec::independent(2)
    }));
    let report = session.run_ensemble(&mut Mt19937::new(1)).unwrap();
    assert!(report.device.is_some());
}

#[test]
fn device_accounting_reproduces_the_sequence_length_trend() {
    // The Figure 16 mechanism in miniature: more sites mean more logical
    // (proposal, site) threads per launch, better latency hiding, higher
    // sustained speedup. (The full three-figure regeneration lives in
    // crates/bench/benches/device.rs.)
    let spec = DeviceSpec::kepler();
    let mut reports = Vec::new();
    for &sites in &[40usize, 400] {
        let mut rng = Mt19937::new(701);
        let (alignment, _) = simulate(&mut rng, 6, sites);
        let mut session = Session::builder()
            .alignment(alignment)
            .config(small_config(Backend::device(spec)))
            .build()
            .unwrap();
        let baseline = Queue::stats();
        session.run_chain(&mut Mt19937::new(1)).unwrap();
        reports.push(DeviceReport::new(spec, Queue::stats().delta(&baseline)));
    }
    assert!(
        reports[1].mean_occupancy() > reports[0].mean_occupancy(),
        "longer sequences must raise occupancy"
    );
    assert!(
        reports[1].kernel_speedup() > reports[0].kernel_speedup(),
        "longer sequences must raise the sustained speedup: {} vs {}",
        reports[0].kernel_speedup(),
        reports[1].kernel_speedup()
    );
}
