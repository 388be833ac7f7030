//! The `Session` facade: one entry point for every θ-estimation workload.
//!
//! A [`Session`] owns the full Figure 11 loop — propose → batch-score →
//! select → maximise — over any [`Dataset`] (single- or multi-locus), any
//! substitution [`ModelSpec`], either sampler strategy behind the
//! [`GenealogySampler`] trait, either execution [`Backend`], and any number
//! of streaming [`RunObserver`]s. It replaces the per-crate driver loops the
//! workspace used to carry (`lamarc::em`, `mpcgs::em`, ad-hoc example/bench
//! loops): the CLI, the examples and the figure/table harnesses all build a
//! [`SessionBuilder`] and differ only in configuration.
//!
//! ```text
//! SessionBuilder: dataset → model → sampler strategy → backend → observers
//! ```
//!
//! The facade is also the seam later backends plug into: a GPU or SIMD
//! engine only has to stand behind [`GenealogySampler`] (or the likelihood
//! engine it wraps) to become a selectable strategy — the likelihood
//! combine kernel (scalar, explicit four-lane SIMD, or runtime-dispatched
//! `auto`) is already surfaced here as [`SessionBuilder::kernel`].
//!
//! # Quick start
//!
//! A deliberately tiny end-to-end estimation (real runs use the defaults in
//! [`MpcgsConfig`]):
//!
//! ```
//! use exec::Backend;
//! use mcmc::rng::Mt19937;
//! use phylo::{Alignment, Kernel};
//! use mpcgs::{MpcgsConfig, SamplerStrategy, Session};
//!
//! let alignment = Alignment::from_letters(&[
//!     ("a", "ACGTACGTAACCGGTT"),
//!     ("b", "ACGTACGAAACCGGTA"),
//!     ("c", "ACGAACGTAACCGGTT"),
//!     ("d", "TCGTACGTAACCGGTT"),
//! ])
//! .unwrap();
//!
//! let config = MpcgsConfig {
//!     initial_theta: 0.5,
//!     em_iterations: 1,
//!     burn_in_draws: 16,
//!     sample_draws: 64,
//!     proposals_per_iteration: 4,
//!     draws_per_iteration: 4,
//!     ..MpcgsConfig::default()
//! };
//! let mut session = Session::builder()
//!     .alignment(alignment)
//!     .strategy(SamplerStrategy::MultiProposal)
//!     .config(config)
//!     .backend(Backend::Serial)
//!     .kernel(Kernel::Simd)
//!     .build()
//!     .unwrap();
//!
//! let mut rng = Mt19937::new(7);
//! let estimate = session.run(&mut rng).unwrap();
//! assert!(estimate.theta > 0.0 && estimate.theta.is_finite());
//! assert_eq!(estimate.iterations.len(), 1);
//! ```

use exec::Backend;
use mcmc::rng::Mt19937;
use rand::{Rng, RngCore};

use lamarc::mle::{maximize_relative_likelihood, RelativeLikelihood};
use lamarc::run::{
    ChainInfo, EmUpdate, GenealogySampler, RunCounters, RunObserver, RunReport, StepReport,
};
use lamarc::sampler::{LamarcSampler, SamplerConfig};
use phylo::likelihood::{ExecutionMode, Kernel, MultiLocusEngine};
use phylo::model::{Jc69, SubstitutionModel, F81};
use phylo::{upgma_tree, Alignment, Dataset, GeneTree, PhyloError};

use crate::checkpoint::{CheckpointState, SessionCheckpoint};
use crate::config::MpcgsConfig;
use crate::ensemble::{EnsembleReport, EnsembleSpec, ShardedSampler};
use crate::sampler::MultiProposalSampler;

/// Which transition kernel drives the chain. Both strategies target the same
/// posterior (Section 6.1); they differ in how the work is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerStrategy {
    /// The single-proposal Metropolis–Hastings baseline (LAMARC, Section
    /// 4.2).
    Baseline,
    /// The multi-proposal Generalized Metropolis–Hastings sampler (the
    /// paper's contribution, Section 4.3).
    #[default]
    MultiProposal,
}

impl SamplerStrategy {
    /// The short name the strategy reports through
    /// [`GenealogySampler::strategy`].
    pub fn name(&self) -> &'static str {
        match self {
            SamplerStrategy::Baseline => "baseline",
            SamplerStrategy::MultiProposal => "gmh",
        }
    }
}

/// Substitution model selection. Models taking empirical inputs estimate
/// them per locus, so every locus is scored under its own base composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelSpec {
    /// Jukes–Cantor 1969: uniform frequencies, one rate.
    Jc69,
    /// Felsenstein 1981 with base frequencies estimated from each locus (the
    /// model the paper's Eq. 20 uses, with π "approximated by the relative
    /// frequency of each nucleotide in all the sampling data").
    #[default]
    F81Empirical,
}

/// One expectation–maximisation round's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmIterationReport {
    /// The driving θ used for this chain.
    pub driving_theta: f64,
    /// The maximiser of the relative likelihood (next driving value).
    pub estimate: f64,
    /// Acceptance/move rate of the chain.
    pub acceptance_rate: f64,
    /// Mean `ln P(D|G)` over the retained samples.
    pub mean_log_data_likelihood: f64,
    /// Unified work counters of the chain.
    pub counters: RunCounters,
}

impl EmIterationReport {
    /// Record the observer-facing [`EmUpdate`] plus the chain's counters, so
    /// the two views of a round cannot drift apart.
    fn from_update(update: &EmUpdate, counters: RunCounters) -> Self {
        EmIterationReport {
            driving_theta: update.driving_theta,
            estimate: update.estimate,
            acceptance_rate: update.acceptance_rate,
            mean_log_data_likelihood: update.mean_log_data_likelihood,
            counters,
        }
    }
}

/// The outcome of a full session run (the EM loop of Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The final θ̂.
    pub theta: f64,
    /// Per-iteration records.
    pub iterations: Vec<EmIterationReport>,
    /// The measured host-vs-device cost breakdown of the whole run, when the
    /// session backend was `Backend::Device` (`None` otherwise).
    pub device: Option<exec::DeviceReport>,
}

impl SessionReport {
    /// Whether the estimate stabilised (relative change between the last two
    /// EM iterations below `tolerance`).
    pub fn converged(&self, tolerance: f64) -> bool {
        if self.iterations.len() < 2 {
            return false;
        }
        let last = self.iterations[self.iterations.len() - 1].estimate;
        let prev = self.iterations[self.iterations.len() - 2].estimate;
        ((last - prev) / prev.max(f64::MIN_POSITIVE)).abs() < tolerance
    }

    /// Total likelihood evaluations across all EM iterations.
    pub fn total_likelihood_evaluations(&self) -> usize {
        self.iterations.iter().map(|i| i.counters.likelihood_evaluations).sum()
    }
}

/// Broadcasts every event to a set of boxed observers.
struct FanOut<'a>(&'a mut [Box<dyn RunObserver>]);

impl RunObserver for FanOut<'_> {
    fn on_chain_start(&mut self, info: &ChainInfo) {
        for observer in self.0.iter_mut() {
            observer.on_chain_start(info);
        }
    }

    fn on_burn_in_progress(&mut self, draws_done: usize, burn_in_total: usize) {
        for observer in self.0.iter_mut() {
            observer.on_burn_in_progress(draws_done, burn_in_total);
        }
    }

    fn on_iteration(&mut self, step: &StepReport) {
        for observer in self.0.iter_mut() {
            observer.on_iteration(step);
        }
    }

    fn on_em_update(&mut self, update: &EmUpdate) {
        for observer in self.0.iter_mut() {
            observer.on_em_update(update);
        }
    }

    fn on_chain_end(&mut self, report: &RunReport) {
        for observer in self.0.iter_mut() {
            observer.on_chain_end(report);
        }
    }
}

/// Staged construction of a [`Session`]:
/// dataset → model → sampler strategy → backend → observers.
///
/// Every stage has a sensible default except the dataset; `build()` validates
/// the combination up front.
#[derive(Default)]
pub struct SessionBuilder {
    dataset: Option<Dataset>,
    model: ModelSpec,
    strategy: SamplerStrategy,
    config: MpcgsConfig,
    execution: ExecutionMode,
    initial_tree: Option<GeneTree>,
    observers: Vec<Box<dyn RunObserver>>,
    ensemble: Option<EnsembleSpec>,
}

impl SessionBuilder {
    /// An empty builder (equivalent to `Session::builder()`).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// The (possibly multi-locus) dataset to analyse. Required.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Single-locus convenience: wrap one alignment as the dataset.
    pub fn alignment(self, alignment: Alignment) -> Self {
        self.dataset(Dataset::single(alignment))
    }

    /// The substitution model (default [`ModelSpec::F81Empirical`]).
    pub fn model(mut self, model: ModelSpec) -> Self {
        self.model = model;
        self
    }

    /// The sampler strategy (default [`SamplerStrategy::MultiProposal`]).
    pub fn strategy(mut self, strategy: SamplerStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Chain sizing, θ₀, EM rounds and stream seeding. Note this replaces
    /// the whole configuration, including the backend — call
    /// [`SessionBuilder::backend`] afterwards to override it.
    pub fn config(mut self, config: MpcgsConfig) -> Self {
        self.config = config;
        self
    }

    /// Where the proposal-parallel loops run (overrides `config.backend`).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Which arithmetic kernel the likelihood engines combine partials with
    /// (overrides `config.kernel`). The default [`Kernel::Auto`] probes the
    /// CPU once at engine construction and selects the AVX2+FMA combine
    /// loop when the host supports it; [`Kernel::Simd`] pins the portable
    /// four-lane kernel. Both require the `phylo/simd` feature and degrade
    /// to the scalar kernel at runtime without it, so the setting is
    /// portable across builds.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// How each locus engine executes its per-site work
    /// ([`ExecutionMode::Parallel`] mirrors the per-site threads of the CUDA
    /// data-likelihood kernel).
    pub fn execution(mut self, mode: ExecutionMode) -> Self {
        self.execution = mode;
        self
    }

    /// Override the starting genealogy G₀ (default: the UPGMA tree of the
    /// primary locus, Section 5.1.3).
    pub fn initial_tree(mut self, tree: GeneTree) -> Self {
        self.initial_tree = Some(tree);
        self
    }

    /// Attach a streaming observer; may be called repeatedly, events fan out
    /// to every observer in attachment order.
    pub fn observe(mut self, observer: impl RunObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Shard every run of this session across an ensemble of chains (the
    /// paper's "many communicating chains" axis): the configured strategy is
    /// replicated per chain behind one [`ShardedSampler`], stepped in
    /// parallel on the session backend, with pooled samples feeding the
    /// maximisation stage. See [`crate::ensemble`] for the exchange
    /// policies.
    pub fn ensemble(mut self, spec: EnsembleSpec) -> Self {
        self.ensemble = Some(spec);
        self
    }

    /// Validate and assemble the session.
    pub fn build(self) -> Result<Session, PhyloError> {
        let dataset = self.dataset.ok_or(PhyloError::Empty { what: "session dataset" })?;
        self.config.validate()?;
        if let Some(spec) = &self.ensemble {
            spec.validate()?;
        }
        if let Some(tree) = &self.initial_tree {
            tree.validate()?;
            if tree.n_tips() != dataset.n_sequences() {
                return Err(PhyloError::InvalidTree {
                    message: format!(
                        "initial tree has {} tips but the dataset covers {} sequences",
                        tree.n_tips(),
                        dataset.n_sequences()
                    ),
                });
            }
        }
        Ok(Session {
            dataset,
            model: self.model,
            strategy: self.strategy,
            config: self.config,
            execution: self.execution,
            initial_tree: self.initial_tree,
            observers: self.observers,
            ensemble: self.ensemble,
        })
    }
}

/// A configured θ-estimation session: the single facade every driver (CLI,
/// examples, bench harnesses) runs through. See the crate-level quick start.
pub struct Session {
    dataset: Dataset,
    model: ModelSpec,
    strategy: SamplerStrategy,
    config: MpcgsConfig,
    execution: ExecutionMode,
    initial_tree: Option<GeneTree>,
    observers: Vec<Box<dyn RunObserver>>,
    ensemble: Option<EnsembleSpec>,
}

impl Session {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The dataset under analysis.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The configuration.
    pub fn config(&self) -> &MpcgsConfig {
        &self.config
    }

    /// The selected sampler strategy.
    pub fn strategy(&self) -> SamplerStrategy {
        self.strategy
    }

    /// The selected substitution model.
    pub fn model(&self) -> ModelSpec {
        self.model
    }

    /// The starting genealogy G₀: the configured override, or the UPGMA tree
    /// of the primary locus (Section 5.1.3).
    pub fn starting_tree(&self) -> Result<GeneTree, PhyloError> {
        match &self.initial_tree {
            Some(tree) => Ok(tree.clone()),
            None => upgma_tree(self.dataset.primary_alignment(), 1.0),
        }
    }

    /// The ensemble specification, when the session shards its runs.
    pub fn ensemble_spec(&self) -> Option<&EnsembleSpec> {
        self.ensemble.as_ref()
    }

    /// Replace the ensemble specification (`None` reverts to single-chain
    /// runs). Used by [`crate::ensemble::EnsembleBuilder`].
    pub fn set_ensemble(&mut self, spec: Option<EnsembleSpec>) {
        self.ensemble = spec;
    }

    /// Build the configured strategy as a boxed [`GenealogySampler`] driving
    /// the given θ. When an [`EnsembleSpec`] is configured this is a
    /// [`ShardedSampler`] over the whole ensemble; otherwise the bare
    /// per-chain strategy. Exposed so callers can drive chains step by step;
    /// most should use [`Session::run`] or [`Session::run_chain`].
    pub fn make_sampler(&self, theta: f64) -> Result<Box<dyn GenealogySampler>, PhyloError> {
        match &self.ensemble {
            Some(spec) => Ok(Box::new(ShardedSampler::from_session(self, spec, theta)?)),
            None => self.make_chain_sampler(theta, 1.0, 0),
        }
    }

    /// Build one member chain of an ensemble: the configured strategy at
    /// driving θ, tempered with inverse temperature `beta` (β = 1 is the
    /// untempered target), with the proposal stream seed decorrelated by
    /// `chain_index`. Chain 0 at β = 1 is **bit-identical** to the sampler a
    /// plain (non-ensemble) session builds — that is the compatibility
    /// contract the ensemble layer's determinism tests pin down.
    pub fn make_chain_sampler(
        &self,
        theta: f64,
        beta: f64,
        chain_index: usize,
    ) -> Result<Box<dyn GenealogySampler>, PhyloError> {
        let mut config = self.config;
        // Weyl-sequence offset: chain 0 keeps the configured seed exactly,
        // every other chain gets a decorrelated proposal stream family.
        config.stream_seed ^= (chain_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self.model {
            ModelSpec::Jc69 => self.make_sampler_with(config, theta, beta, |_| Jc69::new()),
            ModelSpec::F81Empirical => self
                .make_sampler_with(config, theta, beta, |a| F81::normalized(a.base_frequencies())),
        }
    }

    fn make_sampler_with<M, F>(
        &self,
        config: MpcgsConfig,
        theta: f64,
        beta: f64,
        model_for: F,
    ) -> Result<Box<dyn GenealogySampler>, PhyloError>
    where
        M: SubstitutionModel + 'static,
        F: Fn(&Alignment) -> M,
    {
        let engine = MultiLocusEngine::new(&self.dataset, model_for)
            .with_mode(self.execution)
            .with_kernel(config.kernel);
        Ok(match self.strategy {
            SamplerStrategy::Baseline => {
                let sampler_config = SamplerConfig {
                    theta,
                    burn_in: config.burn_in_draws,
                    samples: config.sample_draws,
                    thinning: config.thinning,
                    proposal: config.proposal,
                };
                Box::new(
                    LamarcSampler::new(engine, sampler_config)?.with_inverse_temperature(beta)?,
                )
            }
            SamplerStrategy::MultiProposal => Box::new(
                MultiProposalSampler::with_theta(engine, config, theta)?
                    .with_inverse_temperature(beta)?,
            ),
        })
    }

    /// Run the full estimator: `em_iterations` rounds of sampling (the
    /// expectation stage) each followed by maximisation of the relative
    /// likelihood of Eq. 26, chaining driving values and starting trees
    /// across rounds (Figure 11). Observers receive the chain events of each
    /// round plus one [`EmUpdate`] per maximisation.
    pub fn run<R: Rng>(&mut self, rng: &mut R) -> Result<SessionReport, PhyloError> {
        let rng: &mut dyn RngCore = rng;
        let mut theta = self.config.initial_theta;
        let mut iterations = Vec::with_capacity(self.config.em_iterations);
        let mut current_tree = Some(self.starting_tree()?);
        let device_spec = self.config.backend.device_spec();
        let device_baseline = device_spec.map(|_| exec::Queue::stats());

        // An ensemble session builds its sharded sampler once and retunes it
        // between rounds, so the per-chain host RNG streams keep advancing
        // across EM rounds (the multi-chain analogue of the shared host RNG
        // below).
        let mut sharded = match &self.ensemble {
            Some(spec) => Some(ShardedSampler::from_session(self, spec, theta)?),
            None => None,
        };

        for em_round in 0..self.config.em_iterations {
            let initial = current_tree.take().expect("a starting tree is always available");
            let report = match sharded.as_mut() {
                Some(sampler) => {
                    sampler.retune(self, theta)?;
                    let mut fan = FanOut(&mut self.observers);
                    sampler.run(initial, rng, &mut fan)?
                }
                None => {
                    // A fresh sampler per round, exactly as the pre-facade
                    // drivers built one — the bit-identity contract in
                    // tests/session_api.rs depends on it. The per-proposal
                    // stream epochs therefore restart each round (with the
                    // same stream_seed); rounds stay decorrelated because the
                    // host RNG advances across rounds, so φ, the generators
                    // being resimulated, and the index draws all differ even
                    // where raw stream states coincide.
                    let mut sampler = self.make_chain_sampler(theta, 1.0, 0)?;
                    let mut fan = FanOut(&mut self.observers);
                    sampler.run(initial, rng, &mut fan)?
                }
            };

            let summaries = report.interval_summaries();
            let relative = RelativeLikelihood::new(theta, &summaries).map_err(|e| {
                PhyloError::InvalidTree { message: format!("relative likelihood failed: {e}") }
            })?;
            let estimate = maximize_relative_likelihood(&relative, &self.config.ascent);
            let update = EmUpdate {
                iteration: em_round,
                driving_theta: theta,
                estimate,
                acceptance_rate: report.acceptance_rate(),
                mean_log_data_likelihood: report.mean_log_data_likelihood(),
            };
            FanOut(&mut self.observers).on_em_update(&update);
            iterations.push(EmIterationReport::from_update(&update, report.counters));
            theta = estimate.max(1e-9);
            current_tree = Some(report.final_tree);
        }

        let device = device_spec.zip(device_baseline).map(|(spec, baseline)| {
            exec::DeviceReport::new(spec, exec::Queue::stats().delta(&baseline))
        });
        Ok(SessionReport { theta, iterations, device })
    }

    /// Run a single chain at the configured θ₀ — no maximisation stage — and
    /// return the unified [`RunReport`] (trace, samples, counters). This is
    /// what diagnostics, benches and the multi-chain work-around build on.
    pub fn run_chain<R: Rng>(&mut self, rng: &mut R) -> Result<RunReport, PhyloError> {
        let rng: &mut dyn RngCore = rng;
        let mut sampler = self.make_sampler(self.config.initial_theta)?;
        let initial = self.starting_tree()?;
        let mut fan = FanOut(&mut self.observers);
        sampler.run(initial, rng, &mut fan)
    }

    /// Run one full ensemble pass at the configured θ₀ and return the
    /// aggregated [`EnsembleReport`] (per-chain reports, pooled θ estimate,
    /// swap counters, cross-chain R̂). Requires an [`EnsembleSpec`]
    /// (configure one with [`SessionBuilder::ensemble`]).
    ///
    /// Observers see the tagged per-chain event stream documented on
    /// [`ShardedSampler`]. The host RNG seeds nothing here — every chain
    /// consumes its own deterministic stream from the spec — but the
    /// parameter is kept so ensemble and single-chain drivers stay
    /// call-compatible.
    pub fn run_ensemble<R: Rng>(&mut self, rng: &mut R) -> Result<EnsembleReport, PhyloError> {
        let spec = self.ensemble.clone().ok_or_else(|| PhyloError::InvalidState {
            message: "run_ensemble requires an ensemble spec \
                      (SessionBuilder::ensemble or Ensemble::builder)"
                .to_string(),
        })?;
        let rng: &mut dyn RngCore = rng;
        let mut sampler = ShardedSampler::from_session(self, &spec, self.config.initial_theta)?;
        let initial = self.starting_tree()?;
        let mut fan = FanOut(&mut self.observers);
        sampler.run(initial, rng, &mut fan)?;
        sampler.take_ensemble_report().ok_or_else(|| PhyloError::InvalidState {
            message: "ensemble run finished without a report".to_string(),
        })
    }

    /// Evaluate the relative-likelihood curve for one chain run (Figure 5):
    /// run a single chain with the configured driving value and return
    /// `(θ, ln L(θ))` pairs over the grid.
    pub fn likelihood_curve<R: Rng>(
        &mut self,
        rng: &mut R,
        grid: &[f64],
    ) -> Result<Vec<(f64, f64)>, PhyloError> {
        let report = self.run_chain(rng)?;
        let summaries = report.interval_summaries();
        let relative =
            RelativeLikelihood::new(self.config.initial_theta, &summaries).map_err(|e| {
                PhyloError::InvalidTree { message: format!("relative likelihood failed: {e}") }
            })?;
        Ok(relative.curve(grid))
    }

    /// Convert the session into a preemptible [`SessionRunner`] seeded with
    /// `seed`: the incremental form of [`Session::run`] (which internally
    /// does `mcmc::rng::host_rng(seed)` host seeding in the CLI driver). Stepping
    /// the runner to completion is bit-identical to `run` with the same host
    /// RNG.
    pub fn into_runner(self, seed: u32) -> Result<SessionRunner, PhyloError> {
        SessionRunner::start(self, seed)
    }

    /// Convert the session into a [`SessionRunner`] continuing from a
    /// [`SessionCheckpoint`], bit-identically to the run that produced it.
    ///
    /// The session must match the checkpoint: same sampler strategy and (for
    /// ensemble checkpoints) an [`EnsembleSpec`] equal to the one the
    /// checkpoint was taken under — mismatches fail with pointed errors
    /// rather than silently continuing a different run. Observer events that
    /// fired before the checkpoint are **not** replayed; the resumed runner
    /// emits events from the checkpointed iteration onward.
    pub fn resume(self, checkpoint: &SessionCheckpoint) -> Result<SessionRunner, PhyloError> {
        SessionRunner::resume(self, checkpoint)
    }
}

/// The sampler + EM-round state of a [`SessionRunner`]'s round in flight.
enum RunnerMode {
    /// A plain single-chain session: a fresh sampler per EM round, stepped
    /// with the host RNG.
    Single { sampler: Box<dyn GenealogySampler> },
    /// A sharded session: one [`ShardedSampler`] retuned across rounds,
    /// advanced a dispatch segment at a time.
    Ensemble { sampler: Box<ShardedSampler> },
}

/// A [`Session`] run unrolled into resumable increments: the same Figure 11
/// loop as [`Session::run`], but advanced one kernel step (single chain) or
/// one dispatch segment (ensemble) per [`SessionRunner::step`] call, so a
/// driver can preempt the run at any point — and freeze it with
/// [`SessionRunner::checkpoint`].
///
/// # Bit-identity contract
///
/// Driving a runner to completion produces a [`SessionReport`] equal
/// bit-for-bit to `Session::run` with the same host RNG seed, and a runner
/// torn down at any step and rebuilt via [`Session::resume`] continues the
/// run bit-identically — the fault-injection tests kill runs at randomized
/// iteration counts to pin this down. The one exception is the *device*
/// accounting attached to `Backend::Device` runs: queue statistics are
/// thread-cumulative wall-clock style counters and restart at resume, so
/// checkpoint equality is only guaranteed for the sampling results, not the
/// simulated-device cost report.
///
/// # Round atomicity
///
/// EM round transitions (finish → maximise → retune/rebuild → begin) happen
/// *inside* the [`SessionRunner::step`] call that completes the round's last
/// iteration. The runner is therefore always either mid-round with every
/// chain active — where [`SessionRunner::checkpoint`] is guaranteed to
/// succeed — or finished.
pub struct SessionRunner {
    session: Session,
    seed: u32,
    host_rng: Mt19937,
    theta: f64,
    em_round: usize,
    iterations: Vec<EmIterationReport>,
    mode: RunnerMode,
    device_spec: Option<exec::DeviceSpec>,
    device_baseline: Option<exec::DeviceStats>,
    finished: Option<SessionReport>,
}

impl SessionRunner {
    /// Begin round 0 (the `begin` + `on_chain_start` prologue of
    /// [`Session::run`]'s first iteration).
    fn start(session: Session, seed: u32) -> Result<SessionRunner, PhyloError> {
        let theta = session.config.initial_theta;
        let device_spec = session.config.backend.device_spec();
        let device_baseline = device_spec.map(|_| exec::Queue::stats());
        let initial = session.starting_tree()?;
        let mode = match &session.ensemble {
            Some(spec) => RunnerMode::Ensemble {
                sampler: Box::new(ShardedSampler::from_session(&session, spec, theta)?),
            },
            None => RunnerMode::Single { sampler: session.make_chain_sampler(theta, 1.0, 0)? },
        };
        let mut runner = SessionRunner {
            session,
            seed,
            host_rng: mcmc::rng::host_rng(seed),
            theta,
            em_round: 0,
            iterations: Vec::new(),
            mode,
            device_spec,
            device_baseline,
            finished: None,
        };
        runner.begin_round(initial)?;
        Ok(runner)
    }

    fn resume(
        session: Session,
        checkpoint: &SessionCheckpoint,
    ) -> Result<SessionRunner, PhyloError> {
        if checkpoint.strategy != session.strategy.name() {
            return Err(PhyloError::InvalidState {
                message: format!(
                    "checkpoint mismatch: the checkpoint was taken under the {:?} strategy but \
                     this session is configured for {:?}",
                    checkpoint.strategy,
                    session.strategy.name()
                ),
            });
        }
        let device_spec = session.config.backend.device_spec();
        let device_baseline = device_spec.map(|_| exec::Queue::stats());
        let mode = match &checkpoint.state {
            CheckpointState::SingleChain(snapshot) => {
                if let Some(spec) = &session.ensemble {
                    return Err(PhyloError::InvalidState {
                        message: format!(
                            "checkpoint mismatch: the checkpoint froze a single-chain run but \
                             this session shards across {} chain(s)",
                            spec.n_chains
                        ),
                    });
                }
                let mut sampler = session.make_chain_sampler(checkpoint.theta, 1.0, 0)?;
                sampler.import_chain(snapshot.as_ref().clone())?;
                RunnerMode::Single { sampler }
            }
            CheckpointState::Ensemble { spec, snapshot } => {
                match &session.ensemble {
                    Some(configured) if configured == spec => {}
                    Some(configured) => {
                        return Err(PhyloError::InvalidState {
                            message: format!(
                                "checkpoint mismatch: the checkpoint's ensemble spec \
                                 ({} chain(s), {} exchange) differs from this session's \
                                 ({} chain(s), {} exchange)",
                                spec.n_chains,
                                spec.exchange.name(),
                                configured.n_chains,
                                configured.exchange.name()
                            ),
                        });
                    }
                    None => {
                        return Err(PhyloError::InvalidState {
                            message: format!(
                                "checkpoint mismatch: the checkpoint froze a {}-chain ensemble \
                                 but this session runs a single chain",
                                spec.n_chains
                            ),
                        });
                    }
                }
                let mut sampler = ShardedSampler::from_session(&session, spec, checkpoint.theta)?;
                sampler.import_ensemble(snapshot.clone())?;
                RunnerMode::Ensemble { sampler: Box::new(sampler) }
            }
        };
        let mut host_rng = mcmc::rng::host_rng(checkpoint.seed);
        host_rng.discard(checkpoint.host_rng_position);
        Ok(SessionRunner {
            session,
            seed: checkpoint.seed,
            host_rng,
            theta: checkpoint.theta,
            em_round: checkpoint.em_round,
            iterations: checkpoint.iterations.clone(),
            mode,
            device_spec,
            device_baseline,
            finished: None,
        })
    }

    /// `begin` the current round's chain(s) on `initial` and emit the
    /// matching `on_chain_start` event(s).
    fn begin_round(&mut self, initial: GeneTree) -> Result<(), PhyloError> {
        match &mut self.mode {
            RunnerMode::Single { sampler } => {
                sampler.begin(initial)?;
                FanOut(&mut self.session.observers).on_chain_start(&sampler.chain_info());
            }
            RunnerMode::Ensemble { sampler } => {
                sampler.begin(initial)?;
                let mut fan = FanOut(&mut self.session.observers);
                for info in sampler.chain_infos() {
                    fan.on_chain_start(&info);
                }
            }
        }
        Ok(())
    }

    /// Whether the whole EM run has completed.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The final report, once [`SessionRunner::is_finished`].
    pub fn report(&self) -> Option<&SessionReport> {
        self.finished.as_ref()
    }

    /// The host RNG seed the run was started with.
    pub fn seed(&self) -> u32 {
        self.seed
    }

    /// The driving θ of the round in flight (or the final θ̂ when finished).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The EM round in flight (0-based; equals the configured round count
    /// when finished).
    pub fn em_round(&self) -> usize {
        self.em_round
    }

    /// The session being driven.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Advance the run by one increment — one kernel step for a single
    /// chain, one dispatch segment for an ensemble — completing the EM round
    /// (maximise, retune, begin the next round) within the same call when
    /// the increment was the round's last. Returns `true` once the whole run
    /// is finished; stepping a finished runner is a no-op returning `true`.
    pub fn step(&mut self) -> Result<bool, PhyloError> {
        if self.finished.is_some() {
            return Ok(true);
        }
        let round_done = match &mut self.mode {
            RunnerMode::Single { sampler } => {
                let step = sampler.step(&mut self.host_rng)?;
                let mut fan = FanOut(&mut self.session.observers);
                if step.in_burn_in() {
                    fan.on_burn_in_progress(step.draws_done, step.burn_in_draws);
                }
                fan.on_iteration(&step);
                sampler.is_done()
            }
            RunnerMode::Ensemble { sampler } => {
                let steps = sampler.step_segment()?;
                let mut fan = FanOut(&mut self.session.observers);
                for step in steps {
                    if step.in_burn_in() {
                        fan.on_burn_in_progress(step.draws_done, step.burn_in_draws);
                    }
                    fan.on_iteration(&step);
                }
                sampler.is_done()
            }
        };
        if round_done {
            self.complete_round()?;
        }
        Ok(self.finished.is_some())
    }

    /// Drive the run to completion and return the final report — the
    /// incremental equivalent of [`Session::run`].
    pub fn run_to_completion(&mut self) -> Result<SessionReport, PhyloError> {
        while !self.step()? {}
        Ok(self.finished.clone().expect("step() reported completion"))
    }

    /// The round's epilogue, mirroring the tail of [`Session::run`]'s loop
    /// body: finish the chain(s), maximise the relative likelihood, record
    /// the round, then either begin the next round or seal the final report.
    fn complete_round(&mut self) -> Result<(), PhyloError> {
        let report = match &mut self.mode {
            RunnerMode::Single { sampler } => {
                let report = sampler.finish()?;
                FanOut(&mut self.session.observers).on_chain_end(&report);
                report
            }
            RunnerMode::Ensemble { sampler } => {
                let pooled = sampler.finish()?;
                if let Some(ensemble) = sampler.ensemble_report() {
                    let mut fan = FanOut(&mut self.session.observers);
                    for chain in &ensemble.chains {
                        fan.on_chain_end(chain);
                    }
                }
                pooled
            }
        };

        let summaries = report.interval_summaries();
        let relative = RelativeLikelihood::new(self.theta, &summaries).map_err(|e| {
            PhyloError::InvalidTree { message: format!("relative likelihood failed: {e}") }
        })?;
        let estimate = maximize_relative_likelihood(&relative, &self.session.config.ascent);
        let update = EmUpdate {
            iteration: self.em_round,
            driving_theta: self.theta,
            estimate,
            acceptance_rate: report.acceptance_rate(),
            mean_log_data_likelihood: report.mean_log_data_likelihood(),
        };
        FanOut(&mut self.session.observers).on_em_update(&update);
        self.iterations.push(EmIterationReport::from_update(&update, report.counters));
        self.theta = estimate.max(1e-9);
        self.em_round += 1;

        if self.em_round >= self.session.config.em_iterations {
            let device = self.device_spec.zip(self.device_baseline).map(|(spec, baseline)| {
                exec::DeviceReport::new(spec, exec::Queue::stats().delta(&baseline))
            });
            self.finished = Some(SessionReport {
                theta: self.theta,
                iterations: self.iterations.clone(),
                device,
            });
            return Ok(());
        }

        // Begin the next round on the finished round's final tree, exactly
        // as Session::run chains `current_tree` across rounds.
        match &mut self.mode {
            RunnerMode::Single { sampler } => {
                *sampler = self.session.make_chain_sampler(self.theta, 1.0, 0)?;
            }
            RunnerMode::Ensemble { sampler } => {
                sampler.retune(&self.session, self.theta)?;
            }
        }
        self.begin_round(report.final_tree)
    }

    /// Freeze the run: the EM position plus the full chain (or ensemble)
    /// state as a [`SessionCheckpoint`]. Only a run in flight can be frozen
    /// — a finished runner has nothing left to resume and errors here (its
    /// [`SessionRunner::report`] is the deliverable).
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, PhyloError> {
        if self.finished.is_some() {
            return Err(PhyloError::InvalidState {
                message: "the run is finished: there is no in-flight state to checkpoint"
                    .to_string(),
            });
        }
        let state = match &self.mode {
            RunnerMode::Single { sampler } => CheckpointState::SingleChain(Box::new(
                sampler.export_chain().ok_or_else(no_active_chain_for_checkpoint)?,
            )),
            RunnerMode::Ensemble { sampler } => CheckpointState::Ensemble {
                spec: self
                    .session
                    .ensemble
                    .clone()
                    .expect("an ensemble runner always carries a spec"),
                snapshot: sampler.export_ensemble().ok_or_else(no_active_chain_for_checkpoint)?,
            },
        };
        Ok(SessionCheckpoint {
            strategy: self.session.strategy.name().to_string(),
            seed: self.seed,
            host_rng_position: self.host_rng.position(),
            theta: self.theta,
            em_round: self.em_round,
            iterations: self.iterations.clone(),
            state,
        })
    }
}

fn no_active_chain_for_checkpoint() -> PhyloError {
    PhyloError::InvalidState {
        message: "checkpoint requires an active chain on every rung (the runner keeps rounds \
                  atomic, so this indicates a strategy that does not support export)"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalescent::{CoalescentSimulator, SequenceSimulator};
    use mcmc::rng::Mt19937;
    use phylo::Locus;

    fn simulated_alignment(rng: &mut Mt19937, n: usize, sites: usize, theta: f64) -> Alignment {
        let tree = CoalescentSimulator::constant(theta).unwrap().simulate(rng, n).unwrap();
        SequenceSimulator::new(Jc69::new(), sites, 1.0).unwrap().simulate(rng, &tree).unwrap()
    }

    fn small_config() -> MpcgsConfig {
        MpcgsConfig {
            initial_theta: 0.5,
            em_iterations: 2,
            proposals_per_iteration: 8,
            draws_per_iteration: 8,
            burn_in_draws: 80,
            sample_draws: 600,
            backend: Backend::Serial,
            ..Default::default()
        }
    }

    #[test]
    fn session_runs_and_chains_the_driving_value() {
        let mut rng = Mt19937::new(91);
        let alignment = simulated_alignment(&mut rng, 6, 80, 1.0);
        let mut session =
            Session::builder().alignment(alignment).config(small_config()).build().unwrap();
        assert_eq!(session.dataset().n_sequences(), 6);
        assert_eq!(session.config().em_iterations, 2);
        assert_eq!(session.strategy(), SamplerStrategy::MultiProposal);
        assert_eq!(session.model(), ModelSpec::F81Empirical);
        let estimate = session.run(&mut rng).unwrap();
        assert_eq!(estimate.iterations.len(), 2);
        assert!(estimate.theta > 0.0 && estimate.theta.is_finite());
        assert!(
            (estimate.iterations[1].driving_theta - estimate.iterations[0].estimate).abs() < 1e-12
        );
        assert!(estimate.total_likelihood_evaluations() > 0);
        for it in &estimate.iterations {
            assert!(it.acceptance_rate > 0.0);
            assert!(it.mean_log_data_likelihood.is_finite());
        }
        let _ = estimate.converged(0.5);
    }

    #[test]
    fn estimate_lands_in_a_plausible_range() {
        let mut rng = Mt19937::new(97);
        let alignment = simulated_alignment(&mut rng, 8, 150, 1.0);
        let config = MpcgsConfig { sample_draws: 1_200, ..small_config() };
        let mut session = Session::builder().alignment(alignment).config(config).build().unwrap();
        let estimate = session.run(&mut rng).unwrap();
        assert!(
            estimate.theta > 0.05 && estimate.theta < 10.0,
            "estimate {} is implausible for data simulated at theta = 1",
            estimate.theta
        );
    }

    #[test]
    fn baseline_strategy_estimates_through_the_same_facade() {
        let mut rng = Mt19937::new(59);
        let alignment = simulated_alignment(&mut rng, 8, 150, 1.0);
        let config = MpcgsConfig {
            initial_theta: 0.1,
            em_iterations: 2,
            burn_in_draws: 200,
            sample_draws: 1_500,
            ..small_config()
        };
        let mut session = Session::builder()
            .alignment(alignment)
            .strategy(SamplerStrategy::Baseline)
            .config(config)
            .build()
            .unwrap();
        let estimate = session.run(&mut rng).unwrap();
        assert_eq!(estimate.iterations.len(), 2);
        assert!(
            estimate.theta > 0.05 && estimate.theta < 10.0,
            "estimate {} is implausible for data simulated at theta = 1",
            estimate.theta
        );
        for it in &estimate.iterations {
            assert!(it.acceptance_rate > 0.0 && it.acceptance_rate <= 1.0);
            // The baseline pays one full prune and commits every accept.
            assert_eq!(it.counters.workspace_commits, it.counters.accepted);
        }
    }

    #[test]
    fn likelihood_curve_peaks_away_from_a_tiny_driving_value() {
        // Figure 5's qualitative shape: with a driving value far below the
        // truth, the relative-likelihood curve must rise away from theta0.
        let mut rng = Mt19937::new(101);
        let alignment = simulated_alignment(&mut rng, 6, 120, 1.0);
        let config = MpcgsConfig {
            initial_theta: 0.05,
            em_iterations: 1,
            sample_draws: 800,
            ..small_config()
        };
        let mut session = Session::builder().alignment(alignment).config(config).build().unwrap();
        let grid = RelativeLikelihood::log_grid(0.05, 5.0, 20);
        let curve = session.likelihood_curve(&mut rng, &grid).unwrap();
        assert_eq!(curve.len(), 20);
        let at_driving = curve[0].1;
        let best = curve.iter().cloned().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert!(
            best.1 > at_driving,
            "curve should rise away from the driving value: best {best:?} vs {at_driving}"
        );
        assert!(best.0 > 0.05);
    }

    #[test]
    fn multi_locus_sessions_run_over_shared_individuals() {
        let mut rng = Mt19937::new(2_026);
        let first = simulated_alignment(&mut rng, 5, 60, 1.0);
        // A second locus over the same individuals (names 1..=5 from the
        // simulator), simulated independently.
        let names: Vec<String> = first.names().iter().map(|s| s.to_string()).collect();
        let tree2 = CoalescentSimulator::constant(1.0)
            .unwrap()
            .simulate_labelled(&mut rng, &names)
            .unwrap();
        let second = SequenceSimulator::new(Jc69::new(), 90, 1.0)
            .unwrap()
            .simulate(&mut rng, &tree2)
            .unwrap();
        let dataset =
            Dataset::new(vec![Locus::new("l0", first), Locus::new("l1", second)]).unwrap();
        let config = MpcgsConfig {
            em_iterations: 1,
            burn_in_draws: 40,
            sample_draws: 300,
            ..small_config()
        };
        let mut session = Session::builder().dataset(dataset).config(config).build().unwrap();
        let estimate = session.run(&mut rng).unwrap();
        assert!(estimate.theta > 0.0 && estimate.theta.is_finite());
        assert!(estimate.iterations[0].mean_log_data_likelihood.is_finite());
    }

    #[test]
    fn invalid_sessions_are_rejected_up_front() {
        let mut rng = Mt19937::new(103);
        let alignment = simulated_alignment(&mut rng, 4, 40, 1.0);
        // Missing dataset.
        assert!(Session::builder().config(small_config()).build().is_err());
        // Degenerate configuration.
        let bad = MpcgsConfig { em_iterations: 0, ..small_config() };
        assert!(Session::builder().alignment(alignment.clone()).config(bad).build().is_err());
        // Initial tree over the wrong tip count.
        let mut other_rng = Mt19937::new(1);
        let wrong =
            CoalescentSimulator::constant(1.0).unwrap().simulate(&mut other_rng, 7).unwrap();
        assert!(Session::builder()
            .alignment(alignment)
            .config(small_config())
            .initial_tree(wrong)
            .build()
            .is_err());
    }

    fn two_sessions(config: MpcgsConfig) -> (Session, Session) {
        let mut rng = Mt19937::new(4_242);
        let alignment = simulated_alignment(&mut rng, 6, 60, 1.0);
        let a = Session::builder().alignment(alignment.clone()).config(config).build().unwrap();
        let b = Session::builder().alignment(alignment).config(config).build().unwrap();
        (a, b)
    }

    #[test]
    fn runner_matches_session_run_bit_for_bit() {
        let config = MpcgsConfig {
            em_iterations: 2,
            burn_in_draws: 24,
            sample_draws: 120,
            ..small_config()
        };
        let (mut direct, incremental) = two_sessions(config);
        let seed = 77;
        let baseline = direct.run(&mut Mt19937::new(seed)).unwrap();
        let resumable = incremental.into_runner(seed).unwrap().run_to_completion().unwrap();
        assert_eq!(baseline, resumable);
    }

    #[test]
    fn checkpoint_resume_mid_run_is_bit_identical() {
        let config = MpcgsConfig {
            em_iterations: 2,
            burn_in_draws: 24,
            sample_draws: 120,
            ..small_config()
        };
        let (uninterrupted, interrupted) = two_sessions(config);
        let seed = 31;
        let baseline = uninterrupted.into_runner(seed).unwrap().run_to_completion().unwrap();

        // Kill the run mid-flight, round-trip the checkpoint through its
        // JSON text, resume on a freshly built session, and finish.
        let mut runner = interrupted.into_runner(seed).unwrap();
        for _ in 0..13 {
            assert!(!runner.step().unwrap());
        }
        let text = runner.checkpoint().unwrap().to_pretty();
        drop(runner);

        let checkpoint = SessionCheckpoint::parse(&text).unwrap();
        let (_, fresh) = two_sessions(config);
        let resumed = fresh.resume(&checkpoint).unwrap().run_to_completion().unwrap();
        assert_eq!(baseline, resumed);
    }

    #[test]
    fn resume_rejects_mismatched_sessions_with_pointed_errors() {
        let config = MpcgsConfig { em_iterations: 1, ..small_config() };
        let (session, other) = two_sessions(config);
        let runner = session.into_runner(5).unwrap();
        let checkpoint = runner.checkpoint().unwrap();

        // Wrong strategy.
        let mut rng = Mt19937::new(4_242);
        let alignment = simulated_alignment(&mut rng, 6, 60, 1.0);
        let baseline_session = Session::builder()
            .alignment(alignment)
            .strategy(SamplerStrategy::Baseline)
            .config(config)
            .build()
            .unwrap();
        let err = baseline_session.resume(&checkpoint).err().expect("resume must fail").to_string();
        assert!(err.contains("gmh") && err.contains("baseline"), "unpointed error: {err}");

        // Single-chain checkpoint into an ensemble session.
        let mut ensembled = other;
        ensembled.set_ensemble(Some(EnsembleSpec::independent(2)));
        let err = ensembled.resume(&checkpoint).err().expect("resume must fail").to_string();
        assert!(err.contains("single-chain"), "unpointed error: {err}");
    }

    #[test]
    fn finished_runner_rejects_checkpoint_and_steps_as_noop() {
        let config =
            MpcgsConfig { em_iterations: 1, burn_in_draws: 16, sample_draws: 48, ..small_config() };
        let (session, _) = two_sessions(config);
        let mut runner = session.into_runner(9).unwrap();
        runner.run_to_completion().unwrap();
        assert!(runner.is_finished());
        assert!(runner.step().unwrap());
        let err = runner.checkpoint().unwrap_err().to_string();
        assert!(err.contains("finished"), "unpointed error: {err}");
        assert!(runner.report().is_some());
    }

    #[test]
    fn converged_logic() {
        let it = |estimate: f64| EmIterationReport {
            driving_theta: 1.0,
            estimate,
            acceptance_rate: 0.5,
            mean_log_data_likelihood: -5.0,
            counters: RunCounters::default(),
        };
        let single = SessionReport { theta: 1.0, iterations: vec![it(1.0)], device: None };
        assert!(!single.converged(0.1));
        let stable =
            SessionReport { theta: 1.01, iterations: vec![it(1.0), it(1.01)], device: None };
        assert!(stable.converged(0.05));
        assert!(!stable.converged(0.001));
        assert_eq!(SamplerStrategy::Baseline.name(), "baseline");
        assert_eq!(SamplerStrategy::MultiProposal.name(), "gmh");
    }
}
