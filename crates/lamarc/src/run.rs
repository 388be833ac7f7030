//! The unified sampler-strategy API.
//!
//! Both genealogy samplers in this workspace — the single-proposal baseline
//! ([`LamarcSampler`](crate::sampler::LamarcSampler)) and the multi-proposal
//! Generalized-MH sampler (`mpcgs::MultiProposalSampler`) — drive the same
//! outer loop: start from a genealogy, repeatedly apply a transition kernel,
//! record draws, and hand back samples plus work counters. This module gives
//! that loop one vocabulary so the two kernels become interchangeable
//! *strategies* behind a `Session` facade:
//!
//! * [`GenealogySampler`] — the strategy trait: `begin`/`step`/`finish` for
//!   streaming control, plus a default [`GenealogySampler::run`] that drives
//!   a whole chain and reports progress to a [`RunObserver`].
//! * [`RunReport`] / [`RunCounters`] — the unified outcome type: retained
//!   samples, the full trace, and one set of acceptance/caching counters
//!   shared by every strategy (replacing the per-crate `SamplerRun` /
//!   `GmhRunStats` types).
//! * [`RunObserver`] — the streaming event-hook API: burn-in progress,
//!   per-iteration trace points, EM updates and final diagnostics, replacing
//!   ad-hoc printing in drivers.

use mcmc::chain::Trace;
use rand::RngCore;

use phylo::tree::CoalescentIntervals;
use phylo::{GeneTree, PhyloError};

use crate::sampler::GenealogySample;

/// Work counters collected during a chain run, shared by every sampler
/// strategy. For the baseline sampler one *iteration* is one MH transition
/// and one *draw* is recorded per transition; for the multi-proposal sampler
/// one iteration constructs a whole proposal set and records `M` index draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Kernel iterations (MH transitions / proposal-set constructions).
    pub iterations: usize,
    /// Proposals generated.
    pub proposals_generated: usize,
    /// Data-likelihood evaluations performed.
    pub likelihood_evaluations: usize,
    /// Output draws recorded (burn-in included).
    pub draws: usize,
    /// Draws that moved away from the generator state: accepted transitions
    /// for the baseline, index draws landing off the generator for GMH.
    pub accepted: usize,
    /// Interior nodes recomputed along dirty paths by the batched likelihood
    /// engine (proposal scoring).
    pub nodes_repruned: usize,
    /// Interior nodes recomputed by full prunes (generator workspace builds
    /// on cache misses).
    pub nodes_full_pruned: usize,
    /// Interior nodes recomputed while promoting accepted proposals into the
    /// cached generator workspace (commit-on-accept).
    pub nodes_committed: usize,
    /// Batch evaluations whose generator workspace was served from the
    /// engine's cache.
    pub generator_cache_hits: usize,
    /// Edge transition matrices served from the per-workspace
    /// [`phylo::likelihood::EdgeMatrixCache`] during batch evaluations
    /// (workspace rebuilds and dirty-path rescores).
    pub matrix_cache_hits: usize,
    /// Edge transition matrices recomputed during batch evaluations because
    /// the edge's effective branch length changed (or the cache was cold).
    pub matrix_cache_misses: usize,
    /// Accepted moves promoted into the cached workspace instead of being
    /// repaid with a full re-prune.
    pub workspace_commits: usize,
    /// Replica-exchange swaps attempted between ensemble chains (zero for a
    /// single chain or an `Independent` ensemble).
    pub swap_attempts: usize,
    /// Replica-exchange swaps accepted (Metropolis acceptance in log
    /// domain over the rungs' inverse temperatures).
    pub swaps_accepted: usize,
}

impl RunCounters {
    /// Fraction of draws that moved away from the generator state (the
    /// acceptance rate of the baseline, the move rate of the index chain for
    /// the multi-proposal sampler).
    pub fn acceptance_rate(&self) -> f64 {
        if self.draws == 0 {
            0.0
        } else {
            self.accepted as f64 / self.draws as f64
        }
    }

    /// Interior-node recomputations actually performed per likelihood
    /// evaluation: dirty paths, amortised generator rebuilds, and the dirty
    /// paths replayed by commit-on-accept promotions.
    pub fn nodes_pruned_per_evaluation(&self) -> f64 {
        if self.likelihood_evaluations == 0 {
            0.0
        } else {
            (self.nodes_repruned + self.nodes_full_pruned + self.nodes_committed) as f64
                / self.likelihood_evaluations as f64
        }
    }

    /// Fraction of edge transition-matrix consults served from the
    /// per-workspace cache (0.0 when no consults happened).
    pub fn matrix_cache_hit_rate(&self) -> f64 {
        let consults = self.matrix_cache_hits + self.matrix_cache_misses;
        if consults == 0 {
            0.0
        } else {
            self.matrix_cache_hits as f64 / consults as f64
        }
    }

    /// Fraction of attempted replica-exchange swaps that were accepted
    /// (0.0 when none were attempted).
    pub fn swap_acceptance_rate(&self) -> f64 {
        if self.swap_attempts == 0 {
            0.0
        } else {
            self.swaps_accepted as f64 / self.swap_attempts as f64
        }
    }

    /// Element-wise sum of two counter sets (used by ensemble drivers to
    /// aggregate per-chain counters into one pooled view).
    pub fn merged(&self, other: &RunCounters) -> RunCounters {
        RunCounters {
            iterations: self.iterations + other.iterations,
            proposals_generated: self.proposals_generated + other.proposals_generated,
            likelihood_evaluations: self.likelihood_evaluations + other.likelihood_evaluations,
            draws: self.draws + other.draws,
            accepted: self.accepted + other.accepted,
            nodes_repruned: self.nodes_repruned + other.nodes_repruned,
            nodes_full_pruned: self.nodes_full_pruned + other.nodes_full_pruned,
            nodes_committed: self.nodes_committed + other.nodes_committed,
            generator_cache_hits: self.generator_cache_hits + other.generator_cache_hits,
            matrix_cache_hits: self.matrix_cache_hits + other.matrix_cache_hits,
            matrix_cache_misses: self.matrix_cache_misses + other.matrix_cache_misses,
            workspace_commits: self.workspace_commits + other.workspace_commits,
            swap_attempts: self.swap_attempts + other.swap_attempts,
            swaps_accepted: self.swaps_accepted + other.swaps_accepted,
        }
    }
}

/// The unified outcome of one chain run, whichever strategy produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Retained post-burn-in samples (interval summaries plus data
    /// likelihoods).
    pub samples: Vec<GenealogySample>,
    /// Trace of `ln P(D|G)` of the sampled state at every draw, burn-in
    /// included.
    pub trace: Trace,
    /// Work counters.
    pub counters: RunCounters,
    /// The final genealogy (used to seed follow-up chains).
    pub final_tree: GeneTree,
}

impl RunReport {
    /// Fraction of draws that moved away from the generator state.
    pub fn acceptance_rate(&self) -> f64 {
        self.counters.acceptance_rate()
    }

    /// The interval summaries of the retained samples (what the maximisation
    /// stage consumes).
    pub fn interval_summaries(&self) -> Vec<CoalescentIntervals> {
        self.samples.iter().map(|s| s.intervals).collect()
    }

    /// Mean `ln P(D|G)` over the retained samples (NaN when none were kept).
    pub fn mean_log_data_likelihood(&self) -> f64 {
        self.samples.iter().map(|s| s.log_data_likelihood).sum::<f64>() / self.samples.len() as f64
    }
}

/// Static description of a chain, handed to observers when it starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainInfo {
    /// The strategy driving the chain (e.g. `"baseline"`, `"gmh"`).
    pub strategy: &'static str,
    /// The driving θ.
    pub theta: f64,
    /// Draws that will be discarded as burn-in.
    pub burn_in_draws: usize,
    /// Total draws the chain will record (burn-in included).
    pub total_draws: usize,
    /// Position of this chain within its ensemble. A lone chain (and every
    /// chain outside the ensemble layer) reports index 0; a sharded sampler
    /// re-tags the infos of its member chains so one observer can tell the
    /// per-chain event streams apart.
    pub chain_index: usize,
}

/// Progress of one kernel iteration, handed to observers after each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Draws recorded so far (burn-in included).
    pub draws_done: usize,
    /// Total draws the chain will record.
    pub total_draws: usize,
    /// Draws discarded as burn-in.
    pub burn_in_draws: usize,
    /// `ln P(D|G)` of the most recently drawn state.
    pub log_likelihood: f64,
}

impl StepReport {
    /// Whether the chain is still inside its burn-in phase.
    pub fn in_burn_in(&self) -> bool {
        self.draws_done <= self.burn_in_draws
    }
}

/// One expectation–maximisation round's outcome, handed to observers by EM
/// drivers (the session facade) after the maximisation stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmUpdate {
    /// EM iteration index (0-based).
    pub iteration: usize,
    /// The driving θ the chain ran with.
    pub driving_theta: f64,
    /// The maximiser of the relative likelihood (next driving value).
    pub estimate: f64,
    /// Acceptance/move rate of the chain.
    pub acceptance_rate: f64,
    /// Mean `ln P(D|G)` over the retained samples.
    pub mean_log_data_likelihood: f64,
}

/// A strategy-agnostic snapshot of one in-flight chain, sufficient to
/// recreate the chain *bit-identically* on a fresh sampler: resuming from a
/// snapshot and stepping to completion must reproduce the exact
/// [`RunReport`] (trace, samples, and counters) an uninterrupted run would
/// have produced, provided the driving RNG streams are restored to the same
/// positions.
///
/// The snapshot captures everything a sampler accumulates between
/// [`GenealogySampler::begin`] and [`GenealogySampler::finish`], plus two
/// fields that exist only for bit-exactness:
///
/// * `stream_epoch` — the multi-proposal sampler's detached-stream epoch
///   counter (proposal randomness is derived from `(epoch, slot)`, so the
///   resumed sampler must continue from the same epoch). The baseline
///   sampler records 0 and ignores it on import.
/// * `engine_cache_tree` — the tree the likelihood engine's generator
///   workspace was keyed to at snapshot time. After a replica-exchange
///   [`GenealogySampler::replace_state`] this is the *pre-swap* tree (not
///   the chain's current tree), and before the first step it is `None`;
///   importing primes the engine with exactly this tree so cache-hit/miss
///   counters replay identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSnapshot {
    /// The chain's current genealogy (the next generator).
    pub tree: GeneTree,
    /// All trace values recorded so far (burn-in included).
    pub trace_values: Vec<f64>,
    /// The trace's burn-in boundary.
    pub trace_burn_in: usize,
    /// Retained post-burn-in samples.
    pub samples: Vec<GenealogySample>,
    /// Work counters accumulated so far.
    pub counters: RunCounters,
    /// Draws recorded so far (transitions for the baseline strategy).
    pub draws_done: usize,
    /// A pending `replace_state` likelihood override, if the snapshot was
    /// taken between a replica-exchange swap and the next step.
    pub swapped_loglik: Option<f64>,
    /// The multi-proposal sampler's detached-stream epoch (0 for strategies
    /// without detached streams).
    pub stream_epoch: u64,
    /// The tree the engine's cached generator workspace described at
    /// snapshot time (`None` for a cold cache).
    pub engine_cache_tree: Option<GeneTree>,
}

/// Streaming hooks into a run. All methods default to no-ops, so an observer
/// implements only the events it cares about. Drivers report: chain start →
/// (burn-in progress during burn-in, a trace point per kernel iteration) →
/// chain end with final diagnostics; EM drivers additionally report one
/// [`EmUpdate`] per maximisation stage.
///
/// The `Send` supertrait lets multi-session drivers (the serve layer's
/// worker pool) move observer-carrying sessions across worker threads;
/// observers needing shared interior state use `Arc<Mutex<…>>`.
pub trait RunObserver: Send {
    /// A chain is about to run.
    fn on_chain_start(&mut self, _info: &ChainInfo) {}

    /// Progress through the burn-in phase (emitted after each kernel
    /// iteration that ends inside burn-in).
    fn on_burn_in_progress(&mut self, _draws_done: usize, _burn_in_total: usize) {}

    /// A per-iteration trace point (emitted after every kernel iteration,
    /// burn-in included).
    fn on_iteration(&mut self, _step: &StepReport) {}

    /// An EM round finished its maximisation stage.
    fn on_em_update(&mut self, _update: &EmUpdate) {}

    /// The chain finished; final diagnostics are in the report.
    fn on_chain_end(&mut self, _report: &RunReport) {}
}

/// The observer that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

/// A genealogy-sampling strategy: anything that can drive the Figure 11
/// chain loop (propose → score → select) and produce a unified [`RunReport`].
///
/// The trait is object safe — drivers hold `Box<dyn GenealogySampler>` and
/// select the strategy by configuration. Implementations carry their own
/// chain state between [`GenealogySampler::begin`] and
/// [`GenealogySampler::finish`], so a sampler can also be driven one
/// [`GenealogySampler::step`] at a time (one MH transition, or one whole
/// proposal set for the multi-proposal kernel).
///
/// The `Send` supertrait lets ensemble drivers shard boxed strategies across
/// scoped worker threads (one chain per thread); both built-in strategies are
/// plain owned data and satisfy it for free.
pub trait GenealogySampler: Send {
    /// Short strategy name (`"baseline"`, `"gmh"`).
    fn strategy(&self) -> &'static str;

    /// Static chain description (sizing and driving value).
    fn chain_info(&self) -> ChainInfo;

    /// Reset the chain state to a fresh starting genealogy.
    fn begin(&mut self, initial: GeneTree) -> Result<(), PhyloError>;

    /// Whether the configured draw budget has been consumed (true before
    /// [`GenealogySampler::begin`]).
    fn is_done(&self) -> bool;

    /// Advance the chain by one kernel iteration, recording its draws.
    fn step(&mut self, rng: &mut dyn RngCore) -> Result<StepReport, PhyloError>;

    /// The chain's current genealogy and its `ln P(D|G)`, or `None` when no
    /// draw has been recorded yet (before [`GenealogySampler::begin`] or the
    /// first [`GenealogySampler::step`]).
    ///
    /// This is one half of the replica-exchange seam: an ensemble driver
    /// reads the states of two rungs, decides a Metropolis swap in log
    /// domain, and writes the states back with
    /// [`GenealogySampler::replace_state`].
    fn current_state(&self) -> Option<(GeneTree, f64)>;

    /// Just the `ln P(D|G)` of the chain's current state — what a swap
    /// *decision* needs, without cloning the genealogy. The default derives
    /// it from [`GenealogySampler::current_state`]; implementations override
    /// it to skip the tree clone.
    fn current_log_likelihood(&self) -> Option<f64> {
        self.current_state().map(|(_, loglik)| loglik)
    }

    /// Replace the chain's current genealogy with `tree`, whose
    /// `ln P(D|G)` is `log_likelihood` (the other half of the
    /// replica-exchange seam — swap drivers already hold both halves of the
    /// pair). Implementations adopt the tree as the next generator/current
    /// state and must report the given likelihood from
    /// [`GenealogySampler::current_state`] /
    /// [`GenealogySampler::current_log_likelihood`] until the next step, so
    /// the read-back surface never pairs a swapped-in tree with the previous
    /// state's likelihood. Engine-side caches are refreshed lazily on the
    /// next step (one full prune, exactly as a fresh
    /// [`GenealogySampler::begin`] would pay).
    ///
    /// Errors when no chain is active.
    fn replace_state(&mut self, tree: GeneTree, log_likelihood: f64) -> Result<(), PhyloError>;

    /// Export the in-flight chain as a [`ChainSnapshot`], or `None` when no
    /// chain is active (or the strategy does not support checkpointing).
    ///
    /// A snapshot restored with [`GenealogySampler::import_chain`] on a
    /// freshly built sampler of the same strategy and configuration must
    /// continue the chain bit-identically.
    fn export_chain(&self) -> Option<ChainSnapshot> {
        None
    }

    /// Restore an in-flight chain from a [`ChainSnapshot`] previously
    /// produced by [`GenealogySampler::export_chain`] on an identically
    /// configured sampler, priming engine-side caches so the resumed chain
    /// replays the uninterrupted run exactly — counters included.
    ///
    /// The default errors: strategies that do not opt in cannot be resumed.
    fn import_chain(&mut self, snapshot: ChainSnapshot) -> Result<(), PhyloError> {
        let _ = snapshot;
        Err(PhyloError::InvalidState {
            message: format!(
                "the {:?} strategy does not support checkpoint import",
                self.strategy()
            ),
        })
    }

    /// Consume the accumulated chain state into a [`RunReport`].
    fn finish(&mut self) -> Result<RunReport, PhyloError>;

    /// Run a whole chain from `initial`, reporting progress to `observer`.
    ///
    /// The default drives `begin` → `step`* → `finish` and emits the
    /// documented [`RunObserver`] event sequence.
    fn run(
        &mut self,
        initial: GeneTree,
        rng: &mut dyn RngCore,
        observer: &mut dyn RunObserver,
    ) -> Result<RunReport, PhyloError> {
        self.begin(initial)?;
        observer.on_chain_start(&self.chain_info());
        while !self.is_done() {
            let step = self.step(rng)?;
            if step.in_burn_in() {
                observer.on_burn_in_progress(step.draws_done, step.burn_in_draws);
            }
            observer.on_iteration(&step);
        }
        let report = self.finish()?;
        observer.on_chain_end(&report);
        Ok(report)
    }
}

/// The error every strategy reports when stepped without an active chain
/// (shared by `GenealogySampler` implementations across crates).
pub fn no_active_chain() -> PhyloError {
    PhyloError::InvalidState {
        message: "no active chain: call begin() (or run()) before step()/finish()".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_rates_handle_empty_runs() {
        let c = RunCounters::default();
        assert_eq!(c.acceptance_rate(), 0.0);
        assert_eq!(c.nodes_pruned_per_evaluation(), 0.0);
        let c = RunCounters { draws: 8, accepted: 2, ..Default::default() };
        assert!((c.acceptance_rate() - 0.25).abs() < 1e-12);
        let c = RunCounters {
            likelihood_evaluations: 10,
            nodes_repruned: 30,
            nodes_full_pruned: 10,
            nodes_committed: 10,
            ..Default::default()
        };
        assert!((c.nodes_pruned_per_evaluation() - 5.0).abs() < 1e-12);
        assert_eq!(RunCounters::default().matrix_cache_hit_rate(), 0.0);
        let caching =
            RunCounters { matrix_cache_hits: 3, matrix_cache_misses: 1, ..Default::default() };
        assert!((caching.matrix_cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(RunCounters::default().swap_acceptance_rate(), 0.0);
        let swapping = RunCounters { swap_attempts: 8, swaps_accepted: 2, ..Default::default() };
        assert!((swapping.swap_acceptance_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merged_counters_sum_every_field() {
        let a = RunCounters {
            iterations: 1,
            proposals_generated: 2,
            likelihood_evaluations: 3,
            draws: 4,
            accepted: 5,
            nodes_repruned: 6,
            nodes_full_pruned: 7,
            nodes_committed: 8,
            generator_cache_hits: 9,
            matrix_cache_hits: 13,
            matrix_cache_misses: 14,
            workspace_commits: 10,
            swap_attempts: 11,
            swaps_accepted: 12,
        };
        let doubled = a.merged(&a);
        assert_eq!(
            doubled,
            RunCounters {
                iterations: 2,
                proposals_generated: 4,
                likelihood_evaluations: 6,
                draws: 8,
                accepted: 10,
                nodes_repruned: 12,
                nodes_full_pruned: 14,
                nodes_committed: 16,
                generator_cache_hits: 18,
                matrix_cache_hits: 26,
                matrix_cache_misses: 28,
                workspace_commits: 20,
                swap_attempts: 22,
                swaps_accepted: 24,
            }
        );
        assert_eq!(a.merged(&RunCounters::default()), a);
    }

    #[test]
    fn step_report_burn_in_flag() {
        let mut step =
            StepReport { draws_done: 5, total_draws: 100, burn_in_draws: 10, log_likelihood: -1.0 };
        assert!(step.in_burn_in());
        step.draws_done = 11;
        assert!(!step.in_burn_in());
    }
}
