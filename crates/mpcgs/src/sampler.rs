//! The multi-proposal (Generalized Metropolis–Hastings) genealogy sampler
//! (Sections 4.3, 5.1.4 and 5.2).
//!
//! Each iteration mirrors the paper's kernel structure (Figure 12):
//!
//! 1. The host draws the auxiliary variable φ — a target interior node —
//!    uniformly (Section 4.3), exactly as the original samples it with the
//!    host MT19937.
//! 2. The *proposal kernel*: `N` independent proposals are generated from the
//!    generator genealogy by resimulating the same φ-neighborhood, one
//!    logical thread per proposal, each with its own decorrelated RNG stream
//!    (the MTGP32 substitute). Because every proposal differs from every
//!    other only inside the φ-neighborhood, all members of the set can
//!    mutually propose one another — the property Section 4.3 needs. The
//!    deterministic part of the resimulation (feasible intervals and their
//!    weights, [`lamarc::proposal::NeighbourhoodPlan`]) is the same for all
//!    `N`, so the host plans it once and every thread only draws from it.
//!    Like the paper's per-thread proposal buffers, the sampler keeps `N`
//!    proposal *slots* across iterations: each thread draws into its own
//!    slot's tree, which takes the generator's node data in storage it
//!    already owns, so a steady-state proposal set allocates and frees no
//!    tree storage. Slots are scratch, not chain state: they are not in a
//!    [`ChainSnapshot`], a checkpoint or a clone of the sampler.
//! 3. The *data likelihood kernel*: `ln P(D|G̃_i)` is evaluated for every
//!    member of the set (site-parallel inside the engine, proposal-parallel
//!    across the set).
//! 4. The index chain is sampled `M` times from the stationary weights
//!    `w_i ∝ P(D|G̃_i)` (Eq. 31) using a log-domain categorical draw from
//!    one table normalised per iteration; each draw is an output sample,
//!    stored as its coalescent-interval summary, computed once per distinct
//!    index drawn.
//! 5. The last drawn state becomes the generator for the next iteration —
//!    and is *committed* into the likelihood engine's cached workspace along
//!    its dirty path, so a moved generator costs O(path) instead of a full
//!    re-prune at the next iteration. The accepted slot's tree is swapped
//!    with the generator, so the old generator's storage becomes that slot's
//!    tree for the next draw.
//!
//! The sampler is the second [`GenealogySampler`] strategy: one
//! [`GenealogySampler::step`] is one whole proposal-set iteration, and a full
//! run produces the same unified [`RunReport`] as the baseline.

use std::sync::{Mutex, PoisonError};

use exec::Backend;
use mcmc::chain::Trace;
use mcmc::rng::dist::LogCategoricalTable;
use mcmc::rng::StreamBank;
use rand::RngCore;

use lamarc::proposal::GenealogyProposer;
use lamarc::run::{
    no_active_chain, ChainInfo, ChainSnapshot, GenealogySampler, RunCounters, RunReport, StepReport,
};
use lamarc::sampler::GenealogySample;
use lamarc::target::GenealogyTarget;
use phylo::likelihood::{LikelihoodEngine, TreeProposal};
use phylo::{CoalescentIntervals, GeneTree, NodeId, PhyloError};

use crate::config::MpcgsConfig;

/// In-flight chain state between `begin()` and `finish()`.
#[derive(Debug, Clone)]
struct GmhChain {
    generator: GeneTree,
    trace: Trace,
    samples: Vec<GenealogySample>,
    counters: RunCounters,
    draws_done: usize,
    /// `ln P(D|G)` of a generator installed by `replace_state` (replica
    /// exchange), reported by the read-back surface until the next
    /// iteration recomputes the likelihood itself.
    swapped_loglik: Option<f64>,
}

/// One proposal slot: the tree a proposal is drawn into and its edited node
/// set, each behind its own lock so the proposal threads can fill their
/// slots in parallel.
type Slot = Mutex<(GeneTree, Vec<NodeId>)>;

/// The multi-proposal sampler bound to a likelihood engine and a driving θ.
#[derive(Debug)]
pub struct MultiProposalSampler<E> {
    target: GenealogyTarget<E>,
    proposer: GenealogyProposer,
    config: MpcgsConfig,
    streams: StreamBank,
    /// Monotone epoch for the detached per-proposal streams. Deliberately
    /// *not* reset by `begin()`: a sampler reused across chains must keep
    /// drawing fresh stream epochs, or the chains would replay identical
    /// proposal sets and be silently correlated.
    epoch: u64,
    chain: Option<GmhChain>,
    /// The proposal slots kept across iterations (see the module docs,
    /// step 2).
    slots: Vec<Slot>,
}

impl<E: Clone> Clone for MultiProposalSampler<E> {
    fn clone(&self) -> Self {
        MultiProposalSampler {
            target: self.target.clone(),
            proposer: self.proposer,
            config: self.config,
            streams: self.streams.clone(),
            epoch: self.epoch,
            chain: self.chain.clone(),
            // Proposal slots are scratch, not state: a clone starts without
            // them and fills its own on its first iteration.
            slots: Vec::new(),
        }
    }
}

impl<E: LikelihoodEngine> MultiProposalSampler<E> {
    /// Create a sampler. The driving θ is taken from `config.initial_theta`
    /// unless overridden with [`MultiProposalSampler::with_theta`].
    pub fn new(engine: E, config: MpcgsConfig) -> Result<Self, PhyloError> {
        config.validate()?;
        Self::build(engine, config, config.initial_theta)
    }

    /// Create a sampler with an explicit driving θ (used by the EM driver on
    /// iterations after the first).
    pub fn with_theta(engine: E, config: MpcgsConfig, theta: f64) -> Result<Self, PhyloError> {
        config.validate()?;
        Self::build(engine, config, theta)
    }

    fn build(engine: E, config: MpcgsConfig, theta: f64) -> Result<Self, PhyloError> {
        let target = GenealogyTarget::new(engine, theta)?;
        let proposer = GenealogyProposer::with_config(theta, config.proposal)?;
        let streams = StreamBank::new(config.stream_seed, config.proposals_per_iteration);
        Ok(MultiProposalSampler {
            target,
            proposer,
            config,
            streams,
            epoch: 0,
            chain: None,
            slots: Vec::new(),
        })
    }

    /// The driving θ.
    pub fn theta(&self) -> f64 {
        self.target.theta()
    }

    /// Temper the sampler's target with inverse temperature `beta` (β = 1/T):
    /// the index chain's stationary weights become `w_i ∝ P(D|G̃_i)^β` — the
    /// heated-rung target of a replica-exchange ensemble. β = 1 is
    /// bit-identical to the untempered sampler.
    pub fn with_inverse_temperature(mut self, beta: f64) -> Result<Self, PhyloError> {
        self.target = self.target.with_inverse_temperature(beta)?;
        Ok(self)
    }

    /// The configuration.
    pub fn config(&self) -> &MpcgsConfig {
        &self.config
    }

    /// One Generalized-MH iteration: build a proposal set, batch-score it,
    /// sample the index chain `M` times, and commit the last drawn state.
    fn gmh_iteration(&mut self, rng: &mut dyn RngCore) -> Result<StepReport, PhyloError> {
        let n_proposals = self.config.proposals_per_iteration;
        let m_draws = self.config.draws_per_iteration.max(1);
        let total_draws = self.config.total_draws();
        let backend: Backend = self.config.backend;
        if self.chain.is_none() {
            return Err(no_active_chain());
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let chain = self.chain.as_mut().expect("checked above");
        chain.counters.iterations += 1;
        // A swapped-in generator's likelihood is recomputed below (the
        // engine cache misses on the new tree), so the override expires
        // here.
        chain.swapped_loglik = None;

        // Step 1: the auxiliary variable φ (host RNG).
        let phi = self.proposer.sample_target(&chain.generator, rng);

        // Step 2: the proposal kernel. The φ-neighborhood's plan is built
        // once; then one logical thread per proposal draws from it with its
        // own detached RNG stream into its own slot, which receives the
        // proposed tree and the edited φ-neighborhood.
        let plan = self.proposer.plan(&chain.generator, phi);
        if self.slots.len() < n_proposals {
            let generator = &chain.generator;
            self.slots.resize_with(n_proposals, || {
                Mutex::new((generator.clone(), Vec::with_capacity(2)))
            });
        }
        {
            let generator_ref = &chain.generator;
            let proposer = &self.proposer;
            let plan = &plan;
            let streams = &self.streams;
            let slots = &self.slots;
            // A slot whose lock was poisoned by a panicking draw is still fit
            // for reuse: every draw overwrites its slot whole before anything
            // reads it.
            backend.map_indexed(n_proposals, move |slot| {
                let mut stream = streams.detached(epoch, slot);
                let mut guard = slots[slot].lock().unwrap_or_else(PoisonError::into_inner);
                let (tree, edited) = &mut *guard;
                proposer.draw_into(plan, generator_ref, &mut stream, tree, edited);
            });
        }

        // Step 3: the data-likelihood kernel, batched: the whole proposal set
        // is scored against the generator in one call. The engine reuses the
        // generator's cached partials for everything outside each proposal's
        // dirty path, and the generator workspace itself is memoised across
        // iterations (unchanged generators hit the cache; moved generators
        // are committed in step 5).
        let proposal_refs: Vec<TreeProposal<'_>> = self.slots[..n_proposals]
            .iter_mut()
            .map(|slot| {
                let (tree, edited) = &*slot.get_mut().unwrap_or_else(PoisonError::into_inner);
                TreeProposal { tree, edited }
            })
            .collect();
        let eval =
            self.target.log_data_likelihood_batch(backend, &chain.generator, &proposal_refs)?;
        let generator_loglik = eval.generator_log_likelihood;
        chain.counters.proposals_generated += n_proposals;
        chain.counters.likelihood_evaluations += n_proposals;
        chain.counters.nodes_repruned += eval.nodes_repruned;
        chain.counters.nodes_full_pruned += eval.nodes_full_pruned;
        chain.counters.generator_cache_hits += eval.generator_cache_hit as usize;
        chain.counters.matrix_cache_hits += eval.matrix_cache_hits;
        chain.counters.matrix_cache_misses += eval.matrix_cache_misses;
        // The generator joins the set with its cached likelihood. Selection
        // runs under the (possibly tempered) target — `w_i ∝ P(D|G̃_i)^β`,
        // i.e. log weights scaled by β — while traces and samples record the
        // untempered ln P(D|G̃_i). β = 1 multiplies by 1.0, which is
        // bit-identical to the untempered sampler.
        let beta = self.target.beta();
        let generator_index = n_proposals;
        let mut log_weights: Vec<f64> =
            eval.log_likelihoods.iter().map(|&loglik| beta * loglik).collect();
        log_weights.push(beta * generator_loglik);
        // A fully degenerate set (no finite weight) has no table: every draw
        // stays at the generator.
        let table = LogCategoricalTable::new(&log_weights);

        // Step 4: sample the index chain M times, summarising each distinct
        // drawn genealogy once.
        let mut summaries: Vec<Option<CoalescentIntervals>> = vec![None; log_weights.len()];
        let mut last_index = generator_index;
        let mut last_loglik = generator_loglik;
        for _ in 0..m_draws {
            if chain.draws_done >= total_draws {
                break;
            }
            let idx = table.as_ref().and_then(|t| t.sample(rng)).unwrap_or(generator_index);
            if idx != generator_index {
                chain.counters.accepted += 1;
            }
            let (tree, loglik) = if idx == generator_index {
                (&chain.generator, generator_loglik)
            } else {
                (proposal_refs[idx].tree, eval.log_likelihoods[idx])
            };
            chain.trace.push(loglik);
            if chain.draws_done >= self.config.burn_in_draws {
                chain.samples.push(GenealogySample {
                    intervals: *summaries[idx].get_or_insert_with(|| tree.intervals()),
                    log_data_likelihood: loglik,
                });
            }
            chain.counters.draws += 1;
            chain.draws_done += 1;
            last_index = idx;
            last_loglik = loglik;
        }

        // Step 5: the last sample generates the next proposal set. Commit it
        // into the engine's cached workspace so the move costs one dirty path
        // rather than a full generator rebuild next iteration, then swap it
        // with the generator: the old generator's storage is the slot's next
        // scratch tree.
        if last_index != generator_index {
            let slot = self.slots[last_index].get_mut().unwrap_or_else(PoisonError::into_inner);
            let (accepted, edited) = &*slot;
            if let Some(nodes) =
                self.target.engine().commit_accepted(&chain.generator, accepted, edited)?
            {
                chain.counters.workspace_commits += 1;
                chain.counters.nodes_committed += nodes;
            }
            std::mem::swap(&mut chain.generator, &mut slot.0);
        }

        Ok(StepReport {
            draws_done: chain.draws_done,
            total_draws,
            burn_in_draws: self.config.burn_in_draws,
            log_likelihood: last_loglik,
        })
    }
}

impl<E: LikelihoodEngine> GenealogySampler for MultiProposalSampler<E> {
    fn strategy(&self) -> &'static str {
        "gmh"
    }

    fn chain_info(&self) -> ChainInfo {
        ChainInfo {
            strategy: self.strategy(),
            theta: self.theta(),
            burn_in_draws: self.config.burn_in_draws,
            total_draws: self.config.total_draws(),
            chain_index: 0,
        }
    }

    fn begin(&mut self, initial: GeneTree) -> Result<(), PhyloError> {
        // Note: `self.epoch` carries over, so chains run back to back on one
        // sampler draw from disjoint stream epochs.
        self.chain = Some(GmhChain {
            generator: initial,
            trace: Trace::with_burn_in(self.config.burn_in_draws),
            samples: Vec::with_capacity(self.config.sample_draws),
            counters: RunCounters::default(),
            draws_done: 0,
            swapped_loglik: None,
        });
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.chain.as_ref().is_none_or(|chain| chain.draws_done >= self.config.total_draws())
    }

    fn step(&mut self, rng: &mut dyn RngCore) -> Result<StepReport, PhyloError> {
        self.gmh_iteration(rng)
    }

    fn current_state(&self) -> Option<(GeneTree, f64)> {
        let chain = self.chain.as_ref()?;
        // A freshly swapped-in generator carries its own likelihood;
        // otherwise the generator is the last drawn state and the last trace
        // entry is its ln P(D|G) (before the first iteration there is
        // nothing to report).
        let loglik = chain.swapped_loglik.or_else(|| chain.trace.all().last().copied())?;
        Some((chain.generator.clone(), loglik))
    }

    fn current_log_likelihood(&self) -> Option<f64> {
        let chain = self.chain.as_ref()?;
        chain.swapped_loglik.or_else(|| chain.trace.all().last().copied())
    }

    fn replace_state(&mut self, tree: GeneTree, log_likelihood: f64) -> Result<(), PhyloError> {
        let chain = self.chain.as_mut().ok_or_else(no_active_chain)?;
        // The engine's memoised generator workspace now describes the old
        // generator; the next iteration's batch detects the mismatch and
        // repays one full prune.
        chain.generator = tree;
        chain.swapped_loglik = Some(log_likelihood);
        Ok(())
    }

    fn export_chain(&self) -> Option<ChainSnapshot> {
        let chain = self.chain.as_ref()?;
        Some(ChainSnapshot {
            tree: chain.generator.clone(),
            trace_values: chain.trace.all().to_vec(),
            trace_burn_in: chain.trace.burn_in(),
            samples: chain.samples.clone(),
            counters: chain.counters,
            draws_done: chain.draws_done,
            swapped_loglik: chain.swapped_loglik,
            stream_epoch: self.epoch,
            engine_cache_tree: self.target.engine().cached_generator(),
        })
    }

    fn import_chain(&mut self, snapshot: ChainSnapshot) -> Result<(), PhyloError> {
        // Prime the engine with the tree its workspace was keyed to at
        // snapshot time (possibly not `snapshot.tree` after a replica
        // exchange), so cache-hit/miss counters replay identically.
        self.target.engine().prime_cache(snapshot.engine_cache_tree.as_ref())?;
        self.epoch = snapshot.stream_epoch;
        let mut trace = Trace::from_values(snapshot.trace_values);
        trace.set_burn_in(snapshot.trace_burn_in);
        self.chain = Some(GmhChain {
            generator: snapshot.tree,
            trace,
            samples: snapshot.samples,
            counters: snapshot.counters,
            draws_done: snapshot.draws_done,
            swapped_loglik: snapshot.swapped_loglik,
        });
        Ok(())
    }

    fn finish(&mut self) -> Result<RunReport, PhyloError> {
        let chain = self.chain.take().ok_or_else(no_active_chain)?;
        Ok(RunReport {
            samples: chain.samples,
            trace: chain.trace,
            counters: chain.counters,
            final_tree: chain.generator,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalescent::{CoalescentSimulator, KingmanPrior, SequenceSimulator};
    use lamarc::run::NullObserver;
    use lamarc::sampler::{LamarcSampler, SamplerConfig};
    use mcmc::diagnostics::Summary;
    use mcmc::rng::Mt19937;
    use phylo::model::{Jc69, F81};
    use phylo::{upgma_tree, Alignment, FelsensteinPruner};

    fn simulated_alignment(rng: &mut Mt19937, n: usize, sites: usize, theta: f64) -> Alignment {
        let tree = CoalescentSimulator::constant(theta).unwrap().simulate(rng, n).unwrap();
        SequenceSimulator::new(Jc69::new(), sites, 1.0).unwrap().simulate(rng, &tree).unwrap()
    }

    fn small_config() -> MpcgsConfig {
        MpcgsConfig {
            initial_theta: 1.0,
            proposals_per_iteration: 8,
            draws_per_iteration: 8,
            burn_in_draws: 40,
            sample_draws: 400,
            backend: Backend::Serial,
            ..Default::default()
        }
    }

    #[test]
    fn run_produces_the_requested_draws_and_valid_trees() {
        let mut rng = Mt19937::new(71);
        let alignment = simulated_alignment(&mut rng, 6, 60, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let mut sampler = MultiProposalSampler::new(engine, small_config()).unwrap();
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        let run = sampler.run(initial, &mut rng, &mut NullObserver).unwrap();
        assert_eq!(run.samples.len(), 400);
        assert_eq!(run.counters.draws, 440);
        assert_eq!(run.trace.len(), 440);
        assert_eq!(run.counters.iterations, 55);
        assert_eq!(run.counters.proposals_generated, 55 * 8);
        assert_eq!(run.counters.likelihood_evaluations, 55 * 8);
        assert!(run.acceptance_rate() > 0.0);
        // Dirty-path caching plus commit-on-accept: every proposal evaluation
        // reprunes only the edited neighborhood's path to the root, the
        // generator workspace is built in full exactly once, and every moved
        // generator is promoted along its dirty path.
        let n_internal = run.final_tree.n_internal();
        assert!(run.counters.nodes_repruned > 0);
        assert!(run.counters.nodes_repruned < run.counters.likelihood_evaluations * n_internal);
        assert_eq!(run.counters.nodes_full_pruned, n_internal);
        assert_eq!(run.counters.generator_cache_hits, run.counters.iterations - 1);
        assert!(run.counters.workspace_commits > 0);
        assert!(run.counters.nodes_committed > 0);
        assert!(run.counters.nodes_pruned_per_evaluation() < n_internal as f64);
        // Edge transition-matrix memoisation: edges whose effective lengths
        // survive a proposal hit the cache, while the cold initial build and
        // every resimulated neighborhood edge pay a recomputation. (Tiny
        // 6-taxon trees keep the rate low; the >80% steady-state regime is
        // exercised by the perf-trajectory benchmark's deep trees.)
        assert!(run.counters.matrix_cache_hits > 0);
        assert!(run.counters.matrix_cache_misses >= run.final_tree.n_nodes() - 1);
        let rate = run.counters.matrix_cache_hit_rate();
        assert!(rate > 0.0 && rate < 1.0, "matrix cache hit rate {rate}");
        run.final_tree.validate().unwrap();
        assert_eq!(sampler.theta(), 1.0);
        assert_eq!(sampler.config().proposals_per_iteration, 8);
        assert_eq!(sampler.strategy(), "gmh");
        assert_eq!(sampler.chain_info().total_draws, 440);
    }

    #[test]
    fn stepping_matches_a_whole_run_exactly() {
        let mut rng = Mt19937::new(4_711);
        let alignment = simulated_alignment(&mut rng, 5, 40, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        let config = small_config();

        let mut whole = MultiProposalSampler::new(engine.clone(), config).unwrap();
        let mut rng_a = Mt19937::new(11);
        let run_a = whole.run(initial.clone(), &mut rng_a, &mut NullObserver).unwrap();

        let mut stepped = MultiProposalSampler::new(engine, config).unwrap();
        assert!(stepped.is_done(), "no chain is active before begin()");
        assert!(stepped.step(&mut Mt19937::new(0)).is_err());
        assert!(stepped.finish().is_err());
        let mut rng_b = Mt19937::new(11);
        stepped.begin(initial).unwrap();
        while !stepped.is_done() {
            stepped.step(&mut rng_b).unwrap();
        }
        let run_b = stepped.finish().unwrap();
        assert_eq!(run_a.trace.all(), run_b.trace.all());
        assert_eq!(run_a.counters, run_b.counters);
    }

    #[test]
    fn export_import_resumes_the_chain_bit_identically() {
        // Checkpoint/resume contract for the multi-proposal strategy: the
        // snapshot must carry the detached-stream epoch as well as the chain
        // accumulators, so the resumed sampler draws the same proposal sets
        // and finishes bit-for-bit equal to the uninterrupted run.
        let mut rng = Mt19937::new(101);
        let alignment = simulated_alignment(&mut rng, 5, 40, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        let config = small_config();

        let mut uninterrupted = MultiProposalSampler::new(engine.clone(), config).unwrap();
        let mut rng_a = Mt19937::new(23);
        let run_a = uninterrupted.run(initial.clone(), &mut rng_a, &mut NullObserver).unwrap();

        let mut first_half = MultiProposalSampler::new(engine.clone(), config).unwrap();
        assert!(first_half.export_chain().is_none(), "no chain active before begin()");
        let mut rng_b = Mt19937::new(23);
        first_half.begin(initial).unwrap();
        for _ in 0..21 {
            first_half.step(&mut rng_b).unwrap();
        }
        let snapshot = first_half.export_chain().unwrap();
        assert_eq!(snapshot.stream_epoch, 21);
        drop(first_half);

        let mut resumed = MultiProposalSampler::new(engine, config).unwrap();
        resumed.import_chain(snapshot).unwrap();
        let mut rng_c = Mt19937::new(23);
        rng_c.discard(rng_b.position());
        while !resumed.is_done() {
            resumed.step(&mut rng_c).unwrap();
        }
        let run_b = resumed.finish().unwrap();
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn steady_state_proposal_sets_allocate_no_tree_storage() {
        // Each proposal is drawn into its kept slot and the accepted slot is
        // swapped with the generator, so once warm an iteration neither
        // allocates nor copy-on-write-clones a single slab.
        let mut rng = Mt19937::new(97);
        let alignment = simulated_alignment(&mut rng, 12, 80, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config = MpcgsConfig { burn_in_draws: 0, sample_draws: 10_000, ..small_config() };
        let mut sampler = MultiProposalSampler::new(engine, config).unwrap();
        sampler.begin(upgma_tree(&alignment, 1.0).unwrap()).unwrap();
        for _ in 0..10 {
            sampler.step(&mut rng).unwrap();
        }
        let accepted = sampler.chain.as_ref().unwrap().counters.accepted;
        let before = phylo::tables::cow_stats();
        for _ in 0..50 {
            sampler.step(&mut rng).unwrap();
        }
        let delta = phylo::tables::cow_stats().since(&before);
        assert_eq!((delta.slab_allocs, delta.slab_cow_clones), (0, 0), "{delta:?}");
        assert!(sampler.chain.as_ref().unwrap().counters.accepted > accepted + 10);
    }

    #[test]
    fn samplers_with_used_slots_resume_bit_identically() {
        // Slots are scratch: they survive `begin` and `import_chain` and are
        // left out of clones, and what they hold must not leak into a
        // resumed chain.
        let mut rng = Mt19937::new(103);
        let alignment = simulated_alignment(&mut rng, 7, 50, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        let config = small_config();

        let mut uninterrupted = MultiProposalSampler::new(engine.clone(), config).unwrap();
        let run_a = uninterrupted.run(initial.clone(), &mut Mt19937::new(29), &mut NullObserver);

        let mut first_half = MultiProposalSampler::new(engine, config).unwrap();
        let mut rng_b = Mt19937::new(29);
        first_half.begin(initial.clone()).unwrap();
        for _ in 0..17 {
            first_half.step(&mut rng_b).unwrap();
        }
        let snapshot = first_half.export_chain().unwrap();

        let mut used = uninterrupted.clone();
        assert!(used.slots.is_empty(), "a clone starts without proposal slots");
        used.run(initial, &mut Mt19937::new(31), &mut NullObserver).unwrap();
        for resumed in [&mut uninterrupted, &mut used] {
            assert_eq!(resumed.slots.len(), config.proposals_per_iteration);
            resumed.import_chain(snapshot.clone()).unwrap();
            let mut rng_c = Mt19937::new(29);
            rng_c.discard(rng_b.position());
            while !resumed.is_done() {
                resumed.step(&mut rng_c).unwrap();
            }
            assert_eq!(run_a.as_ref().unwrap(), &resumed.finish().unwrap());
        }
    }

    #[test]
    fn reused_samplers_keep_advancing_the_proposal_streams() {
        // begin() must not rewind the stream epochs: two chains run back to
        // back on one sampler — even with an identical host RNG — have to
        // draw distinct proposal sets, or pooled diagnostics over the chains
        // would be silently correlated.
        let mut rng = Mt19937::new(313);
        let alignment = simulated_alignment(&mut rng, 5, 40, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        let config = MpcgsConfig { burn_in_draws: 0, sample_draws: 64, ..small_config() };
        let mut sampler = MultiProposalSampler::new(engine, config).unwrap();
        let first = sampler.run(initial.clone(), &mut Mt19937::new(9), &mut NullObserver).unwrap();
        let second = sampler.run(initial, &mut Mt19937::new(9), &mut NullObserver).unwrap();
        assert_ne!(
            first.trace.all(),
            second.trace.all(),
            "a reused sampler must not replay the previous chain's proposal streams"
        );
    }

    #[test]
    fn rayon_backend_matches_serial_backend_statistically() {
        // The two backends use identical RNG streams for the proposals, so
        // the proposal sets are identical; only the host draws differ in
        // timing. Run both and compare summary statistics of the sampled
        // tree depths.
        let mut rng = Mt19937::new(73);
        let alignment = simulated_alignment(&mut rng, 5, 50, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let initial = upgma_tree(&alignment, 1.0).unwrap();

        let serial_cfg = small_config();
        let rayon_cfg = MpcgsConfig { backend: Backend::Rayon, ..small_config() };

        let mut rng_a = Mt19937::new(1234);
        let run_a = MultiProposalSampler::new(engine.clone(), serial_cfg)
            .unwrap()
            .run(initial.clone(), &mut rng_a, &mut NullObserver)
            .unwrap();
        let mut rng_b = Mt19937::new(1234);
        let run_b = MultiProposalSampler::new(engine, rayon_cfg)
            .unwrap()
            .run(initial, &mut rng_b, &mut NullObserver)
            .unwrap();

        // Identical seeds and identical deterministic streams: the outputs
        // must match exactly, which also proves the backend does not change
        // the sampled distribution.
        let depths_a: Vec<f64> = run_a.samples.iter().map(|s| s.intervals.depth()).collect();
        let depths_b: Vec<f64> = run_b.samples.iter().map(|s| s.intervals.depth()).collect();
        assert_eq!(depths_a, depths_b);
    }

    #[test]
    fn flat_data_recovers_the_coalescent_prior() {
        // With a single invariant site the weights are almost flat, so the
        // sampler explores (approximately) the prior; the mean sampled depth
        // must be near the Kingman expectation — the multi-proposal analogue
        // of the baseline sampler's prior-recovery test.
        let mut rng = Mt19937::new(79);
        let alignment =
            Alignment::from_letters(&[("1", "A"), ("2", "A"), ("3", "A"), ("4", "A"), ("5", "A")])
                .unwrap();
        let theta = 1.0;
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config = MpcgsConfig {
            initial_theta: theta,
            proposals_per_iteration: 8,
            draws_per_iteration: 8,
            burn_in_draws: 400,
            sample_draws: 4_000,
            backend: Backend::Serial,
            ..Default::default()
        };
        let mut sampler = MultiProposalSampler::new(engine, config).unwrap();
        let initial = CoalescentSimulator::constant(theta)
            .unwrap()
            .simulate_labelled(
                &mut rng,
                &["1", "2", "3", "4", "5"].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
            .unwrap();
        let run = sampler.run(initial, &mut rng, &mut NullObserver).unwrap();
        let depths: Vec<f64> = run.samples.iter().map(|s| s.intervals.depth()).collect();
        let mean_depth = Summary::of(&depths).unwrap().mean;
        let expected = KingmanPrior::new(theta).unwrap().expected_tmrca(5);
        assert!(
            (mean_depth / expected - 1.0).abs() < 0.35,
            "mean sampled depth {mean_depth} vs prior expectation {expected}"
        );
        assert!(run.acceptance_rate() > 0.5, "flat weights should move freely");
    }

    #[test]
    fn gmh_and_baseline_sample_the_same_posterior() {
        // The headline correctness property (Section 6.1): the multi-proposal
        // sampler must target the same posterior as the single-proposal
        // baseline. Compare the mean sampled tree depth of the two samplers
        // on the same data and driving value — through the shared
        // GenealogySampler trait, since the two are interchangeable.
        let mut rng = Mt19937::new(83);
        let alignment = simulated_alignment(&mut rng, 6, 100, 1.0);
        let engine =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()));
        let initial = upgma_tree(&alignment, 1.0).unwrap();

        let gmh_config = MpcgsConfig {
            initial_theta: 1.0,
            proposals_per_iteration: 8,
            draws_per_iteration: 8,
            burn_in_draws: 400,
            sample_draws: 3_000,
            backend: Backend::Serial,
            ..Default::default()
        };
        let baseline_config = SamplerConfig {
            theta: 1.0,
            burn_in: 400,
            samples: 3_000,
            thinning: 1,
            proposal: Default::default(),
        };
        let mut strategies: Vec<Box<dyn GenealogySampler>> = vec![
            Box::new(MultiProposalSampler::new(engine.clone(), gmh_config).unwrap()),
            Box::new(LamarcSampler::new(engine, baseline_config).unwrap()),
        ];
        let mut means = Vec::new();
        for sampler in &mut strategies {
            let run = sampler.run(initial.clone(), &mut rng, &mut NullObserver).unwrap();
            let depths: Vec<f64> = run.samples.iter().map(|s| s.intervals.depth()).collect();
            means.push(Summary::of(&depths).unwrap().mean);
        }
        let (gmh_mean, base_mean) = (means[0], means[1]);
        assert!(
            (gmh_mean / base_mean - 1.0).abs() < 0.2,
            "mean depths disagree: GMH {gmh_mean} vs baseline {base_mean}"
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut rng = Mt19937::new(89);
        let alignment = simulated_alignment(&mut rng, 4, 40, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let bad = MpcgsConfig { proposals_per_iteration: 0, ..small_config() };
        assert!(MultiProposalSampler::new(engine.clone(), bad).is_err());
        let bad_theta = MpcgsConfig { initial_theta: -1.0, ..small_config() };
        assert!(MultiProposalSampler::new(engine.clone(), bad_theta).is_err());
        assert!(MultiProposalSampler::with_theta(engine, small_config(), 0.0).is_err());
    }
}
