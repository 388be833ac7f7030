//! The conventional single-proposal Metropolis–Hastings genealogy sampler.
//!
//! This is the sampler at the core of LAMARC (Section 4.2): at each
//! transition a target node is drawn uniformly, its neighborhood is
//! resimulated from the conditional coalescent prior, and the proposal is
//! accepted with probability `min(1, P(D|G')/P(D|G))` (Eq. 28 — the prior
//! terms cancel because the proposal draws from the prior). Sampled
//! genealogies are reduced to their coalescent-interval summaries, which is
//! all the maximisation stage needs (Section 5.1.3).
//!
//! The sampler is one of the two interchangeable strategies behind the
//! [`GenealogySampler`] trait: one [`GenealogySampler::step`] is one MH
//! transition, and a full [`GenealogySampler::run`] produces the unified
//! [`RunReport`]. Accepted moves are *committed* into the likelihood engine's
//! cached generator workspace (promoting the accepted proposal's dirty path
//! instead of repaying a full re-prune), so accepted and rejected transitions
//! alike cost O(path-to-root) node recomputations. The proposal is drawn
//! into one scratch *slot* kept across transitions, and an accepted slot is
//! swapped with the current state, so a steady-state transition allocates
//! no tree storage.

use exec::Backend;
use mcmc::chain::Trace;
use rand::{Rng, RngCore};

use phylo::likelihood::{LikelihoodEngine, TreeProposal};
use phylo::tree::CoalescentIntervals;
use phylo::{GeneTree, NodeId, PhyloError};

use crate::proposal::{GenealogyProposer, ProposalConfig};
use crate::run::{
    no_active_chain, ChainInfo, ChainSnapshot, GenealogySampler, RunCounters, RunReport, StepReport,
};
use crate::target::GenealogyTarget;

/// Configuration of a single-chain run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// The driving θ (θ₀).
    pub theta: f64,
    /// Transitions discarded as burn-in.
    pub burn_in: usize,
    /// Retained samples.
    pub samples: usize,
    /// Keep every `thinning`-th post-burn-in genealogy.
    pub thinning: usize,
    /// Proposal-mechanism configuration.
    pub proposal: ProposalConfig,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            theta: 1.0,
            burn_in: 1_000,
            samples: 10_000,
            thinning: 1,
            proposal: ProposalConfig::default(),
        }
    }
}

impl SamplerConfig {
    /// Total transitions one chain performs (burn-in plus thinned samples).
    pub fn total_transitions(&self) -> usize {
        self.burn_in + self.samples * self.thinning.max(1)
    }
}

/// One retained genealogy, reduced to what the maximiser needs: five
/// numbers, stored inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenealogySample {
    /// The coalescent-interval statistics of the sampled genealogy.
    pub intervals: CoalescentIntervals,
    /// `ln P(D|G)` of the sampled genealogy.
    pub log_data_likelihood: f64,
}

/// In-flight chain state between `begin()` and `finish()`.
#[derive(Debug, Clone)]
struct BaselineChain {
    current: GeneTree,
    trace: Trace,
    samples: Vec<GenealogySample>,
    counters: RunCounters,
    transitions_done: usize,
    /// `ln P(D|G)` of a state installed by `replace_state` (replica
    /// exchange), reported by the read-back surface until the next
    /// transition recomputes the likelihood itself.
    swapped_loglik: Option<f64>,
}

/// The baseline LAMARC-style sampler.
#[derive(Debug, Clone)]
pub struct LamarcSampler<E> {
    target: GenealogyTarget<E>,
    proposer: GenealogyProposer,
    config: SamplerConfig,
    chain: Option<BaselineChain>,
    /// The proposal slot kept across transitions: the tree the proposal is
    /// drawn into and its edited node set. Scratch, not chain state (a clone
    /// of the sampler shares a snapshot of it, which either side's next
    /// draw replaces).
    slot: Option<(GeneTree, Vec<NodeId>)>,
}

impl<E: LikelihoodEngine> LamarcSampler<E> {
    /// Create a sampler over the given likelihood engine.
    pub fn new(engine: E, config: SamplerConfig) -> Result<Self, PhyloError> {
        let target = GenealogyTarget::new(engine, config.theta)?;
        let proposer = GenealogyProposer::with_config(config.theta, config.proposal)?;
        Ok(LamarcSampler { target, proposer, config, chain: None, slot: None })
    }

    /// Temper the sampler's target with inverse temperature `beta` (β = 1/T):
    /// the chain then samples the power posterior `P(D|G)^β · P(G|θ)` — the
    /// heated-rung target of a replica-exchange ensemble. β = 1 is
    /// bit-identical to the untempered sampler.
    pub fn with_inverse_temperature(mut self, beta: f64) -> Result<Self, PhyloError> {
        self.target = self.target.with_inverse_temperature(beta)?;
        Ok(self)
    }

    /// The configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// The target (posterior) being sampled.
    pub fn target(&self) -> &GenealogyTarget<E> {
        &self.target
    }

    /// One MH transition (Eq. 28), including commit-on-accept.
    fn transition(&mut self, rng: &mut dyn RngCore) -> Result<StepReport, PhyloError> {
        let thinning = self.config.thinning.max(1);
        let chain = self.chain.as_mut().ok_or_else(no_active_chain)?;
        // A swapped-in state's likelihood is recomputed below (the engine
        // cache misses on the new tree), so the override expires here.
        chain.swapped_loglik = None;
        let target_node = self.proposer.sample_target(&chain.current, rng);
        let plan = self.proposer.plan(&chain.current, target_node);
        let (proposal, edited) =
            self.slot.get_or_insert_with(|| (chain.current.clone(), Vec::with_capacity(2)));
        self.proposer.draw_into(&plan, &chain.current, rng, proposal, edited);
        // Score the proposal through the batched engine: the generator's
        // partials are cached inside the engine across transitions, so a
        // proposal costs one dirty path (O(log n) nodes) instead of a full
        // prune — the incremental evaluation the paper credits serial LAMARC
        // with (Section 5.2.2).
        let eval = self.target.log_data_likelihood_batch(
            Backend::Serial,
            &chain.current,
            &[TreeProposal { tree: proposal, edited }],
        )?;
        let mut current_loglik = eval.generator_log_likelihood;
        let proposal_loglik = eval.log_likelihoods[0];
        chain.counters.iterations += 1;
        chain.counters.proposals_generated += 1;
        chain.counters.likelihood_evaluations += 1;
        chain.counters.nodes_repruned += eval.nodes_repruned;
        chain.counters.nodes_full_pruned += eval.nodes_full_pruned;
        chain.counters.generator_cache_hits += eval.generator_cache_hit as usize;
        chain.counters.matrix_cache_hits += eval.matrix_cache_hits;
        chain.counters.matrix_cache_misses += eval.matrix_cache_misses;
        // Eq. 28: r = P(D|G') / P(D|G); accept with min(1, r). A heated rung
        // (β < 1) flattens the ratio to r^β; the prior terms cancel at any β
        // because the proposal draws from the conditional coalescent prior.
        let log_ratio = self.target.beta() * (proposal_loglik - current_loglik);
        if log_ratio >= 0.0 || rng.gen::<f64>().ln() < log_ratio {
            // Commit-on-accept: promote the accepted proposal's dirty path
            // into the cached generator workspace so the next transition's
            // generator is a cache hit instead of a full re-prune.
            if let Some(nodes) =
                self.target.engine().commit_accepted(&chain.current, proposal, edited)?
            {
                chain.counters.workspace_commits += 1;
                chain.counters.nodes_committed += nodes;
            }
            // The old state's storage is the slot's next scratch tree.
            std::mem::swap(&mut chain.current, proposal);
            current_loglik = proposal_loglik;
            chain.counters.accepted += 1;
        }
        chain.trace.push(current_loglik);
        let step = chain.transitions_done;
        if step >= self.config.burn_in && (step - self.config.burn_in).is_multiple_of(thinning) {
            chain.samples.push(GenealogySample {
                intervals: chain.current.intervals(),
                log_data_likelihood: current_loglik,
            });
        }
        chain.counters.draws += 1;
        chain.transitions_done += 1;
        Ok(StepReport {
            draws_done: chain.transitions_done,
            total_draws: self.config.total_transitions(),
            burn_in_draws: self.config.burn_in,
            log_likelihood: current_loglik,
        })
    }
}

impl<E: LikelihoodEngine> GenealogySampler for LamarcSampler<E> {
    fn strategy(&self) -> &'static str {
        "baseline"
    }

    fn chain_info(&self) -> ChainInfo {
        ChainInfo {
            strategy: self.strategy(),
            theta: self.config.theta,
            burn_in_draws: self.config.burn_in,
            total_draws: self.config.total_transitions(),
            chain_index: 0,
        }
    }

    fn begin(&mut self, initial: GeneTree) -> Result<(), PhyloError> {
        self.chain = Some(BaselineChain {
            current: initial,
            trace: Trace::with_burn_in(self.config.burn_in),
            samples: Vec::with_capacity(self.config.samples),
            counters: RunCounters::default(),
            transitions_done: 0,
            swapped_loglik: None,
        });
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.chain
            .as_ref()
            .is_none_or(|chain| chain.transitions_done >= self.config.total_transitions())
    }

    fn step(&mut self, rng: &mut dyn RngCore) -> Result<StepReport, PhyloError> {
        self.transition(rng)
    }

    fn current_state(&self) -> Option<(GeneTree, f64)> {
        let chain = self.chain.as_ref()?;
        // A freshly swapped-in state carries its own likelihood; otherwise
        // the last trace entry is ln P(D|G) of the current state (before the
        // first transition there is none to report).
        let loglik = chain.swapped_loglik.or_else(|| chain.trace.all().last().copied())?;
        Some((chain.current.clone(), loglik))
    }

    fn current_log_likelihood(&self) -> Option<f64> {
        let chain = self.chain.as_ref()?;
        chain.swapped_loglik.or_else(|| chain.trace.all().last().copied())
    }

    fn replace_state(&mut self, tree: GeneTree, log_likelihood: f64) -> Result<(), PhyloError> {
        let chain = self.chain.as_mut().ok_or_else(no_active_chain)?;
        // The engine's cached workspace still describes the old state; the
        // next transition's batch detects the mismatch and repays one full
        // prune, so no eager rescore is needed here.
        chain.current = tree;
        chain.swapped_loglik = Some(log_likelihood);
        Ok(())
    }

    fn export_chain(&self) -> Option<ChainSnapshot> {
        let chain = self.chain.as_ref()?;
        Some(ChainSnapshot {
            tree: chain.current.clone(),
            trace_values: chain.trace.all().to_vec(),
            trace_burn_in: chain.trace.burn_in(),
            samples: chain.samples.clone(),
            counters: chain.counters,
            draws_done: chain.transitions_done,
            swapped_loglik: chain.swapped_loglik,
            // The baseline strategy has no detached proposal streams.
            stream_epoch: 0,
            engine_cache_tree: self.target.engine().cached_generator(),
        })
    }

    fn import_chain(&mut self, snapshot: ChainSnapshot) -> Result<(), PhyloError> {
        // Prime the engine with the tree its workspace was keyed to at
        // snapshot time (possibly not `snapshot.tree` after a replica
        // exchange), so cache-hit/miss counters replay identically.
        self.target.engine().prime_cache(snapshot.engine_cache_tree.as_ref())?;
        let mut trace = Trace::from_values(snapshot.trace_values);
        trace.set_burn_in(snapshot.trace_burn_in);
        self.chain = Some(BaselineChain {
            current: snapshot.tree,
            trace,
            samples: snapshot.samples,
            counters: snapshot.counters,
            transitions_done: snapshot.draws_done,
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
            final_tree: chain.current,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::NullObserver;
    use coalescent::{CoalescentSimulator, KingmanPrior, SequenceSimulator};
    use mcmc::rng::Mt19937;
    use phylo::model::{Jc69, F81};
    use phylo::{upgma_tree, Alignment, FelsensteinPruner};

    fn simulated_data(rng: &mut Mt19937, n: usize, sites: usize, theta: f64) -> Alignment {
        let tree = CoalescentSimulator::constant(theta).unwrap().simulate(rng, n).unwrap();
        SequenceSimulator::new(Jc69::new(), sites, 1.0).unwrap().simulate(rng, &tree).unwrap()
    }

    #[test]
    fn run_produces_the_requested_number_of_samples() {
        let mut rng = Mt19937::new(41);
        let alignment = simulated_data(&mut rng, 6, 60, 1.0);
        let engine =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()));
        let config = SamplerConfig {
            theta: 1.0,
            burn_in: 50,
            samples: 200,
            thinning: 2,
            proposal: ProposalConfig::default(),
        };
        let mut sampler = LamarcSampler::new(engine, config).unwrap();
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        let run = sampler.run(initial, &mut rng, &mut NullObserver).unwrap();
        assert_eq!(run.samples.len(), 200);
        assert_eq!(run.counters.draws, 50 + 400);
        assert_eq!(run.counters.iterations, 450);
        assert_eq!(run.trace.len(), 450);
        assert!(run.acceptance_rate() > 0.0 && run.acceptance_rate() <= 1.0);
        assert_eq!(run.interval_summaries().len(), 200);
        // Commit-on-accept: the engine pays exactly one full prune (the
        // initial workspace build); every accepted move is promoted along its
        // dirty path and every transition thereafter is a cache hit.
        let n_internal = run.final_tree.n_internal();
        assert!(run.counters.nodes_repruned > 0);
        assert!(run.counters.nodes_repruned <= run.counters.draws * n_internal);
        assert_eq!(run.counters.nodes_full_pruned, n_internal);
        assert_eq!(run.counters.workspace_commits, run.counters.accepted);
        assert!(run.counters.nodes_committed > 0);
        assert!(run.counters.nodes_committed < run.counters.accepted * n_internal);
        assert_eq!(run.counters.generator_cache_hits, run.counters.draws - 1);
        // Edge transition-matrix memoisation: some dirty-path edges keep
        // their effective lengths across transitions, so hits accumulate,
        // while the cold initial build and every resimulated neighborhood
        // edge pay a recomputation. (On a 6-taxon tree the neighborhood
        // covers most of the tree, so misses still dominate here — the
        // >80% steady-state rate needs the deep trees the perf trajectory
        // benchmarks.)
        assert!(run.counters.matrix_cache_hits > 0);
        assert!(run.counters.matrix_cache_misses >= run.final_tree.n_nodes() - 1);
        let rate = run.counters.matrix_cache_hit_rate();
        assert!(rate > 0.0 && rate < 1.0, "matrix cache hit rate {rate}");
        run.final_tree.validate().unwrap();
        assert_eq!(sampler.config().samples, 200);
        assert_eq!(sampler.target().theta(), 1.0);
    }

    #[test]
    fn replace_state_repays_a_full_rebuild_with_a_cold_matrix_cache() {
        // Replica exchange installs a foreign tree without touching the
        // engine cache: the next transition must repay one full prune, and
        // because the swapped-in tree shares no branch lengths with the old
        // state the edge transition-matrix cache cannot serve that rebuild.
        let mut rng = Mt19937::new(53);
        let alignment = simulated_data(&mut rng, 6, 60, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config = SamplerConfig {
            theta: 1.0,
            burn_in: 0,
            samples: 10,
            thinning: 1,
            proposal: ProposalConfig::default(),
        };
        let mut sampler = LamarcSampler::new(engine, config).unwrap();
        let initial = upgma_tree(&alignment, 1.0).unwrap();
        sampler.begin(initial).unwrap();
        sampler.step(&mut rng).unwrap();
        let swapped = CoalescentSimulator::constant(1.0)
            .unwrap()
            .simulate_labelled(
                &mut rng,
                &alignment.names().iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
            .unwrap();
        sampler.replace_state(swapped, -1.0).unwrap();
        assert_eq!(sampler.current_log_likelihood(), Some(-1.0));
        sampler.step(&mut rng).unwrap();
        let run = sampler.finish().unwrap();
        let n_internal = run.final_tree.n_internal();
        let n_edges = run.final_tree.n_nodes() - 1;
        // Two full prunes: the initial build and the post-swap rebuild.
        assert_eq!(run.counters.nodes_full_pruned, 2 * n_internal);
        assert_eq!(run.counters.generator_cache_hits, 0);
        // Both prunes ran against a cold (or useless) matrix cache, so the
        // misses cover at least two full trees' worth of edges and the hit
        // rate stays far below the steady-state regime.
        assert!(run.counters.matrix_cache_misses >= 2 * n_edges);
        assert!(run.counters.matrix_cache_hit_rate() < 0.5);
    }

    #[test]
    fn stepping_matches_a_whole_run_exactly() {
        // Driving the chain one step at a time is the same chain as run():
        // identical RNG stream, identical trace, identical counters.
        let mut rng = Mt19937::new(4_242);
        let alignment = simulated_data(&mut rng, 5, 50, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config =
            SamplerConfig { theta: 1.0, burn_in: 20, samples: 60, ..SamplerConfig::default() };
        let initial = upgma_tree(&alignment, 1.0).unwrap();

        let mut whole = LamarcSampler::new(engine.clone(), config).unwrap();
        let mut rng_a = Mt19937::new(7);
        let run_a = whole.run(initial.clone(), &mut rng_a, &mut NullObserver).unwrap();

        let mut stepped = LamarcSampler::new(engine, config).unwrap();
        assert!(stepped.is_done(), "no chain is active before begin()");
        assert!(stepped.step(&mut Mt19937::new(0)).is_err());
        assert!(stepped.finish().is_err());
        let mut rng_b = Mt19937::new(7);
        stepped.begin(initial).unwrap();
        let mut steps = 0;
        while !stepped.is_done() {
            let report = stepped.step(&mut rng_b).unwrap();
            steps += 1;
            assert_eq!(report.draws_done, steps);
            assert_eq!(report.total_draws, config.total_transitions());
        }
        let run_b = stepped.finish().unwrap();
        assert_eq!(steps, config.total_transitions());
        assert_eq!(run_a.trace.all(), run_b.trace.all());
        assert_eq!(run_a.counters, run_b.counters);
        assert_eq!(whole.strategy(), "baseline");
        assert_eq!(whole.chain_info().total_draws, config.total_transitions());
    }

    #[test]
    fn export_import_resumes_the_chain_bit_identically() {
        // Checkpoint/resume contract: stop after k transitions, rebuild the
        // sampler from scratch, import the snapshot, restore the host RNG by
        // position, and the finished run must equal the uninterrupted run
        // bit-for-bit — trace, samples, final tree, and every counter.
        let mut rng = Mt19937::new(59);
        let alignment = simulated_data(&mut rng, 6, 60, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config =
            SamplerConfig { theta: 1.0, burn_in: 20, samples: 60, ..SamplerConfig::default() };
        let initial = upgma_tree(&alignment, 1.0).unwrap();

        let mut uninterrupted = LamarcSampler::new(engine.clone(), config).unwrap();
        let mut rng_a = Mt19937::new(17);
        let run_a = uninterrupted.run(initial.clone(), &mut rng_a, &mut NullObserver).unwrap();

        let mut first_half = LamarcSampler::new(engine.clone(), config).unwrap();
        assert!(first_half.export_chain().is_none(), "no chain active before begin()");
        let mut rng_b = Mt19937::new(17);
        first_half.begin(initial).unwrap();
        for _ in 0..33 {
            first_half.step(&mut rng_b).unwrap();
        }
        let snapshot = first_half.export_chain().unwrap();
        assert_eq!(snapshot.draws_done, 33);
        assert_eq!(snapshot.stream_epoch, 0);
        drop(first_half);

        let mut resumed = LamarcSampler::new(engine, config).unwrap();
        resumed.import_chain(snapshot).unwrap();
        let mut rng_c = Mt19937::new(17);
        rng_c.discard(rng_b.position());
        while !resumed.is_done() {
            resumed.step(&mut rng_c).unwrap();
        }
        let run_b = resumed.finish().unwrap();
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn steady_state_transitions_allocate_no_tree_storage() {
        // The proposal is drawn into the kept slot and an accepted slot is
        // swapped with the state, so once warm a transition neither
        // allocates nor copy-on-write-clones a single slab.
        let mut rng = Mt19937::new(61);
        let alignment = simulated_data(&mut rng, 12, 80, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config =
            SamplerConfig { theta: 1.0, burn_in: 0, samples: 1_000, ..SamplerConfig::default() };
        let mut sampler = LamarcSampler::new(engine, config).unwrap();
        sampler.begin(upgma_tree(&alignment, 1.0).unwrap()).unwrap();
        for _ in 0..20 {
            sampler.step(&mut rng).unwrap();
        }
        let accepted = sampler.chain.as_ref().unwrap().counters.accepted;
        let before = phylo::tables::cow_stats();
        for _ in 0..200 {
            sampler.step(&mut rng).unwrap();
        }
        let delta = phylo::tables::cow_stats().since(&before);
        assert_eq!((delta.slab_allocs, delta.slab_cow_clones), (0, 0), "{delta:?}");
        assert!(sampler.chain.as_ref().unwrap().counters.accepted > accepted + 10);
    }

    #[test]
    fn a_sampler_with_a_used_slot_resumes_bit_identically() {
        // The slot is scratch: it survives `begin` and `import_chain`, and
        // whatever it holds must not leak into the resumed chain.
        let mut rng = Mt19937::new(67);
        let alignment = simulated_data(&mut rng, 8, 60, 1.0);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config =
            SamplerConfig { theta: 1.0, burn_in: 20, samples: 80, ..SamplerConfig::default() };
        let initial = upgma_tree(&alignment, 1.0).unwrap();

        let mut uninterrupted = LamarcSampler::new(engine.clone(), config).unwrap();
        let run_a = uninterrupted.run(initial.clone(), &mut Mt19937::new(3), &mut NullObserver);

        let mut first_half = LamarcSampler::new(engine.clone(), config).unwrap();
        let mut rng_b = Mt19937::new(3);
        first_half.begin(initial.clone()).unwrap();
        for _ in 0..45 {
            first_half.step(&mut rng_b).unwrap();
        }
        let snapshot = first_half.export_chain().unwrap();

        // `uninterrupted` has a used slot; so has its clone.
        let mut used = uninterrupted.clone();
        used.run(initial, &mut Mt19937::new(4), &mut NullObserver).unwrap();
        for resumed in [&mut uninterrupted, &mut used] {
            resumed.import_chain(snapshot.clone()).unwrap();
            let mut rng_c = Mt19937::new(3);
            rng_c.discard(rng_b.position());
            while !resumed.is_done() {
                resumed.step(&mut rng_c).unwrap();
            }
            assert_eq!(run_a.as_ref().unwrap(), &resumed.finish().unwrap());
        }
    }

    #[test]
    fn chain_moves_toward_higher_data_likelihood_from_a_poor_start() {
        let mut rng = Mt19937::new(43);
        let alignment = simulated_data(&mut rng, 6, 80, 1.0);
        let engine =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()));
        let config = SamplerConfig {
            theta: 1.0,
            burn_in: 0,
            samples: 600,
            thinning: 1,
            proposal: ProposalConfig::default(),
        };
        let mut sampler = LamarcSampler::new(engine, config).unwrap();
        // A deliberately terrible start: a random tree stretched far too tall.
        let mut initial = CoalescentSimulator::constant(1.0)
            .unwrap()
            .simulate_labelled(
                &mut rng,
                &alignment.names().iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
            .unwrap();
        initial.scale_times(30.0);
        let run = sampler.run(initial, &mut rng, &mut NullObserver).unwrap();
        let first = run.trace.all()[0];
        let last_mean: f64 = run.trace.all().iter().rev().take(100).sum::<f64>() / 100.0;
        assert!(
            last_mean > first,
            "chain should improve the data likelihood: started {first}, ended around {last_mean}"
        );
    }

    #[test]
    fn sampler_with_flat_data_recovers_the_prior() {
        // With a single invariant site the data likelihood is nearly flat in
        // the tree, so the chain samples (approximately) the coalescent
        // prior; mean TMRCA must approach the Kingman expectation.
        let mut rng = Mt19937::new(47);
        let alignment =
            Alignment::from_letters(&[("1", "A"), ("2", "A"), ("3", "A"), ("4", "A"), ("5", "A")])
                .unwrap();
        let theta = 1.0;
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config = SamplerConfig {
            theta,
            burn_in: 500,
            samples: 4_000,
            thinning: 1,
            proposal: ProposalConfig::default(),
        };
        let mut sampler = LamarcSampler::new(engine, config).unwrap();
        let initial = CoalescentSimulator::constant(theta)
            .unwrap()
            .simulate_labelled(
                &mut rng,
                &["1", "2", "3", "4", "5"].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
            .unwrap();
        let run = sampler.run(initial, &mut rng, &mut NullObserver).unwrap();
        let mean_depth: f64 =
            run.samples.iter().map(|s| s.intervals.depth()).sum::<f64>() / run.samples.len() as f64;
        let expected = KingmanPrior::new(theta).unwrap().expected_tmrca(5);
        // The invariant site still weakly favours shorter trees, so allow a
        // generous band around the prior expectation.
        assert!(
            (mean_depth / expected - 1.0).abs() < 0.35,
            "mean sampled depth {mean_depth} vs prior expectation {expected}"
        );
        assert!(run.acceptance_rate() > 0.5, "near-flat data should accept most proposals");
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let alignment = Alignment::from_letters(&[("a", "ACGT"), ("b", "ACGA")]).unwrap();
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let config = SamplerConfig { theta: -1.0, ..SamplerConfig::default() };
        assert!(LamarcSampler::new(engine, config).is_err());
    }
}
