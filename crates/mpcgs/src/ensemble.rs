//! The ensemble layer: sharded multi-chain sampling as a first-class
//! [`GenealogySampler`].
//!
//! The paper's headline scaling axis is running many communicating genealogy
//! chains at once. This module promotes "many chains" from the historical
//! work-around (a free function spawning ad-hoc threads) into a designed API:
//!
//! * [`ShardedSampler`] owns `N` per-chain sampler strategies (each built by
//!   [`Session::make_chain_sampler`]) plus one deterministic host RNG stream
//!   per chain (from [`mcmc::rng::StreamBank`]), and advances the ensemble
//!   one dispatch *segment* at a time — the iterations between
//!   synchronization points (`swap_interval` on a ladder; the whole run for
//!   independent chains) — round-robin on [`Backend::Serial`], one scoped
//!   worker thread per chain on [`Backend::Rayon`] ([`Backend::map_mut`]).
//!   Because every chain owns its RNG stream and likelihood engine, the two
//!   backends are **bit-identical**.
//! * [`ExchangePolicy`] decides what the chains share:
//!   [`ExchangePolicy::Independent`] replicates the target across chains and
//!   pools their post-burn-in samples; [`ExchangePolicy::TemperatureLadder`]
//!   runs MC³-style replica exchange — rung `k` samples the power posterior
//!   `P(D|G)^βₖ · P(G|θ)` and adjacent rungs attempt Metropolis state swaps
//!   in log domain every `swap_interval` rounds.
//! * [`EnsembleReport`] aggregates the per-chain [`RunReport`]s: pooled θ
//!   estimate, swap-acceptance counters (also folded into the unified
//!   [`RunCounters`]), and the cross-chain Gelman–Rubin R̂ built on
//!   [`mcmc::diagnostics`].
//! * Observer fan-in: one [`RunObserver`] attached to the session sees every
//!   chain's start/end events tagged with [`ChainInfo::chain_index`].
//!
//! Because [`ShardedSampler`] *is* a [`GenealogySampler`], the whole ensemble
//! slots into every existing driver: `Session::run` maximises θ over the
//! pooled samples and `Session::run_chain` returns the pooled run report.
//!
//! See [`EnsembleBuilder`] for a runnable end-to-end quick start, and the
//! "Ensemble layer" section of `docs/ARCHITECTURE.md` for the design
//! (determinism story, tempering, pooling rules).

use exec::Backend;
use rand::{Rng, RngCore};

use lamarc::mle::{maximize_relative_likelihood, GradientAscentConfig, RelativeLikelihood};
use lamarc::run::{
    no_active_chain, ChainInfo, ChainSnapshot, GenealogySampler, RunCounters, RunObserver,
    RunReport, StepReport,
};
use lamarc::sampler::GenealogySample;
use mcmc::diagnostics::gelman_rubin;
use mcmc::logdomain::LogProb;
use mcmc::rng::{Mt19937, StreamBank};
use phylo::tree::CoalescentIntervals;
use phylo::{GeneTree, PhyloError};

use crate::session::Session;

/// How the chains of an ensemble communicate.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ExchangePolicy {
    /// Fully independent replicated chains: every chain samples the same
    /// posterior and the post-burn-in samples of *all* chains are pooled
    /// (the Section 3 work-around, now first-class).
    #[default]
    Independent,
    /// MC³-style replica exchange: chain `k` samples the power posterior
    /// `P(D|G)^βₖ · P(G|θ)` with `βₖ = 1/temperatures[k]`, and adjacent
    /// rungs attempt a Metropolis state swap every `swap_interval` rounds.
    /// Only cold rungs (temperature 1.0) contribute pooled samples.
    TemperatureLadder {
        /// One temperature per chain; `temperatures[0]` must be 1.0 (the
        /// cold, estimation chain) and every rung must be ≥ 1.0 and finite.
        temperatures: Vec<f64>,
        /// Attempt swaps after every `swap_interval`-th ensemble round
        /// (must be ≥ 1).
        swap_interval: usize,
    },
}

/// Whether a rung temperature classifies as *cold* (an estimation chain):
/// its inverse temperature β rounds to 1 within `1e-9`. Pooling, R̂ and the
/// parallel-cost accounting all filter rungs through this one predicate, so
/// a user-supplied ladder whose cold rung reads `1.0 + 1e-12` is treated as
/// the estimation chain it plainly is rather than silently dropped by an
/// exact `t == 1.0` comparison.
pub fn is_cold_rung(temperature: f64) -> bool {
    (temperature - 1.0).abs() <= 1e-9
}

impl ExchangePolicy {
    /// A geometrically spaced ladder `1, r, r², …` reaching
    /// `hottest_temperature` at the last rung — the conventional MC³
    /// spacing. With one chain the ladder degenerates to a single cold rung.
    ///
    /// Fails unless `hottest_temperature` is finite and strictly above 1
    /// (a "ladder" that never heats, or cools, is a configuration error
    /// better caught here than as a generic rung complaint deep inside
    /// validation) and `swap_interval` is at least 1.
    pub fn geometric_ladder(
        n_chains: usize,
        hottest_temperature: f64,
        swap_interval: usize,
    ) -> Result<Self, PhyloError> {
        if !(hottest_temperature.is_finite() && hottest_temperature > 1.0) {
            return Err(PhyloError::InvalidParameter {
                name: "hottest_temperature",
                value: hottest_temperature,
                constraint: "finite and > 1.0 (the ladder must heat above the cold chain)",
            });
        }
        if swap_interval == 0 {
            return Err(PhyloError::InvalidParameter {
                name: "swap_interval",
                value: 0.0,
                constraint: "at least one round between swap attempts",
            });
        }
        let temperatures = if n_chains <= 1 {
            vec![1.0; n_chains.max(1)]
        } else {
            let ratio = hottest_temperature.powf(1.0 / (n_chains as f64 - 1.0));
            (0..n_chains).map(|k| ratio.powi(k as i32)).collect()
        };
        Ok(ExchangePolicy::TemperatureLadder { temperatures, swap_interval })
    }

    /// Short policy name (`"independent"` / `"ladder"`).
    pub fn name(&self) -> &'static str {
        match self {
            ExchangePolicy::Independent => "independent",
            ExchangePolicy::TemperatureLadder { .. } => "ladder",
        }
    }

    /// The per-chain temperatures this policy implies for an ensemble of
    /// `n_chains` (all 1.0 for [`ExchangePolicy::Independent`]).
    pub fn temperatures(&self, n_chains: usize) -> Vec<f64> {
        match self {
            ExchangePolicy::Independent => vec![1.0; n_chains],
            ExchangePolicy::TemperatureLadder { temperatures, .. } => temperatures.clone(),
        }
    }

    /// One flag per rung: `true` for the estimation (cold) chains — the
    /// rungs whose samples pool and whose traces feed cross-chain
    /// diagnostics. Built once at validation time ([`is_cold_rung`]) and
    /// carried through [`EnsembleReport::cold_rungs`] so every consumer
    /// classifies identically.
    pub fn cold_mask(&self, n_chains: usize) -> Vec<bool> {
        self.temperatures(n_chains).iter().map(|&t| is_cold_rung(t)).collect()
    }

    fn validate(&self, n_chains: usize) -> Result<(), PhyloError> {
        match self {
            ExchangePolicy::Independent => Ok(()),
            ExchangePolicy::TemperatureLadder { temperatures, swap_interval } => {
                if temperatures.len() != n_chains {
                    return Err(PhyloError::InvalidState {
                        message: format!(
                            "temperature ladder has {} rungs but the ensemble runs {} chains",
                            temperatures.len(),
                            n_chains
                        ),
                    });
                }
                if *swap_interval == 0 {
                    return Err(PhyloError::InvalidParameter {
                        name: "swap_interval",
                        value: 0.0,
                        constraint: "at least one round between swap attempts",
                    });
                }
                for (k, &t) in temperatures.iter().enumerate() {
                    // A rung a hair *below* 1.0 still classifies cold; only
                    // genuinely sub-cold or non-finite rungs are invalid.
                    if !(t.is_finite() && (t >= 1.0 || is_cold_rung(t))) {
                        return Err(PhyloError::InvalidParameter {
                            name: "temperature",
                            value: t,
                            constraint: "every rung finite and >= 1.0",
                        });
                    }
                    if k == 0 && !is_cold_rung(t) {
                        return Err(PhyloError::InvalidParameter {
                            name: "temperature",
                            value: t,
                            constraint: "rung 0 is the cold chain (temperature 1.0)",
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

/// Configuration of an ensemble: how many chains, how they communicate, and
/// the master seed their deterministic per-chain RNG streams derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSpec {
    /// Number of chains (`P`).
    pub n_chains: usize,
    /// The exchange policy.
    pub exchange: ExchangePolicy,
    /// Master seed of the per-chain host RNG streams and the swap-decision
    /// stream. Chains are seeded from a [`StreamBank`], so the ensemble is
    /// reproducible independently of backend and thread count.
    pub ensemble_seed: u64,
    /// Where *chain-level* dispatch runs: `None` inherits the session
    /// backend (chains and their inner proposal batches share one knob),
    /// `Some(backend)` decouples the two — e.g. serial within-chain work
    /// sharded across one scoped thread per chain
    /// (`Some(Backend::Rayon)`), the one-chain-per-processor shape of
    /// Section 3. Dispatch choice never changes results (chains own their
    /// RNG streams), only wall-clock.
    pub chain_dispatch: Option<Backend>,
}

impl Default for EnsembleSpec {
    fn default() -> Self {
        EnsembleSpec {
            n_chains: 4,
            exchange: ExchangePolicy::Independent,
            ensemble_seed: 0x656E_7365_6D62_6C65, // "ensemble"
            chain_dispatch: None,
        }
    }
}

impl EnsembleSpec {
    /// An independent ensemble of `n_chains` with the default seed.
    pub fn independent(n_chains: usize) -> Self {
        EnsembleSpec { n_chains, ..EnsembleSpec::default() }
    }

    /// Validate the specification.
    pub fn validate(&self) -> Result<(), PhyloError> {
        if self.n_chains == 0 {
            return Err(PhyloError::InvalidParameter {
                name: "n_chains",
                value: 0.0,
                constraint: "at least one chain",
            });
        }
        self.exchange.validate(self.n_chains)
    }

    /// The per-chain inverse temperatures βₖ = 1/Tₖ. Rungs that classify as
    /// cold ([`is_cold_rung`]) are snapped to β = 1 exactly, so a ladder
    /// whose cold rung was written as `1.0 + 1e-12` samples the untempered
    /// posterior its pooled samples are treated as coming from.
    pub fn betas(&self) -> Vec<f64> {
        self.exchange
            .temperatures(self.n_chains)
            .iter()
            .map(|&t| if is_cold_rung(t) { 1.0 } else { 1.0 / t })
            .collect()
    }

    /// One flag per rung: `true` for the estimation (cold) chains. See
    /// [`ExchangePolicy::cold_mask`].
    pub fn cold_mask(&self) -> Vec<bool> {
        self.exchange.cold_mask(self.n_chains)
    }

    /// The deterministic per-chain host RNG streams (`n_chains` generators,
    /// decorrelated via a [`StreamBank`] over `ensemble_seed`). Exposed so
    /// tests and external drivers can reproduce exactly the stream chain `k`
    /// consumes.
    pub fn chain_rngs(&self) -> Vec<Mt19937> {
        let mut streams = StreamBank::new(self.ensemble_seed, self.n_chains + 1).into_streams();
        streams.truncate(self.n_chains);
        streams
    }

    /// The dedicated stream swap decisions are drawn from (stream
    /// `n_chains` of the same bank — never shared with any chain).
    pub fn swap_rng(&self) -> Mt19937 {
        StreamBank::new(self.ensemble_seed, self.n_chains + 1)
            .into_streams()
            .pop()
            // mpcgs-analyze: allow(r1, reason = "the bank is constructed with n_chains + 1 streams two lines up, so pop() cannot see an empty vec")
            .expect("bank has n_chains + 1 streams")
    }
}

/// The aggregated outcome of one ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// Per-chain unified run reports, in rung order.
    pub chains: Vec<RunReport>,
    /// Per-chain temperatures (all 1.0 for an independent ensemble).
    pub temperatures: Vec<f64>,
    /// Per-chain cold-rung classification ([`is_cold_rung`], built at
    /// validation): the estimation chains whose samples pool and whose
    /// traces feed cross-chain diagnostics.
    pub cold_rungs: Vec<bool>,
    /// The measured host-vs-device cost breakdown, when the run dispatched
    /// through `Backend::Device` (`None` otherwise).
    pub device: Option<exec::DeviceReport>,
    /// The driving θ the ensemble ran with.
    pub driving_theta: f64,
    /// Burn-in draws discarded per chain.
    pub burn_in_draws: usize,
    /// Pooled post-burn-in samples across the estimation chains (all chains
    /// when independent; the cold rungs of a ladder).
    pub pooled_samples: Vec<GenealogySample>,
    /// The gradient-ascent configuration [`EnsembleReport::pooled_theta`]
    /// maximises with (the session's `ascent` settings).
    pub ascent: GradientAscentConfig,
    /// Work counters aggregated across all chains, including the
    /// replica-exchange swap counters.
    pub counters: RunCounters,
}

impl EnsembleReport {
    /// Number of chains.
    pub fn n_chains(&self) -> usize {
        self.chains.len()
    }

    /// The cold chain (rung 0) — the estimation chain of a ladder, the
    /// first replica of an independent ensemble.
    pub fn cold_chain(&self) -> &RunReport {
        &self.chains[0]
    }

    /// Pooled interval summaries (what the maximisation stage consumes).
    pub fn pooled_interval_summaries(&self) -> Vec<CoalescentIntervals> {
        self.pooled_samples.iter().map(|s| s.intervals.clone()).collect()
    }

    /// The maximiser of the pooled relative likelihood (Eq. 26 over the
    /// pooled samples), or `None` when the pool is unusable (e.g. empty).
    /// Computed on demand — EM drivers run their own maximisation over the
    /// pooled run report and never pay for this.
    pub fn pooled_theta(&self) -> Option<f64> {
        let summaries = self.pooled_interval_summaries();
        RelativeLikelihood::new(self.driving_theta, &summaries)
            .ok()
            .map(|rl| maximize_relative_likelihood(&rl, &self.ascent))
    }

    /// The Gelman–Rubin potential scale reduction factor R̂ across the
    /// estimation chains' post-burn-in `ln P(D|G)` traces. `None` when fewer
    /// than two estimation chains ran or the traces are too short — R̂ is a
    /// between-chain diagnostic, so heated rungs are excluded.
    pub fn r_hat(&self) -> Option<f64> {
        let traces: Vec<Vec<f64>> = self
            .chains
            .iter()
            .zip(&self.cold_rungs)
            .filter(|(_, &cold)| cold)
            .map(|(c, _)| c.trace.post_burn_in().to_vec())
            .collect();
        gelman_rubin(&traces).ok()
    }

    /// Fraction of attempted replica-exchange swaps that were accepted.
    pub fn swap_acceptance_rate(&self) -> f64 {
        self.counters.swap_acceptance_rate()
    }

    /// Draws performed by each chain (`B + ⌈N/P⌉` in the Section 3
    /// accounting; identical across chains by construction).
    pub fn transitions_per_chain(&self) -> usize {
        self.chains.first().map(|c| c.counters.draws).unwrap_or(0)
    }

    /// Total draws performed across all chains (`P·B + P·⌈N/P⌉`).
    pub fn total_transitions(&self) -> usize {
        self.chains.iter().map(|c| c.counters.draws).sum()
    }

    /// Fraction of all performed work spent in burn-in — the Figure 6
    /// inefficiency, measured from what the chains actually did rather than
    /// re-derived from configuration.
    pub fn burn_in_fraction(&self) -> f64 {
        let total = self.total_transitions();
        if total == 0 {
            0.0
        } else {
            (self.n_chains() * self.burn_in_draws) as f64 / total as f64
        }
    }

    /// The idealised per-chain wall-clock cost `B + N/P` of Section 3 for
    /// this run: every chain pays its own burn-in, and the retained pool is
    /// split across the chains that feed it. `P` here is the number of
    /// *estimation* chains (temperature 1.0) — on a temperature ladder only
    /// the cold rungs pool, so heated rungs add no pooling speedup (their
    /// payoff is mixing, not throughput) and the ideal cost equals the cold
    /// chain's own draw count.
    pub fn ideal_parallel_cost(&self) -> f64 {
        let estimation = self.cold_rungs.iter().filter(|&&cold| cold).count();
        if estimation == 0 {
            return 0.0;
        }
        self.burn_in_draws as f64 + self.pooled_samples.len() as f64 / estimation as f64
    }

    /// The pooled view as a unified [`RunReport`]: pooled samples, the cold
    /// chain's trace and final tree, aggregate counters. This is what
    /// [`ShardedSampler::finish`] returns, so ensemble runs slot into every
    /// single-chain driver.
    pub fn pooled_run_report(&self) -> RunReport {
        let cold = self.cold_chain();
        RunReport {
            samples: self.pooled_samples.clone(),
            trace: cold.trace.clone(),
            counters: self.counters,
            final_tree: cold.final_tree.clone(),
        }
    }
}

/// One chain of the ensemble: a boxed sampler strategy plus its owned host
/// RNG stream.
struct Shard {
    sampler: Box<dyn GenealogySampler>,
    rng: Mt19937,
}

/// A whole in-flight ensemble, frozen mid-run: one [`ChainSnapshot`] per
/// rung plus the positions of every deterministic RNG stream the ensemble
/// consumes (per-chain host streams and the swap-decision stream) and the
/// replica-exchange counters.
///
/// Restoring with [`ShardedSampler::import_ensemble`] on a freshly built
/// sampler over the same [`EnsembleSpec`] and driving θ continues the run
/// bit-identically — every rung, every swap decision, every counter.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSnapshot {
    /// Per-rung chain snapshots, in rung order.
    pub chains: Vec<ChainSnapshot>,
    /// Absolute position of each chain's host RNG stream (outputs emitted
    /// since seeding).
    pub chain_rng_positions: Vec<u64>,
    /// Absolute position of the swap-decision stream.
    pub swap_rng_position: u64,
    /// Replica-exchange swaps attempted so far this run.
    pub swap_attempts: usize,
    /// Replica-exchange swaps accepted so far this run.
    pub swaps_accepted: usize,
    /// The driving θ the ensemble was built at.
    pub driving_theta: f64,
}

/// `N` communicating chains behind a single [`GenealogySampler`] surface.
///
/// One [`ShardedSampler::step`] advances *every* chain through one dispatch
/// segment — the kernel iterations between synchronization points
/// (`swap_interval` on a temperature ladder, the whole run for independent
/// chains) — round-robin on the serial backend, one scoped worker thread
/// per chain on rayon — and then, on a ladder, attempts the scheduled
/// replica-exchange swaps. The host RNG passed to
/// [`GenealogySampler::step`] is deliberately ignored: each chain consumes
/// its own deterministic stream from the [`EnsembleSpec`], which is what
/// makes serial and parallel dispatch bit-identical.
pub struct ShardedSampler {
    shards: Vec<Shard>,
    /// The spec the ensemble was built from — kept so checkpoint import can
    /// re-derive every deterministic RNG stream from its seed and fast-forward
    /// it to the recorded position.
    spec: EnsembleSpec,
    betas: Vec<f64>,
    temperatures: Vec<f64>,
    cold_rungs: Vec<bool>,
    swap_interval: Option<usize>,
    swap_rng: Mt19937,
    backend: Backend,
    driving_theta: f64,
    burn_in_draws: usize,
    ascent: GradientAscentConfig,
    swap_attempts: usize,
    swaps_accepted: usize,
    last_ensemble: Option<EnsembleReport>,
    /// When the within-chain backend is the device backend: its spec, plus
    /// the queue baseline snapshotted at `begin()` so `finish()` can report
    /// exactly this run's host-vs-device cost breakdown.
    device_spec: Option<exec::DeviceSpec>,
    device_baseline: exec::DeviceStats,
}

impl ShardedSampler {
    /// Build an ensemble of per-chain samplers from a configured session at
    /// the given driving θ. Chain `k` gets inverse temperature βₖ from the
    /// spec's exchange policy, a decorrelated proposal stream seed, and host
    /// RNG stream `k` of the spec's stream bank.
    pub fn from_session(
        session: &Session,
        spec: &EnsembleSpec,
        theta: f64,
    ) -> Result<ShardedSampler, PhyloError> {
        spec.validate()?;
        let session_backend = session.config().backend;
        let chain_backend = spec.chain_dispatch.unwrap_or(session_backend);
        // The device backend's accounting (and the one simulated device the
        // chains share) serialises chain dispatch through the command queue
        // on the calling thread; scoped worker threads would submit to
        // queues nobody reads. Reject the combination instead of silently
        // losing the cost breakdown.
        if session_backend.is_device() && matches!(chain_backend, Backend::Rayon) {
            return Err(PhyloError::InvalidState {
                message: "chain_dispatch: Rayon cannot shard chains whose within-chain \
                          backend is the device backend (the simulated device is one \
                          command queue; drop chain_dispatch or use Serial)"
                    .to_string(),
            });
        }
        let betas = spec.betas();
        let temperatures = spec.exchange.temperatures(spec.n_chains);
        let cold_rungs = spec.cold_mask();
        let swap_interval = match &spec.exchange {
            ExchangePolicy::Independent => None,
            ExchangePolicy::TemperatureLadder { swap_interval, .. } => Some(*swap_interval),
        };
        let mut shards = Vec::with_capacity(spec.n_chains);
        for (k, rng) in spec.chain_rngs().into_iter().enumerate() {
            let sampler = session.make_chain_sampler(theta, betas[k], k)?;
            shards.push(Shard { sampler, rng });
        }
        Ok(ShardedSampler {
            shards,
            spec: spec.clone(),
            betas,
            temperatures,
            cold_rungs,
            swap_interval,
            swap_rng: spec.swap_rng(),
            backend: chain_backend,
            driving_theta: theta,
            burn_in_draws: session.config().burn_in_draws,
            ascent: session.config().ascent,
            swap_attempts: 0,
            swaps_accepted: 0,
            last_ensemble: None,
            device_spec: session_backend.device_spec(),
            device_baseline: exec::DeviceStats::default(),
        })
    }

    /// Number of chains.
    pub fn n_chains(&self) -> usize {
        self.shards.len()
    }

    /// The per-chain temperatures.
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Rebuild the per-chain samplers at a new driving θ (used by the EM
    /// driver between rounds) while *keeping* the per-chain host RNG streams,
    /// so successive rounds draw fresh randomness. A no-op when θ is
    /// unchanged — callers must still `begin()` (or `run()`, which does)
    /// before stepping again, since a finished round leaves the samplers
    /// consumed either way.
    pub fn retune(&mut self, session: &Session, theta: f64) -> Result<(), PhyloError> {
        if theta == self.driving_theta {
            return Ok(());
        }
        for (k, shard) in self.shards.iter_mut().enumerate() {
            shard.sampler = session.make_chain_sampler(theta, self.betas[k], k)?;
        }
        self.driving_theta = theta;
        Ok(())
    }

    /// Per-chain chain descriptions, tagged with their ensemble index.
    pub fn chain_infos(&self) -> Vec<ChainInfo> {
        self.shards
            .iter()
            .enumerate()
            .map(|(k, shard)| ChainInfo { chain_index: k, ..shard.sampler.chain_info() })
            .collect()
    }

    /// Advance every chain through one dispatch segment and return the cold
    /// chain's per-iteration [`StepReport`]s for that segment (what
    /// [`ShardedSampler::run`] feeds to observers, so coarse dispatch does
    /// not starve per-iteration hooks). Errors when the ensemble is finished
    /// or was never begun.
    pub fn step_segment(&mut self) -> Result<Vec<StepReport>, PhyloError> {
        // Mirrors the single-chain contract: stepping a finished or
        // never-begun ensemble is an error.
        if self.is_done() {
            return Err(no_active_chain());
        }
        let segment = self.swap_interval.unwrap_or(usize::MAX);
        let reports = self.backend.map_mut(&mut self.shards, |k, shard| {
            let Shard { sampler, rng } = shard;
            // The cold chain keeps every report of the segment (observer
            // feed); the others only need their last, to surface errors.
            let mut collected = Vec::new();
            for i in 0..segment {
                if i > 0 && sampler.is_done() {
                    break;
                }
                let report = sampler.step(rng)?;
                if k == 0 || collected.is_empty() {
                    collected.push(report);
                } else {
                    collected[0] = report;
                }
            }
            Ok::<Vec<StepReport>, PhyloError>(collected)
        });
        let mut cold = Vec::new();
        for (k, result) in reports.into_iter().enumerate() {
            let chain_reports = result?;
            if k == 0 {
                cold = chain_reports;
            }
        }
        // Swap at the segment boundary; after the final segment the chains
        // are finished and a swap could no longer affect any retained sample.
        if self.swap_interval.is_some() && !self.is_done() {
            self.attempt_swaps()?;
        }
        if cold.is_empty() {
            return Err(no_active_chain());
        }
        Ok(cold)
    }

    /// Export the whole in-flight ensemble as an [`EnsembleSnapshot`], or
    /// `None` when no run is active (every rung must have an active chain).
    pub fn export_ensemble(&self) -> Option<EnsembleSnapshot> {
        let chains: Option<Vec<ChainSnapshot>> =
            self.shards.iter().map(|shard| shard.sampler.export_chain()).collect();
        Some(EnsembleSnapshot {
            chains: chains?,
            chain_rng_positions: self.shards.iter().map(|shard| shard.rng.position()).collect(),
            swap_rng_position: self.swap_rng.position(),
            swap_attempts: self.swap_attempts,
            swaps_accepted: self.swaps_accepted,
            driving_theta: self.driving_theta,
        })
    }

    /// Restore an in-flight ensemble from a snapshot previously produced by
    /// [`ShardedSampler::export_ensemble`] on an identically specified
    /// ensemble at the same driving θ. Every rung's chain is imported, and
    /// every deterministic RNG stream is re-derived from the spec's seed and
    /// fast-forwarded to its recorded position, so the resumed ensemble
    /// replays the uninterrupted run bit-for-bit — swap decisions included.
    ///
    /// Errors point at the exact mismatch: rung count, RNG stream count, or
    /// driving θ.
    pub fn import_ensemble(&mut self, snapshot: EnsembleSnapshot) -> Result<(), PhyloError> {
        if snapshot.chains.len() != self.shards.len() {
            return Err(PhyloError::InvalidState {
                message: format!(
                    "checkpoint shape mismatch: the snapshot holds {} chain(s) but this \
                     ensemble runs {} chain(s)",
                    snapshot.chains.len(),
                    self.shards.len()
                ),
            });
        }
        if snapshot.chain_rng_positions.len() != self.shards.len() {
            return Err(PhyloError::InvalidState {
                message: format!(
                    "checkpoint shape mismatch: the snapshot records {} host RNG position(s) \
                     but this ensemble runs {} chain(s)",
                    snapshot.chain_rng_positions.len(),
                    self.shards.len()
                ),
            });
        }
        if snapshot.driving_theta != self.driving_theta {
            return Err(PhyloError::InvalidState {
                message: format!(
                    "checkpoint mismatch: the snapshot was taken at driving theta {} but this \
                     ensemble was built at {}",
                    snapshot.driving_theta, self.driving_theta
                ),
            });
        }
        let fresh_rngs = self.spec.chain_rngs();
        for (((shard, chain), mut rng), &position) in self
            .shards
            .iter_mut()
            .zip(snapshot.chains)
            .zip(fresh_rngs)
            .zip(&snapshot.chain_rng_positions)
        {
            shard.sampler.import_chain(chain)?;
            rng.discard(position);
            shard.rng = rng;
        }
        let mut swap_rng = self.spec.swap_rng();
        swap_rng.discard(snapshot.swap_rng_position);
        self.swap_rng = swap_rng;
        self.swap_attempts = snapshot.swap_attempts;
        self.swaps_accepted = snapshot.swaps_accepted;
        self.last_ensemble = None;
        if self.device_spec.is_some() {
            self.device_baseline = exec::Queue::stats();
        }
        Ok(())
    }

    /// The ensemble report of the most recent finished run, consuming it.
    pub fn take_ensemble_report(&mut self) -> Option<EnsembleReport> {
        self.last_ensemble.take()
    }

    /// The ensemble report of the most recent finished run.
    pub fn ensemble_report(&self) -> Option<&EnsembleReport> {
        self.last_ensemble.as_ref()
    }

    /// Attempt one sweep of adjacent-rung Metropolis swaps (rung `i` against
    /// `i+1`, in order). The acceptance probability in log domain is
    /// `ln α = (βᵢ − βⱼ)·(ln P(D|Gⱼ) − ln P(D|Gᵢ))`, clamped to
    /// [`LogProb::ONE`]; identical temperatures therefore always accept.
    ///
    /// The sweep snapshots every rung's `ln P(D|G)` once (no tree clones)
    /// and carries the values through a permutation, so after an accepted
    /// swap of `(i, i+1)` the next pair `(i+1, i+2)` sees rung `i+1`'s *new*
    /// likelihood — re-reading chain state mid-sweep would pair the
    /// swapped-in tree with the pre-swap trace entry and bias the
    /// acceptance. Only rungs whose final source differs clone and write a
    /// tree back; a sweep with no accepted swap moves nothing.
    fn attempt_swaps(&mut self) -> Result<(), PhyloError> {
        let loglik: Vec<Option<f64>> =
            self.shards.iter().map(|shard| shard.sampler.current_log_likelihood()).collect();
        // source[k]: the rung whose pre-sweep state ends up at rung k.
        let mut source: Vec<usize> = (0..self.shards.len()).collect();
        let mut current = loglik;
        for i in 0..self.shards.len().saturating_sub(1) {
            let j = i + 1;
            let (Some(ll_i), Some(ll_j)) = (current[i], current[j]) else {
                continue;
            };
            self.swap_attempts += 1;
            let delta = (self.betas[i] - self.betas[j]) * (ll_j - ll_i);
            let log_alpha = LogProb::new(delta.min(0.0));
            let accept =
                log_alpha == LogProb::ONE || self.swap_rng.gen::<f64>().ln() < log_alpha.value();
            if accept {
                source.swap(i, j);
                current.swap(i, j);
                self.swaps_accepted += 1;
            }
        }
        // Materialise the permutation: clone the moved trees first (their
        // owners may themselves be overwritten), then write them back with
        // their matching likelihoods.
        let moved: Vec<(usize, GeneTree, f64)> = source
            .iter()
            .enumerate()
            .filter(|(k, &src)| src != *k)
            .map(|(k, &src)| {
                let (tree, ll) = self.shards[src].sampler.current_state().ok_or_else(|| {
                    PhyloError::InvalidState {
                        message: format!(
                            "swap permutation references rung {src} before its chain began"
                        ),
                    }
                })?;
                Ok((k, tree, ll))
            })
            .collect::<Result<_, PhyloError>>()?;
        for (k, tree, ll) in moved {
            self.shards[k].sampler.replace_state(tree, ll)?;
        }
        Ok(())
    }
}

impl GenealogySampler for ShardedSampler {
    fn strategy(&self) -> &'static str {
        "ensemble"
    }

    fn chain_info(&self) -> ChainInfo {
        // The ensemble presents the cold chain's shape; per-chain infos are
        // available from `chain_infos()`.
        self.shards[0].sampler.chain_info()
    }

    fn begin(&mut self, initial: GeneTree) -> Result<(), PhyloError> {
        for shard in &mut self.shards {
            shard.sampler.begin(initial.clone())?;
        }
        self.swap_attempts = 0;
        self.swaps_accepted = 0;
        self.last_ensemble = None;
        if self.device_spec.is_some() {
            self.device_baseline = exec::Queue::stats();
        }
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.shards.iter().all(|s| s.sampler.is_done())
    }

    /// Advance every chain through one dispatch *segment*
    /// ([`ShardedSampler::step_segment`]): the kernel iterations between
    /// synchronization points. On a temperature ladder a segment is
    /// `swap_interval` iterations (chains must rendezvous to exchange
    /// states); independent chains need no barrier at all, so one step
    /// drives every chain to completion — one worker thread per chain for
    /// the whole run, exactly the one-chain-per-processor dispatch of
    /// Section 3. Chains advance independently either way, so segmentation
    /// changes scheduling granularity, never results. Returns the cold
    /// chain's last report of the segment; callers needing the full
    /// per-iteration stream use [`ShardedSampler::step_segment`].
    ///
    /// The passed RNG is intentionally unused: chains consume their own
    /// deterministic streams, which is what keeps serial and parallel
    /// dispatch bit-identical.
    fn step(&mut self, _rng: &mut dyn RngCore) -> Result<StepReport, PhyloError> {
        let cold_reports = self.step_segment()?;
        cold_reports.last().copied().ok_or_else(no_active_chain)
    }

    fn current_state(&self) -> Option<(GeneTree, f64)> {
        // The ensemble's "current state" is the cold chain's.
        self.shards.first().and_then(|s| s.sampler.current_state())
    }

    fn replace_state(&mut self, tree: GeneTree, log_likelihood: f64) -> Result<(), PhyloError> {
        self.shards
            .first_mut()
            .ok_or_else(no_active_chain)?
            .sampler
            .replace_state(tree, log_likelihood)
    }

    fn finish(&mut self) -> Result<RunReport, PhyloError> {
        let mut chains = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            chains.push(shard.sampler.finish()?);
        }
        // Pool the estimation chains: every chain when independent, the cold
        // rungs of a ladder (heated rungs sample a flattened posterior and
        // would bias the estimate). Classification comes from the cold mask
        // built at validation, so near-1.0 rungs are not silently dropped.
        let pooled_samples: Vec<GenealogySample> = chains
            .iter()
            .zip(&self.cold_rungs)
            .filter(|(_, &cold)| cold)
            .flat_map(|(c, _)| c.samples.iter().cloned())
            .collect();
        let mut counters =
            chains.iter().fold(RunCounters::default(), |acc, chain| acc.merged(&chain.counters));
        counters.swap_attempts = self.swap_attempts;
        counters.swaps_accepted = self.swaps_accepted;
        let device = self.device_spec.map(|spec| {
            exec::DeviceReport::new(spec, exec::Queue::stats().delta(&self.device_baseline))
        });
        let report = EnsembleReport {
            chains,
            temperatures: self.temperatures.clone(),
            cold_rungs: self.cold_rungs.clone(),
            device,
            driving_theta: self.driving_theta,
            burn_in_draws: self.burn_in_draws,
            pooled_samples,
            ascent: self.ascent,
            counters,
        };
        let pooled_run = report.pooled_run_report();
        self.last_ensemble = Some(report);
        Ok(pooled_run)
    }

    /// Run the whole ensemble, fanning tagged per-chain events into the
    /// observer: one [`RunObserver::on_chain_start`] per chain (each tagged
    /// with its [`ChainInfo::chain_index`]), the cold chain's per-round
    /// progress, and one [`RunObserver::on_chain_end`] per chain with its
    /// individual [`RunReport`].
    fn run(
        &mut self,
        initial: GeneTree,
        rng: &mut dyn RngCore,
        observer: &mut dyn RunObserver,
    ) -> Result<RunReport, PhyloError> {
        let _ = rng; // chains consume their own deterministic streams
        self.begin(initial)?;
        for info in self.chain_infos() {
            observer.on_chain_start(&info);
        }
        while !self.is_done() {
            // Dispatch is segmented, but the observer still receives the
            // cold chain's full per-iteration event stream (delivered at
            // each segment boundary).
            for step in self.step_segment()? {
                if step.in_burn_in() {
                    observer.on_burn_in_progress(step.draws_done, step.burn_in_draws);
                }
                observer.on_iteration(&step);
            }
        }
        let pooled = self.finish()?;
        if let Some(report) = &self.last_ensemble {
            for chain in &report.chains {
                observer.on_chain_end(chain);
            }
        }
        Ok(pooled)
    }
}

/// A configured ensemble: a [`Session`] whose runs shard across `N` chains.
///
/// Built by [`EnsembleBuilder`]; [`Ensemble::run`] performs one ensemble
/// pass and returns the aggregated [`EnsembleReport`]. For EM estimation
/// over the pooled samples, convert back with [`Ensemble::into_session`] and
/// call `Session::run` — the session keeps the ensemble configuration.
pub struct Ensemble {
    session: Session,
}

impl Ensemble {
    /// Start building an ensemble.
    pub fn builder() -> EnsembleBuilder {
        EnsembleBuilder::new()
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Run one ensemble pass at the configured θ₀ and return the aggregated
    /// report.
    pub fn run<R: Rng>(&mut self, rng: &mut R) -> Result<EnsembleReport, PhyloError> {
        self.session.run_ensemble(rng)
    }

    /// Convert into the underlying session (which keeps the ensemble
    /// configuration, so `Session::run` shards too).
    pub fn into_session(self) -> Session {
        self.session
    }
}

/// Staged construction of an [`Ensemble`] over a configured [`Session`]:
/// session → chains → exchange policy → seed.
///
/// A deliberately tiny end-to-end ensemble (real runs use the defaults in
/// [`crate::MpcgsConfig`]):
///
/// ```
/// use exec::Backend;
/// use mcmc::rng::Mt19937;
/// use mpcgs::ensemble::{EnsembleBuilder, ExchangePolicy};
/// use mpcgs::{MpcgsConfig, Session};
/// use phylo::Alignment;
///
/// let alignment = Alignment::from_letters(&[
///     ("a", "ACGTACGTAACCGGTT"),
///     ("b", "ACGTACGAAACCGGTA"),
///     ("c", "ACGAACGTAACCGGTT"),
///     ("d", "TCGTACGTAACCGGTT"),
/// ])
/// .unwrap();
/// let config = MpcgsConfig {
///     initial_theta: 0.5,
///     em_iterations: 1,
///     burn_in_draws: 8,
///     sample_draws: 32,
///     proposals_per_iteration: 4,
///     draws_per_iteration: 4,
///     backend: Backend::Serial,
///     ..MpcgsConfig::default()
/// };
/// let session = Session::builder().alignment(alignment).config(config).build().unwrap();
///
/// let mut ensemble = EnsembleBuilder::new()
///     .session(session)
///     .chains(2)
///     .exchange(ExchangePolicy::Independent)
///     .seed(7)
///     .build()
///     .unwrap();
/// let report = ensemble.run(&mut Mt19937::new(1)).unwrap();
/// assert_eq!(report.n_chains(), 2);
/// assert_eq!(report.pooled_samples.len(), 64); // 32 retained draws per chain
/// assert!(report.pooled_theta().unwrap() > 0.0);
/// ```
pub struct EnsembleBuilder {
    session: Option<Session>,
    n_chains: usize,
    exchange: ExchangePolicy,
    ensemble_seed: Option<u64>,
    chain_dispatch: Option<Backend>,
}

impl Default for EnsembleBuilder {
    fn default() -> Self {
        EnsembleBuilder::new()
    }
}

impl EnsembleBuilder {
    /// An empty builder (equivalent to `Ensemble::builder()`).
    pub fn new() -> Self {
        EnsembleBuilder {
            session: None,
            n_chains: EnsembleSpec::default().n_chains,
            exchange: ExchangePolicy::Independent,
            ensemble_seed: None,
            chain_dispatch: None,
        }
    }

    /// The configured session the chains replicate. Required.
    pub fn session(mut self, session: Session) -> Self {
        self.session = Some(session);
        self
    }

    /// Number of chains (default 4).
    pub fn chains(mut self, n_chains: usize) -> Self {
        self.n_chains = n_chains;
        self
    }

    /// The exchange policy (default [`ExchangePolicy::Independent`]).
    pub fn exchange(mut self, exchange: ExchangePolicy) -> Self {
        self.exchange = exchange;
        self
    }

    /// Master seed for the deterministic per-chain RNG streams (default:
    /// the [`EnsembleSpec`] default seed).
    pub fn seed(mut self, ensemble_seed: u64) -> Self {
        self.ensemble_seed = Some(ensemble_seed);
        self
    }

    /// Where chain-level dispatch runs (default: inherit the session
    /// backend). See [`EnsembleSpec::chain_dispatch`].
    pub fn chain_dispatch(mut self, backend: Backend) -> Self {
        self.chain_dispatch = Some(backend);
        self
    }

    /// Validate and assemble the ensemble.
    pub fn build(self) -> Result<Ensemble, PhyloError> {
        let mut session = self.session.ok_or(PhyloError::Empty { what: "ensemble session" })?;
        let spec = EnsembleSpec {
            n_chains: self.n_chains,
            exchange: self.exchange,
            ensemble_seed: self.ensemble_seed.unwrap_or(EnsembleSpec::default().ensemble_seed),
            chain_dispatch: self.chain_dispatch,
        };
        spec.validate()?;
        session.set_ensemble(Some(spec));
        Ok(Ensemble { session })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn geometric_ladder_spans_one_to_hottest() {
        let policy = ExchangePolicy::geometric_ladder(4, 8.0, 5).unwrap();
        let ExchangePolicy::TemperatureLadder { temperatures, swap_interval } = &policy else {
            panic!("geometric_ladder builds a ladder");
        };
        assert_eq!(*swap_interval, 5);
        assert_eq!(temperatures.len(), 4);
        assert!((temperatures[0] - 1.0).abs() < 1e-12);
        assert!((temperatures[3] - 8.0).abs() < 1e-9);
        assert!(temperatures.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(policy.name(), "ladder");
        EnsembleSpec { n_chains: 4, exchange: policy, ..EnsembleSpec::default() }
            .validate()
            .unwrap();

        // Degenerate single-rung ladder is just a cold chain.
        let single = ExchangePolicy::geometric_ladder(1, 8.0, 1).unwrap();
        assert_eq!(single.temperatures(1), vec![1.0]);
    }

    #[test]
    fn geometric_ladder_rejects_degenerate_spans_at_construction() {
        // A ladder that never heats (or cools, or is not a number) is a
        // configuration error caught with a pointed message, not a generic
        // rung complaint from deep inside validation.
        for bad in [1.0, 0.5, 0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ExchangePolicy::geometric_ladder(4, bad, 5).unwrap_err();
            assert!(
                err.to_string().contains("hottest_temperature"),
                "unhelpful error for hottest {bad}: {err}"
            );
            // The check also protects the degenerate single-chain form.
            assert!(ExchangePolicy::geometric_ladder(1, bad, 5).is_err());
        }
        // Swap interval 0 is caught at construction too.
        let err = ExchangePolicy::geometric_ladder(4, 8.0, 0).unwrap_err();
        assert!(err.to_string().contains("swap_interval"), "{err}");
    }

    #[test]
    fn cold_rung_classification_tolerates_float_noise() {
        assert!(is_cold_rung(1.0));
        assert!(is_cold_rung(1.0 + 1e-12));
        assert!(is_cold_rung(1.0 - 1e-12));
        assert!(!is_cold_rung(1.0 + 1e-6));
        assert!(!is_cold_rung(2.0));
        assert!(!is_cold_rung(f64::NAN));

        // A user-supplied ladder whose cold rung carries float noise
        // validates, classifies cold, and snaps to beta = 1 exactly.
        let spec = EnsembleSpec {
            n_chains: 3,
            exchange: ExchangePolicy::TemperatureLadder {
                temperatures: vec![1.0 + 1e-12, 1.0 - 1e-12, 4.0],
                swap_interval: 2,
            },
            ..EnsembleSpec::default()
        };
        spec.validate().unwrap();
        assert_eq!(spec.cold_mask(), vec![true, true, false]);
        assert_eq!(spec.betas(), vec![1.0, 1.0, 0.25]);

        // A genuinely sub-cold rung is still invalid.
        let bad = EnsembleSpec {
            n_chains: 2,
            exchange: ExchangePolicy::TemperatureLadder {
                temperatures: vec![1.0, 0.5],
                swap_interval: 2,
            },
            ..EnsembleSpec::default()
        };
        assert!(bad.validate().is_err());
        // And rung 0 must classify cold.
        let hot_first = EnsembleSpec {
            n_chains: 2,
            exchange: ExchangePolicy::TemperatureLadder {
                temperatures: vec![2.0, 4.0],
                swap_interval: 2,
            },
            ..EnsembleSpec::default()
        };
        assert!(hot_first.validate().is_err());
    }

    #[test]
    fn spec_betas_invert_temperatures() {
        let spec = EnsembleSpec {
            n_chains: 3,
            exchange: ExchangePolicy::TemperatureLadder {
                temperatures: vec![1.0, 2.0, 4.0],
                swap_interval: 1,
            },
            ..EnsembleSpec::default()
        };
        assert_eq!(spec.betas(), vec![1.0, 0.5, 0.25]);
        assert_eq!(EnsembleSpec::independent(2).betas(), vec![1.0, 1.0]);
        assert_eq!(ExchangePolicy::Independent.name(), "independent");
        assert_eq!(ExchangePolicy::default(), ExchangePolicy::Independent);
    }

    #[test]
    fn chain_rngs_are_deterministic_and_disjoint_from_the_swap_stream() {
        let spec = EnsembleSpec { n_chains: 3, ensemble_seed: 5, ..EnsembleSpec::default() };
        let mut a = spec.chain_rngs();
        let mut b = spec.chain_rngs();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            assert_eq!(x.next_u32(), y.next_u32());
        }
        let mut swap_a = spec.swap_rng();
        let mut swap_b = spec.swap_rng();
        assert_eq!(swap_a.next_u32(), swap_b.next_u32());
        // The swap stream is not any chain's stream.
        let mut fresh = spec.chain_rngs();
        let mut swap = spec.swap_rng();
        let swap_word = swap.next_u32();
        assert!(fresh.iter_mut().all(|rng| rng.next_u32() != swap_word));
    }
}
