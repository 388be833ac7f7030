//! Generalized Metropolis–Hastings (Calderhead 2014), Section 4.1.
//!
//! At every iteration the sampler generates `N` candidate states from the
//! current *generator* state, forms the proposal set of `N + 1` states (the
//! candidates plus the generator), computes the stationary distribution of
//! the auxiliary index variable `I` over that set, draws `M` index samples
//! from it, emits the indexed states as output samples, and uses the last
//! drawn state as the generator for the next iteration. With `N = 1` and
//! `M = 1` the method reduces to standard Metropolis–Hastings (checked by a
//! unit test below).
//!
//! The driver is generic: the problem supplies a [`MultiProposal`] that can
//! generate candidates (this is where the application parallelises the work)
//! and a [`ProposalSetWeight`] that returns the log stationary weight of each
//! member of the set. For the coalescent sampler the weight reduces to the
//! data likelihood `ln P(D | G̃_i)` (Eq. 29–31).

use rand::Rng;

use crate::chain::Trace;
use crate::rng::dist::LogCategoricalTable;

/// Generates a set of candidate states from the current generator state.
pub trait MultiProposal<S, R: Rng + ?Sized> {
    /// Produce `n` candidates from `generator`.
    ///
    /// Implementations are free to generate candidates in parallel; the
    /// signature only requires that the result arrive as a `Vec`.
    fn propose_set(&self, generator: &S, n: usize, rng: &mut R) -> Vec<S>;
}

/// Computes the log stationary weight of one member of a proposal set.
pub trait ProposalSetWeight<S> {
    /// Log weight (up to an additive constant shared by the whole set).
    fn log_weight(&self, state: &S) -> f64;
}

/// Blanket impl so a closure can act as a weight function.
impl<S, F> ProposalSetWeight<S> for F
where
    F: Fn(&S) -> f64,
{
    fn log_weight(&self, state: &S) -> f64 {
        self(state)
    }
}

/// Outcome of a Generalized Metropolis–Hastings run.
#[derive(Debug, Clone)]
pub struct GmhRun<S> {
    /// Retained post-burn-in samples.
    pub samples: Vec<S>,
    /// Trace of the log weight of the sampled state at every draw
    /// (burn-in included).
    pub trace: Trace,
    /// Number of iterations (proposal-set constructions) performed.
    pub iterations: usize,
    /// Number of draws in which the sampled index differed from the
    /// generator index (an analogue of the acceptance count).
    pub moved: usize,
    /// Total number of index draws performed.
    pub draws: usize,
    /// Final generator state.
    pub final_state: S,
}

impl<S> GmhRun<S> {
    /// Fraction of index draws that moved away from the generator state.
    pub fn move_rate(&self) -> f64 {
        if self.draws == 0 {
            0.0
        } else {
            self.moved as f64 / self.draws as f64
        }
    }
}

/// Configuration of the Generalized Metropolis–Hastings driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmhConfig {
    /// Number of fresh candidates per iteration (`N`).
    pub proposals_per_iteration: usize,
    /// Number of index draws per iteration (`M`). The paper uses `M = N`.
    pub draws_per_iteration: usize,
    /// Number of *draws* discarded as burn-in.
    pub burn_in_draws: usize,
    /// Number of retained post-burn-in draws.
    pub sample_draws: usize,
}

impl Default for GmhConfig {
    fn default() -> Self {
        GmhConfig {
            proposals_per_iteration: 16,
            draws_per_iteration: 16,
            burn_in_draws: 1_000,
            sample_draws: 10_000,
        }
    }
}

/// The Generalized Metropolis–Hastings driver.
#[derive(Debug, Clone)]
pub struct GeneralizedMetropolisHastings<P, W> {
    proposal: P,
    weight: W,
    config: GmhConfig,
}

impl<P, W> GeneralizedMetropolisHastings<P, W> {
    /// Create a driver.
    pub fn new(proposal: P, weight: W, config: GmhConfig) -> Self {
        GeneralizedMetropolisHastings { proposal, weight, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GmhConfig {
        &self.config
    }

    /// Run the sampler (Algorithm 1 of the paper).
    pub fn run<S, R>(&self, initial: S, rng: &mut R) -> GmhRun<S>
    where
        S: Clone,
        P: MultiProposal<S, R>,
        W: ProposalSetWeight<S>,
        R: Rng + ?Sized,
    {
        let n = self.config.proposals_per_iteration.max(1);
        let m = self.config.draws_per_iteration.max(1);
        let total_draws = self.config.burn_in_draws + self.config.sample_draws;

        let mut generator = initial;
        let mut samples = Vec::with_capacity(self.config.sample_draws);
        let mut trace = Trace::with_burn_in(self.config.burn_in_draws);
        let mut moved = 0usize;
        let mut draws_done = 0usize;
        let mut iterations = 0usize;

        while draws_done < total_draws {
            iterations += 1;
            // Step 4 of Algorithm 1: draw N candidates from the proposal kernel.
            let candidates = self.proposal.propose_set(&generator, n, rng);
            // The proposal set is the candidates plus the generator (index n).
            let generator_index = candidates.len();
            // Step 5: stationary distribution of I over the set.
            let mut log_weights: Vec<f64> =
                candidates.iter().map(|c| self.weight.log_weight(c)).collect();
            log_weights.push(self.weight.log_weight(&generator));

            // Guard against a fully degenerate set: stay at the generator.
            let table = LogCategoricalTable::new(&log_weights);

            // Steps 6-8: draw M index samples.
            let mut last_index = generator_index;
            for _ in 0..m {
                if draws_done >= total_draws {
                    break;
                }
                let idx = table.as_ref().and_then(|t| t.sample(rng)).unwrap_or(generator_index);
                if idx != generator_index {
                    moved += 1;
                }
                let state = if idx == generator_index { &generator } else { &candidates[idx] };
                trace.push(log_weights[idx]);
                if draws_done >= self.config.burn_in_draws {
                    samples.push(state.clone());
                }
                last_index = idx;
                draws_done += 1;
            }

            // The last sample becomes the generator of the next proposal set.
            if last_index != generator_index {
                generator = candidates[last_index].clone();
            }
        }

        GmhRun { samples, trace, iterations, moved, draws: total_draws, final_state: generator }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metropolis::{LogTarget, MetropolisHastings, ProposalKernel};
    use crate::rng::Mt19937;

    /// Target: unit normal. Proposal kernel: independent draws from a wide
    /// uniform window around the generator. For an independence-style kernel
    /// proposing from density q(x) and target pi(x), the GMH stationary
    /// weight of a member is pi(x)/q(x); with q locally uniform this is just
    /// pi(x), matching the paper's simplification (Eq. 31).
    struct WindowProposal {
        half_width: f64,
    }

    impl<R: Rng + ?Sized> MultiProposal<f64, R> for WindowProposal {
        fn propose_set(&self, generator: &f64, n: usize, rng: &mut R) -> Vec<f64> {
            (0..n).map(|_| generator + self.half_width * (2.0 * rng.gen::<f64>() - 1.0)).collect()
        }
    }

    fn normal_log_weight(x: &f64) -> f64 {
        -0.5 * x * x
    }

    #[test]
    fn gmh_recovers_normal_moments() {
        let config = GmhConfig {
            proposals_per_iteration: 8,
            draws_per_iteration: 8,
            burn_in_draws: 2_000,
            sample_draws: 40_000,
        };
        let gmh = GeneralizedMetropolisHastings::new(
            WindowProposal { half_width: 3.0 },
            normal_log_weight,
            config,
        );
        let mut rng = Mt19937::new(101);
        let run = gmh.run(8.0, &mut rng);
        assert_eq!(run.samples.len(), 40_000);
        let mean: f64 = run.samples.iter().sum::<f64>() / run.samples.len() as f64;
        let var: f64 =
            run.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / run.samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
        assert!(run.move_rate() > 0.2);
        assert!(run.iterations > 0);
    }

    #[test]
    fn gmh_with_one_proposal_matches_metropolis_hastings_statistically() {
        // With N = 1, M = 1, GMH over {candidate, current} with weights
        // proportional to the target is the Barker variant of MH; both target
        // the same distribution, so their moments must agree.
        struct Walk(f64);
        impl<R: Rng + ?Sized> ProposalKernel<f64, R> for Walk {
            fn propose(&self, x: &f64, rng: &mut R) -> (f64, f64) {
                (x + self.0 * (2.0 * rng.gen::<f64>() - 1.0), 0.0)
            }
        }
        struct Normal;
        impl LogTarget<f64> for Normal {
            fn log_density(&self, x: &f64) -> f64 {
                -0.5 * x * x
            }
        }

        let config = GmhConfig {
            proposals_per_iteration: 1,
            draws_per_iteration: 1,
            burn_in_draws: 2_000,
            sample_draws: 40_000,
        };
        let gmh = GeneralizedMetropolisHastings::new(
            WindowProposal { half_width: 2.0 },
            normal_log_weight,
            config,
        );
        let mut rng = Mt19937::new(7);
        let grun = gmh.run(0.0, &mut rng);

        let mh = MetropolisHastings::new(Normal, Walk(2.0));
        let mut rng = Mt19937::new(7);
        let mrun = mh.run(0.0, 40_000, 2_000, 1, &mut rng);

        let gmean: f64 = grun.samples.iter().sum::<f64>() / grun.samples.len() as f64;
        let mmean: f64 = mrun.samples.iter().sum::<f64>() / mrun.samples.len() as f64;
        let gvar: f64 = grun.samples.iter().map(|x| (x - gmean).powi(2)).sum::<f64>()
            / grun.samples.len() as f64;
        let mvar: f64 = mrun.samples.iter().map(|x| (x - mmean).powi(2)).sum::<f64>()
            / mrun.samples.len() as f64;
        assert!((gmean - mmean).abs() < 0.1, "means differ: {gmean} vs {mmean}");
        assert!((gvar - mvar).abs() < 0.2, "variances differ: {gvar} vs {mvar}");
    }

    #[test]
    fn degenerate_weights_keep_the_generator() {
        struct Stuck;
        impl<R: Rng + ?Sized> MultiProposal<f64, R> for Stuck {
            fn propose_set(&self, g: &f64, n: usize, _rng: &mut R) -> Vec<f64> {
                vec![*g + 1.0; n]
            }
        }
        // All weights -inf: the chain must not move or panic.
        let config = GmhConfig {
            proposals_per_iteration: 4,
            draws_per_iteration: 4,
            burn_in_draws: 0,
            sample_draws: 20,
        };
        let gmh = GeneralizedMetropolisHastings::new(Stuck, |_: &f64| f64::NEG_INFINITY, config);
        let mut rng = Mt19937::new(3);
        let run = gmh.run(5.0, &mut rng);
        assert_eq!(run.samples.len(), 20);
        assert!(run.samples.iter().all(|&x| x == 5.0));
        assert_eq!(run.move_rate(), 0.0);
        assert_eq!(run.final_state, 5.0);
    }

    #[test]
    fn burn_in_draws_are_excluded_from_samples() {
        let config = GmhConfig {
            proposals_per_iteration: 4,
            draws_per_iteration: 4,
            burn_in_draws: 100,
            sample_draws: 60,
        };
        let gmh = GeneralizedMetropolisHastings::new(
            WindowProposal { half_width: 1.0 },
            normal_log_weight,
            config,
        );
        let mut rng = Mt19937::new(5);
        let run = gmh.run(0.0, &mut rng);
        assert_eq!(run.samples.len(), 60);
        assert_eq!(run.draws, 160);
        assert_eq!(run.trace.len(), 160);
        assert_eq!(run.trace.burn_in(), 100);
        assert_eq!(run.config_check(), 160);
    }

    impl<S> GmhRun<S> {
        fn config_check(&self) -> usize {
            self.draws
        }
    }

    #[test]
    fn empty_draws_move_rate_is_zero() {
        let run: GmhRun<f64> = GmhRun {
            samples: vec![],
            trace: Trace::default(),
            iterations: 0,
            moved: 0,
            draws: 0,
            final_state: 1.0,
        };
        assert_eq!(run.move_rate(), 0.0);
    }

    #[test]
    fn config_accessor_returns_configuration() {
        let config = GmhConfig::default();
        let gmh = GeneralizedMetropolisHastings::new(
            WindowProposal { half_width: 1.0 },
            normal_log_weight,
            config,
        );
        assert_eq!(gmh.config().proposals_per_iteration, 16);
    }
}
