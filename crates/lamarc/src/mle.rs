//! Maximum-likelihood estimation of θ from sampled genealogies
//! (Sections 2.5 and 5.1.5).
//!
//! The Monte-Carlo output is a set of genealogies sampled with driving value
//! θ₀; the relative likelihood of an arbitrary θ is the average prior ratio
//! over the sample (Eq. 26):
//!
//! ```text
//! L(θ) = (1/N) Σ_G P(G|θ) / P(G|θ₀)
//! ```
//!
//! computed here in log domain with a log-mean-exp (Section 5.3, and exactly
//! what the posterior-likelihood kernel of Section 5.2.3 computes). The
//! maximiser is the step-halving gradient ascent of Algorithm 2.
//!
//! A sample's term depends only on its summary (coalescence count, waiting
//! statistic `W`, and `ln P(G|θ₀)`), and a chain retains the same genealogy
//! many times over: a 20 000-draw run keeps around 1 400 distinct
//! summaries. [`RelativeLikelihood`] therefore groups the samples by the
//! exact bits of their summaries once, evaluates each term's log ratio and
//! its `exp` once per distinct summary, and sums the exponentials over the
//! samples *in sample order* with the same fold as
//! [`log_sum_exp`](mcmc::logdomain::log_sum_exp) — so every evaluation, and
//! the θ̂ the ascent reaches, is bit-identical to summing all samples term
//! by term.

use std::collections::BTreeMap;

use coalescent::{CoalescentError, KingmanPrior};
use phylo::tree::CoalescentIntervals;

/// The relative likelihood function `L(θ)` of Eq. 26 for a fixed set of
/// sampled genealogies and driving value θ₀.
#[derive(Debug, Clone)]
pub struct RelativeLikelihood {
    theta0: f64,
    /// The distinct sample summaries: (number of coalescences, waiting
    /// statistic Σ k(k−1)t, log prior at the driving value).
    distinct: Vec<(f64, f64, f64)>,
    /// Each sample's index into `distinct`, in sample order.
    index: Vec<u32>,
}

impl RelativeLikelihood {
    /// Build the function from interval summaries of the sampled genealogies.
    pub fn new(theta0: f64, samples: &[CoalescentIntervals]) -> Result<Self, CoalescentError> {
        let driving = KingmanPrior::new(theta0)?;
        if samples.is_empty() {
            return Err(CoalescentError::InvalidSize {
                what: "genealogy sample",
                requested: 0,
                minimum: 1,
            });
        }
        let mut slots: BTreeMap<[u64; 3], u32> = BTreeMap::new();
        let mut distinct = Vec::new();
        let index = samples
            .iter()
            .map(|s| {
                let summary = (
                    s.n_coalescences() as f64,
                    s.waiting_statistic(),
                    driving.log_prior_intervals(s),
                );
                let key = [summary.0.to_bits(), summary.1.to_bits(), summary.2.to_bits()];
                *slots.entry(key).or_insert_with(|| {
                    distinct.push(summary);
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        Ok(RelativeLikelihood { theta0, distinct, index })
    }

    /// The driving θ₀.
    pub fn theta0(&self) -> f64 {
        self.theta0
    }

    /// Number of genealogy samples backing the estimate.
    pub fn n_samples(&self) -> usize {
        self.index.len()
    }

    /// `ln L(θ)` — the log of Eq. 26. Returns `-inf` for non-positive θ so
    /// that maximisers naturally avoid the invalid region.
    pub fn log_relative_likelihood(&self, theta: f64) -> f64 {
        if !(theta > 0.0 && theta.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let ln_two_over_theta = (2.0 / theta).ln();
        let mut terms: Vec<f64> = self
            .distinct
            .iter()
            .map(|&(events, waiting, lp0)| {
                let lp = events * ln_two_over_theta - waiting / theta;
                lp - lp0
            })
            .collect();
        log_sum_exp_indexed(&mut terms, &self.index) - (self.index.len() as f64).ln()
    }

    /// Evaluate the curve at the given θ values (Figure 5).
    pub fn curve(&self, thetas: &[f64]) -> Vec<(f64, f64)> {
        thetas.iter().map(|&t| (t, self.log_relative_likelihood(t))).collect()
    }

    /// A log-spaced grid of θ values spanning `[lo, hi]`, convenient for
    /// plotting the curve.
    pub fn log_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
        assert!(lo > 0.0 && hi > lo && points >= 2, "invalid grid specification");
        let step = (hi / lo).ln() / (points - 1) as f64;
        (0..points).map(|i| lo * (step * i as f64).exp()).collect()
    }
}

/// [`log_sum_exp`](mcmc::logdomain::log_sum_exp) of the sequence
/// `terms[index[0]], terms[index[1]], …`, bit for bit: the maximum and the
/// NaN/±inf sentinels are taken over `terms` (the same set of values), each
/// `exp(x − max)` is taken once per distinct term (overwriting `terms`), and
/// the exponentials are summed in `index` order with the same `Sum` fold.
fn log_sum_exp_indexed(terms: &mut [f64], index: &[u32]) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &x in terms.iter() {
        if x.is_nan() {
            return f64::NAN;
        }
        if x > max {
            max = x;
        }
    }
    if max.is_infinite() {
        return max;
    }
    for x in terms.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f64 = index.iter().map(|&i| terms[i as usize]).sum();
    max + sum.ln()
}

/// Configuration of the gradient ascent (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientAscentConfig {
    /// Finite-difference half-width δ (relative to the current θ).
    pub delta: f64,
    /// Convergence tolerance ε on successive θ values.
    pub epsilon: f64,
    /// Hard cap on ascent iterations.
    pub max_iterations: usize,
    /// Hard cap on step-halvings per iteration.
    pub max_halvings: usize,
}

impl Default for GradientAscentConfig {
    fn default() -> Self {
        GradientAscentConfig { delta: 1e-4, epsilon: 1e-6, max_iterations: 200, max_halvings: 60 }
    }
}

/// Maximise `ln L(θ)` by the step-halving gradient ascent of Algorithm 2,
/// starting from the driving value θ₀.
///
/// Two robustness refinements are applied to the algorithm as printed in the
/// thesis: the raw finite-difference gradient near a very small driving value
/// can be enormous (the derivative scales like `1/θ²`), and a step that
/// merely *does not worsen* the objective can overshoot the maximum by orders
/// of magnitude. The inner loop therefore (a) halves the step until it is
/// positive **and** improves the objective, and then (b) keeps halving while
/// the half-step is at least as good as the full step, which is a simple
/// backtracking line search along the gradient direction.
pub fn maximize_relative_likelihood(
    likelihood: &RelativeLikelihood,
    config: &GradientAscentConfig,
) -> f64 {
    let mut theta_next = likelihood.theta0();
    for _ in 0..config.max_iterations {
        let theta = theta_next;
        let delta = config.delta * theta.max(config.delta);
        let up = likelihood.log_relative_likelihood(theta + delta);
        let down = likelihood.log_relative_likelihood((theta - delta).max(delta * 1e-3));
        let mut gradient = (up - down) / (2.0 * delta);
        if !gradient.is_finite() {
            break;
        }
        let current = likelihood.log_relative_likelihood(theta);
        let mut halvings = 0usize;
        // (a) Shrink until the step is legal and an improvement.
        loop {
            if halvings >= config.max_halvings {
                break;
            }
            let candidate = theta + gradient;
            if candidate > 0.0 && likelihood.log_relative_likelihood(candidate) >= current {
                break;
            }
            gradient *= 0.5;
            halvings += 1;
        }
        if halvings >= config.max_halvings {
            // No usable step in this direction; we are at (or numerically
            // indistinguishable from) the maximum.
            break;
        }
        // (b) Keep shrinking while the half-step is at least as good.
        while halvings < config.max_halvings && gradient.abs() > config.epsilon {
            let full = likelihood.log_relative_likelihood(theta + gradient);
            let half = likelihood.log_relative_likelihood(theta + 0.5 * gradient);
            if half >= full {
                gradient *= 0.5;
                halvings += 1;
            } else {
                break;
            }
        }
        theta_next = theta + gradient;
        if (theta - theta_next).abs() <= config.epsilon {
            break;
        }
    }
    theta_next
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalescent::{CoalescentSimulator, KingmanPrior};
    use mcmc::rng::Mt19937;
    use rand::RngCore;

    fn interval_samples(
        theta: f64,
        n_tips: usize,
        count: usize,
        seed: u32,
    ) -> Vec<CoalescentIntervals> {
        let mut rng = Mt19937::new(seed);
        let sim = CoalescentSimulator::constant(theta).unwrap();
        (0..count).map(|_| sim.simulate(&mut rng, n_tips).unwrap().intervals()).collect()
    }

    /// The per-sample evaluator `log_relative_likelihood` replaced: one
    /// log ratio per sample, then `log_sum_exp` over all of them.
    fn per_sample_log_relative_likelihood(
        theta0: f64,
        samples: &[CoalescentIntervals],
        theta: f64,
    ) -> f64 {
        if !(theta > 0.0 && theta.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let driving = KingmanPrior::new(theta0).unwrap();
        let log_ratios: Vec<f64> = samples
            .iter()
            .map(|s| {
                let lp =
                    s.n_coalescences() as f64 * (2.0 / theta).ln() - s.waiting_statistic() / theta;
                lp - driving.log_prior_intervals(s)
            })
            .collect();
        mcmc::logdomain::log_sum_exp(&log_ratios) - (log_ratios.len() as f64).ln()
    }

    /// `count` draws from `distinct` simulated summaries, chosen uniformly
    /// with replacement — the duplication a chain's retained draws show.
    fn duplicated_samples(distinct: usize, count: usize, seed: u32) -> Vec<CoalescentIntervals> {
        let pool = interval_samples(1.0, 8, distinct, seed);
        let mut rng = Mt19937::new(seed ^ 0x9e37);
        (0..count).map(|_| pool[rng.next_u32() as usize % distinct]).collect()
    }

    fn summary(n_coalescences: usize, waiting_statistic: f64) -> CoalescentIntervals {
        CoalescentIntervals {
            n_coalescences,
            waiting_statistic,
            depth: 1.0,
            total_branch_length: 1.0,
        }
    }

    #[test]
    fn grouped_evaluation_is_bit_identical_to_the_per_sample_sum() {
        for (distinct, count, seed) in [(1, 50, 11), (37, 5_000, 12), (1_400, 20_000, 13)] {
            let samples = duplicated_samples(distinct, count, seed);
            for theta0 in [0.3, 1.0, 2.5] {
                let rl = RelativeLikelihood::new(theta0, &samples).unwrap();
                assert!(rl.distinct.len() <= distinct);
                assert_eq!(rl.n_samples(), count);
                for theta in RelativeLikelihood::log_grid(1e-3, 1e3, 61).into_iter().chain([
                    theta0,
                    1e-300,
                    1e300,
                    0.0,
                    -1.0,
                    f64::NAN,
                    f64::INFINITY,
                ]) {
                    let want = per_sample_log_relative_likelihood(theta0, &samples, theta);
                    let got = rl.log_relative_likelihood(theta);
                    assert_eq!(got.to_bits(), want.to_bits(), "θ₀ {theta0}, θ {theta}");
                }
            }
        }
    }

    #[test]
    fn grouped_evaluation_keeps_the_infinite_and_nan_cases() {
        // θ = 1e-300 with W ≥ 1e10: W/θ overflows while ln(2/θ) does not,
        // so every term is −∞.
        let large_w = [summary(3, 1e10), summary(3, 1e10), summary(2, 5e12)];
        // θ = 5e-324: 2/θ overflows; with W = 0 every term is +∞, and with
        // W > 0 a term is ∞ − ∞ = NaN.
        let zero_w = [summary(3, 0.0), summary(3, 0.0)];
        let mixed = [summary(3, 0.0), summary(3, 2.0), summary(3, 0.0)];
        for (samples, theta, want) in [
            (&large_w[..], 1e-300, f64::NEG_INFINITY),
            (&zero_w[..], 5e-324, f64::INFINITY),
            (&mixed[..], 5e-324, f64::NAN),
        ] {
            let rl = RelativeLikelihood::new(1.0, samples).unwrap();
            let got = rl.log_relative_likelihood(theta);
            let old = per_sample_log_relative_likelihood(1.0, samples, theta);
            assert_eq!(got.to_bits(), old.to_bits(), "θ {theta}");
            assert!(got == want || (got.is_nan() && want.is_nan()), "θ {theta}: {got}");
        }
    }

    #[test]
    fn grouping_leaves_the_maximiser_unchanged() {
        let samples = duplicated_samples(300, 20_000, 14);
        for theta0 in [0.2, 1.0, 4.0] {
            let grouped = RelativeLikelihood::new(theta0, &samples).unwrap();
            // The same function with every sample its own summary: the
            // evaluation order of the per-sample sum.
            let ungrouped = RelativeLikelihood {
                theta0,
                distinct: grouped.index.iter().map(|&i| grouped.distinct[i as usize]).collect(),
                index: (0..samples.len() as u32).collect(),
            };
            let config = GradientAscentConfig::default();
            let a = maximize_relative_likelihood(&grouped, &config);
            let b = maximize_relative_likelihood(&ungrouped, &config);
            assert_eq!(a.to_bits(), b.to_bits(), "θ₀ {theta0}: {a} vs {b}");
            assert_eq!(
                grouped.log_relative_likelihood(a).to_bits(),
                per_sample_log_relative_likelihood(theta0, &samples, a).to_bits()
            );
        }
    }

    #[test]
    fn relative_likelihood_is_zero_at_the_driving_value() {
        let samples = interval_samples(1.0, 8, 50, 1);
        let rl = RelativeLikelihood::new(1.0, &samples).unwrap();
        assert!(rl.log_relative_likelihood(1.0).abs() < 1e-12);
        assert_eq!(rl.theta0(), 1.0);
        assert_eq!(rl.n_samples(), 50);
    }

    #[test]
    fn invalid_theta_maps_to_negative_infinity() {
        let samples = interval_samples(1.0, 6, 10, 2);
        let rl = RelativeLikelihood::new(1.0, &samples).unwrap();
        assert_eq!(rl.log_relative_likelihood(0.0), f64::NEG_INFINITY);
        assert_eq!(rl.log_relative_likelihood(-3.0), f64::NEG_INFINITY);
        assert_eq!(rl.log_relative_likelihood(f64::NAN), f64::NEG_INFINITY);
    }

    #[test]
    fn construction_requires_samples_and_valid_driving_value() {
        assert!(RelativeLikelihood::new(1.0, &[]).is_err());
        let samples = interval_samples(1.0, 6, 5, 3);
        assert!(RelativeLikelihood::new(0.0, &samples).is_err());
    }

    #[test]
    fn single_genealogy_maximum_matches_the_analytic_mle() {
        // With a single sampled genealogy, L(θ) ∝ P(G|θ) and its maximiser
        // has the closed form θ̂ = W / (n−1) regardless of the driving value;
        // the step-halving ascent (Algorithm 2) must find it.
        let samples = interval_samples(2.0, 10, 1, 4);
        let analytic = KingmanPrior::mle_from_intervals(&samples[0]);
        for driving in [0.05, 0.5, analytic, 5.0 * analytic] {
            let rl = RelativeLikelihood::new(driving, &samples).unwrap();
            let mle = maximize_relative_likelihood(&rl, &GradientAscentConfig::default());
            assert!(
                (mle / analytic - 1.0).abs() < 0.02,
                "driving {driving}: ascent found {mle}, analytic maximum is {analytic}"
            );
        }
    }

    #[test]
    fn gradient_ascent_climbs_from_a_poor_driving_value() {
        // The maximiser must improve the objective, stay positive, and land
        // between the smallest and largest single-genealogy MLEs (the mean of
        // unimodal per-sample ratio curves has its maximum inside that span).
        let samples = interval_samples(1.0, 8, 500, 5);
        let rl_bad = RelativeLikelihood::new(0.3, &samples).unwrap();
        let mle = maximize_relative_likelihood(&rl_bad, &GradientAscentConfig::default());
        assert!(mle > 0.3, "ascent should move upward from 0.3, got {mle}");
        assert!(rl_bad.log_relative_likelihood(mle) >= rl_bad.log_relative_likelihood(0.3) - 1e-9);
        let per_sample_mles: Vec<f64> =
            samples.iter().map(KingmanPrior::mle_from_intervals).collect();
        let lo = per_sample_mles.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_sample_mles.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (lo..=hi).contains(&mle),
            "maximiser {mle} outside the per-sample MLE span [{lo}, {hi}]"
        );
    }

    #[test]
    fn curve_evaluation_and_grid() {
        let samples = interval_samples(1.0, 6, 200, 6);
        let rl = RelativeLikelihood::new(1.0, &samples).unwrap();
        let grid = RelativeLikelihood::log_grid(0.1, 10.0, 25);
        assert_eq!(grid.len(), 25);
        assert!((grid[0] - 0.1).abs() < 1e-12);
        assert!((grid[24] - 10.0).abs() < 1e-9);
        assert!(grid.windows(2).all(|w| w[1] > w[0]));
        let curve = rl.curve(&grid);
        assert_eq!(curve.len(), 25);
        // The curve is finite everywhere on the positive grid.
        assert!(curve.iter().all(|(_, y)| y.is_finite()));
        // And the maximum of the curve is attained strictly inside (0.1, 10).
        let best = curve.iter().cloned().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert!(best.0 > 0.1 && best.0 < 10.0);
    }

    #[test]
    #[should_panic(expected = "invalid grid")]
    fn log_grid_rejects_bad_bounds() {
        RelativeLikelihood::log_grid(1.0, 0.5, 10);
    }

    #[test]
    fn ascent_respects_iteration_caps() {
        let samples = interval_samples(1.0, 6, 100, 7);
        let rl = RelativeLikelihood::new(1.0, &samples).unwrap();
        let tight = GradientAscentConfig { max_iterations: 1, ..Default::default() };
        let loose = GradientAscentConfig::default();
        let one_step = maximize_relative_likelihood(&rl, &tight);
        let full = maximize_relative_likelihood(&rl, &loose);
        // Both must be positive and finite; the capped run may stop early.
        assert!(one_step > 0.0 && one_step.is_finite());
        assert!(full > 0.0 && full.is_finite());
        assert!(rl.log_relative_likelihood(full) >= rl.log_relative_likelihood(one_step) - 1e-9);
    }
}
