//! Hand-rolled samplers for the distributions the samplers need.
//!
//! Only `rand`'s uniform primitives are used; everything else (exponential,
//! categorical, categorical from log weights, standard normal, sampling
//! without replacement) is implemented here so the workspace does not pull in
//! `rand_distr`. Each sampler is documented with the inversion / rejection
//! scheme it uses and is covered by statistical unit tests.

use rand::Rng;

use crate::logdomain::log_sum_exp;

/// Sample an exponential random variable with the given `rate` (λ > 0) by
/// inversion: `-ln(1-U)/λ`.
///
/// # Panics
/// Panics if `rate` is not strictly positive and finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "exponential rate must be positive, got {rate}");
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]; ln of it is finite.
    -(1.0 - u).ln() / rate
}

/// Sample an index from a categorical distribution given unnormalised
/// probabilities (linear domain).
///
/// Returns `None` if the weights are empty or sum to zero / are not finite.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().copied().filter(|w| w.is_finite() && *w > 0.0).sum();
    if weights.is_empty() || total <= 0.0 || !total.is_finite() {
        return None;
    }
    let mut x = rng.gen::<f64>() * total;
    let mut last_valid = None;
    for (i, &w) in weights.iter().enumerate() {
        if !(w.is_finite() && w > 0.0) {
            continue;
        }
        last_valid = Some(i);
        if x < w {
            return Some(i);
        }
        x -= w;
    }
    // Floating point slack: fall back to the last positive-weight index.
    last_valid
}

/// Sample an index from a categorical distribution given **log** weights.
///
/// This is the sampling step of the Generalized Metropolis–Hastings index
/// chain (Section 4.3): the weights are `log P(D|G̃_i)` values which may be
/// hundreds of log-units below zero, so normalisation must happen in log
/// space (Section 5.3). Callers drawing repeatedly from the same weights
/// should build one [`LogCategoricalTable`] and sample it instead.
///
/// Returns `None` if no weight is finite.
pub fn log_categorical<R: Rng + ?Sized>(rng: &mut R, log_weights: &[f64]) -> Option<usize> {
    LogCategoricalTable::new(log_weights)?.sample(rng)
}

/// A categorical distribution over log weights, normalised once for many
/// draws: `norm = log_sum_exp(w)` and the running sums of `exp(w_i − norm)`
/// in index order. Each draw is one uniform and a scan for the first
/// running sum above it, so every draw consumes the RNG and returns exactly
/// what [`log_categorical`] on the same weights would.
#[derive(Debug, Clone, PartialEq)]
pub struct LogCategoricalTable {
    cumulative: Vec<f64>,
    /// The last index with a positive probability: the answer when float
    /// slack leaves the uniform above the final running sum.
    last_valid: Option<usize>,
}

impl LogCategoricalTable {
    /// Normalise `log_weights`; `None` if they are empty or none is finite
    /// (or any is NaN or +∞).
    pub fn new(log_weights: &[f64]) -> Option<Self> {
        if log_weights.is_empty() {
            return None;
        }
        let norm = log_sum_exp(log_weights);
        if !norm.is_finite() {
            return None;
        }
        let mut cum = 0.0f64;
        let mut last_valid = None;
        let cumulative = log_weights
            .iter()
            .enumerate()
            .map(|(i, &lw)| {
                let p = (lw - norm).exp();
                if p > 0.0 {
                    last_valid = Some(i);
                }
                cum += p;
                cum
            })
            .collect();
        Some(LogCategoricalTable { cumulative, last_valid })
    }

    /// Draw one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let u: f64 = rng.gen();
        self.cumulative.iter().position(|&cum| u < cum).or(self.last_valid)
    }
}

/// Sample a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would make ln(0) = -inf.
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample a uniform integer in `[0, n)`. Convenience wrapper matching the
/// auxiliary-variable draw of Section 4.3 (`phi ~ Uniform(1..N)`).
///
/// # Panics
/// Panics if `n == 0`.
pub fn uniform_index<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    assert!(n > 0, "cannot draw a uniform index from an empty range");
    rng.gen_range(0..n)
}

/// Sample `k` distinct indices from `[0, n)` by partial Fisher–Yates.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Mt19937;

    fn rng() -> Mt19937 {
        Mt19937::new(20_240_101)
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let rate = 2.5;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        let mut r = rng();
        exponential(&mut r, 0.0);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let w = [1.0, 2.0, 7.0];
        let n = 60_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[categorical(&mut r, &w).unwrap()] += 1;
        }
        let p2 = counts[2] as f64 / n as f64;
        assert!((p2 - 0.7).abs() < 0.02, "p2 {p2}");
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - 0.1).abs() < 0.02, "p0 {p0}");
    }

    #[test]
    fn categorical_handles_degenerate_inputs() {
        let mut r = rng();
        assert_eq!(categorical(&mut r, &[]), None);
        assert_eq!(categorical(&mut r, &[0.0, 0.0]), None);
        assert_eq!(categorical(&mut r, &[f64::NAN, 0.0]), None);
        // A single positive weight amid zeros always wins.
        for _ in 0..100 {
            assert_eq!(categorical(&mut r, &[0.0, 3.0, 0.0]), Some(1));
        }
    }

    #[test]
    fn log_categorical_matches_linear_categorical() {
        let mut r1 = rng();
        let mut r2 = rng();
        let w = [0.5f64, 1.5, 3.0, 0.25];
        let lw: Vec<f64> = w.iter().map(|x| x.ln()).collect();
        let n = 40_000;
        let mut lin = [0usize; 4];
        let mut log = [0usize; 4];
        for _ in 0..n {
            lin[categorical(&mut r1, &w).unwrap()] += 1;
            log[log_categorical(&mut r2, &lw).unwrap()] += 1;
        }
        for i in 0..4 {
            let a = lin[i] as f64 / n as f64;
            let b = log[i] as f64 / n as f64;
            assert!((a - b).abs() < 0.02, "bucket {i}: linear {a} vs log {b}");
        }
    }

    #[test]
    fn log_categorical_handles_extreme_magnitudes() {
        let mut r = rng();
        // Weights far below exp-able range must still normalise correctly.
        let lw = [-100_000.0, -100_000.0 + (2.0f64).ln()];
        let n = 30_000;
        let ones = (0..n).filter(|_| log_categorical(&mut r, &lw) == Some(1)).count();
        let p1 = ones as f64 / n as f64;
        assert!((p1 - 2.0 / 3.0).abs() < 0.02, "p1 {p1}");
    }

    #[test]
    fn log_categorical_rejects_all_infinite() {
        let mut r = rng();
        assert_eq!(log_categorical(&mut r, &[f64::NEG_INFINITY, f64::NEG_INFINITY]), None);
        assert_eq!(log_categorical(&mut r, &[]), None);
    }

    /// The pre-table `log_categorical`, kept verbatim as the reference the
    /// table must reproduce draw for draw.
    fn log_categorical_direct<R: Rng + ?Sized>(rng: &mut R, log_weights: &[f64]) -> Option<usize> {
        if log_weights.is_empty() {
            return None;
        }
        let norm = log_sum_exp(log_weights);
        if !norm.is_finite() {
            return None;
        }
        let u: f64 = rng.gen();
        let mut cum = 0.0f64;
        let mut last_valid = None;
        for (i, &lw) in log_weights.iter().enumerate() {
            let p = (lw - norm).exp();
            if p > 0.0 {
                last_valid = Some(i);
            }
            cum += p;
            if u < cum {
                return Some(i);
            }
        }
        last_valid
    }

    /// Draw `draws` indices from one table, from repeated `log_categorical`
    /// calls and from the direct reference, on triplet generators: same
    /// indices, same generator positions.
    fn assert_table_matches_direct(seed: u32, log_weights: &[f64], draws: usize) {
        let (mut a, mut b, mut c) = (Mt19937::new(seed), Mt19937::new(seed), Mt19937::new(seed));
        let table = LogCategoricalTable::new(log_weights);
        for k in 0..draws {
            let want = log_categorical_direct(&mut c, log_weights);
            assert_eq!(table.as_ref().and_then(|t| t.sample(&mut a)), want, "draw {k}");
            assert_eq!(log_categorical(&mut b, log_weights), want, "draw {k}");
        }
        assert_eq!(a.position(), c.position(), "RNG consumption differs over {log_weights:?}");
        assert_eq!(b.position(), c.position(), "RNG consumption differs over {log_weights:?}");
    }

    #[test]
    fn table_draws_match_repeated_log_categorical_calls() {
        let mut r = rng();
        for case in 0..300u32 {
            let n = 1 + uniform_index(&mut r, 40);
            let spread = [1.0, 50.0, 800.0][case as usize % 3];
            let mut lw: Vec<f64> =
                (0..n).map(|_| -spread * r.gen::<f64>() - 1_000.0 * (case % 2) as f64).collect();
            // Knock out some entries: weight zero in the linear domain.
            for w in lw.iter_mut() {
                if r.gen::<f64>() < 0.2 {
                    *w = f64::NEG_INFINITY;
                }
            }
            assert_table_matches_direct(case, &lw, 32);
        }
        // Degenerate and edge inputs.
        assert_eq!(LogCategoricalTable::new(&[]), None);
        assert_eq!(LogCategoricalTable::new(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), None);
        assert_eq!(LogCategoricalTable::new(&[f64::NAN, 0.0]), None);
        assert_eq!(LogCategoricalTable::new(&[f64::INFINITY, 0.0]), None);
        assert_table_matches_direct(1, &[f64::NEG_INFINITY, f64::NEG_INFINITY], 8);
        assert_table_matches_direct(2, &[-3.5], 8);
        assert_table_matches_direct(3, &[f64::NEG_INFINITY, -700.0, f64::NEG_INFINITY], 8);
        let single = LogCategoricalTable::new(&[-3.5]).unwrap();
        assert_eq!(single.sample(&mut rng()), Some(0));
    }

    #[test]
    fn table_falls_back_to_the_last_valid_index_on_float_slack() {
        // A uniform at or above the final running sum (which float rounding
        // can leave just below 1) selects the last positive-weight index,
        // skipping trailing zero-probability entries.
        let table = LogCategoricalTable::new(&[0.0, 0.0, f64::NEG_INFINITY]).unwrap();
        assert_eq!(table.last_valid, Some(1));
        let slack = LogCategoricalTable { cumulative: vec![0.3, 0.6, 0.6], last_valid: Some(1) };
        let mut r = rng();
        let mut fell_back = 0;
        for _ in 0..200 {
            let mut probe = r.clone();
            let u: f64 = probe.gen();
            let got = slack.sample(&mut r);
            assert_eq!(r.position(), probe.position());
            if u >= 0.6 {
                assert_eq!(got, Some(1));
                fell_back += 1;
            }
        }
        assert!(fell_back > 0, "no uniform landed in the slack");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| 3.0 + 2.0 * standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn uniform_index_covers_range() {
        let mut r = rng();
        let mut seen = [false; 3];
        for _ in 0..200 {
            let i = uniform_index(&mut r, 3);
            assert!(i < 3);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_complete() {
        let mut r = rng();
        for _ in 0..100 {
            let s = sample_without_replacement(&mut r, 10, 4);
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4);
            assert!(s.iter().all(|&i| i < 10));
        }
        let all = sample_without_replacement(&mut r, 5, 5);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
