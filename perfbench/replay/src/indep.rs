//! Reference computations made apart from the program: Felsenstein pruning
//! under F81 with empirical frequencies, the relative likelihood of Eq. 26
//! and its maximiser, and the effective sample size of a series. Nothing
//! here calls into the program's crates; the output checks compare the
//! program's results against these.

/// A rooted binary tree for pruning: `children[node]` is `None` for tips,
/// whose alignment row is `tip_row[node]`.
#[derive(Debug, Clone)]
pub struct PruneTree {
    /// Children of each interior node.
    pub children: Vec<Option<(usize, usize)>>,
    /// Node ages.
    pub time: Vec<f64>,
    /// Alignment row of each tip (unused for interior nodes).
    pub tip_row: Vec<usize>,
    /// The root node.
    pub root: usize,
}

/// Empirical base frequencies with one pseudocount per base — the
/// estimator the paper's F81 (Eq. 20) is fitted with.
pub fn empirical_freqs(rows: &[Vec<u8>]) -> [f64; 4] {
    let mut counts = [1usize; 4];
    for row in rows {
        for &b in row {
            counts[b as usize] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    counts.map(|c| c as f64 / total as f64)
}

/// F81 transition matrix normalised to one substitution per unit time.
fn f81_matrix(freqs: &[f64; 4], t: f64) -> [[f64; 4]; 4] {
    let u = 1.0 / (1.0 - freqs.iter().map(|f| f * f).sum::<f64>());
    let decay = (-u * t).exp();
    let mut p = [[0.0; 4]; 4];
    for (from, row) in p.iter_mut().enumerate() {
        for (to, cell) in row.iter_mut().enumerate() {
            *cell = (1.0 - decay) * freqs[to] + if from == to { decay } else { 0.0 };
        }
    }
    p
}

/// `ln P(D|G)` by Felsenstein's pruning algorithm, site by site, under F81
/// with the given frequencies. Partials are rescaled per node so deep trees
/// cannot underflow.
pub fn log_likelihood(tree: &PruneTree, rows: &[Vec<u8>], freqs: &[f64; 4]) -> f64 {
    let n_sites = rows[0].len();
    let mut order = Vec::with_capacity(tree.time.len());
    let mut stack = vec![(tree.root, false)];
    while let Some((node, expanded)) = stack.pop() {
        match tree.children[node] {
            Some((a, b)) if !expanded => {
                stack.push((node, true));
                stack.push((a, false));
                stack.push((b, false));
            }
            _ => order.push(node),
        }
    }
    let mut matrices = vec![[[0.0; 4]; 4]; tree.time.len()];
    for &node in &order {
        if let Some((a, b)) = tree.children[node] {
            matrices[a] = f81_matrix(freqs, tree.time[node] - tree.time[a]);
            matrices[b] = f81_matrix(freqs, tree.time[node] - tree.time[b]);
        }
    }
    let mut total = 0.0;
    let mut partial = vec![[0.0; 4]; tree.time.len()];
    for site in 0..n_sites {
        let mut log_scale = 0.0;
        for &node in &order {
            partial[node] = match tree.children[node] {
                None => {
                    let mut p = [0.0; 4];
                    p[rows[tree.tip_row[node]][site] as usize] = 1.0;
                    p
                }
                Some((a, b)) => {
                    let mut p = [0.0; 4];
                    for (x, px) in p.iter_mut().enumerate() {
                        let la: f64 = (0..4).map(|y| matrices[a][x][y] * partial[a][y]).sum();
                        let lb: f64 = (0..4).map(|y| matrices[b][x][y] * partial[b][y]).sum();
                        *px = la * lb;
                    }
                    let max = p.iter().cloned().fold(0.0, f64::max);
                    log_scale += max.ln();
                    p.map(|v| v / max)
                }
            };
        }
        let site_lik: f64 = (0..4).map(|x| freqs[x] * partial[tree.root][x]).sum();
        total += site_lik.ln() + log_scale;
    }
    total
}

/// `ln L(θ)` of Eq. 26: the log of the mean prior ratio
/// `P(G_i|θ)/P(G_i|θ₀)` over sampled genealogies summarised by their
/// (coalescences, waiting statistic) pairs, with
/// `ln P(G|θ) = c·ln(2/θ) − W/θ`.
pub fn log_relative_likelihood(theta0: f64, stats: &[(f64, f64)], theta: f64) -> f64 {
    let terms: Vec<f64> =
        stats.iter().map(|&(c, w)| c * (theta0 / theta).ln() - w / theta + w / theta0).collect();
    let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max + (terms.iter().map(|t| (t - max).exp()).sum::<f64>() / terms.len() as f64).ln()
}

/// `θ · d ln L / dθ` of Eq. 26: `Σ_i w_i (W_i/θ − c_i)` with `w_i` the
/// normalised prior ratios. It is positive below the maximiser and negative
/// above it.
fn score(theta0: f64, stats: &[(f64, f64)], theta: f64) -> f64 {
    let terms: Vec<f64> =
        stats.iter().map(|&(c, w)| c * (theta0 / theta).ln() - w / theta + w / theta0).collect();
    let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = terms.iter().map(|t| (t - max).exp()).collect();
    let total: f64 = weights.iter().sum();
    stats.iter().zip(&weights).map(|(&(c, w), &p)| p * (w / theta - c)).sum::<f64>() / total
}

/// The maximiser of Eq. 26: a log-spaced grid scan brackets the maximum,
/// then bisection on the sign of the score pins it to machine precision.
pub fn maximise_relative_likelihood(theta0: f64, stats: &[(f64, f64)]) -> f64 {
    let f = |log_theta: f64| log_relative_likelihood(theta0, stats, log_theta.exp());
    let (lo, hi, points) = ((theta0 * 1e-3).ln(), (theta0 * 1e3).ln(), 121);
    let step = (hi - lo) / (points - 1) as f64;
    let best = (0..points)
        .map(|i| lo + step * i as f64)
        .max_by(|a, b| f(*a).total_cmp(&f(*b)))
        .expect("non-empty grid");
    let (mut a, mut b) = (best - step, best + step);
    for _ in 0..200 {
        let mid = 0.5 * (a + b);
        if score(theta0, stats, mid.exp()) > 0.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    (0.5 * (a + b)).exp()
}

/// Effective sample size by Geyer's initial monotone sequence estimator:
/// `n / τ` with `τ = −1 + 2 Σ Γ_m`, where `Γ_m = γ_{2m} + γ_{2m+1}` is summed
/// while positive and forced non-increasing.
pub fn ess(series: &[f64]) -> f64 {
    let n = series.len();
    if n < 4 {
        return n as f64;
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let centred: Vec<f64> = series.iter().map(|x| x - mean).collect();
    let autocov = |lag: usize| -> f64 {
        centred[..n - lag].iter().zip(&centred[lag..]).map(|(a, b)| a * b).sum::<f64>() / n as f64
    };
    let gamma0 = autocov(0);
    if gamma0 <= 0.0 {
        return n as f64;
    }
    let mut sum = 0.0;
    let mut previous = f64::INFINITY;
    let mut m = 0;
    while 2 * m + 1 < n {
        let pair = autocov(2 * m) + autocov(2 * m + 1);
        if pair <= 0.0 {
            break;
        }
        let pair = pair.min(previous);
        sum += pair;
        previous = pair;
        m += 1;
    }
    let tau = (-1.0 + 2.0 * sum / gamma0).max(1.0 / n as f64);
    n as f64 / tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn two_tip_pruning_matches_the_closed_form() {
        // Two tips joined at height h: P(x, y) = Σ_z π_z P_zx(h) P_zy(h),
        // and by reversibility that is π_x P_xy(2h).
        let freqs = [0.1, 0.2, 0.3, 0.4];
        let h = 0.37;
        let tree = PruneTree {
            children: vec![None, None, Some((0, 1))],
            time: vec![0.0, 0.0, h],
            tip_row: vec![0, 1, 0],
            root: 2,
        };
        let rows = vec![vec![0, 2, 3, 1], vec![0, 1, 3, 3]];
        let u = 1.0 / (1.0 - freqs.iter().map(|f| f * f).sum::<f64>());
        let decay = (-u * 2.0 * h).exp();
        let expected: f64 = (0..4)
            .map(|s| {
                let (x, y) = (rows[0][s] as usize, rows[1][s] as usize);
                let p = (1.0 - decay) * freqs[y] + if x == y { decay } else { 0.0 };
                (freqs[x] * p).ln()
            })
            .sum();
        let got = log_likelihood(&tree, &rows, &freqs);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn pruning_is_sensitive_to_a_wrong_branch_length() {
        let freqs = [0.25; 4];
        let tree = PruneTree {
            children: vec![None, None, None, Some((0, 1)), Some((3, 2))],
            time: vec![0.0, 0.0, 0.0, 0.2, 0.5],
            tip_row: vec![0, 1, 2, 0, 0],
            root: 4,
        };
        let rows = vec![vec![0, 1, 2, 3, 0], vec![0, 1, 2, 2, 0], vec![1, 1, 2, 3, 3]];
        let a = log_likelihood(&tree, &rows, &freqs);
        let mut wrong = tree.clone();
        wrong.time[3] = 0.21;
        let b = log_likelihood(&wrong, &rows, &freqs);
        assert!(((a - b) / a).abs() > 1e-9);
    }

    #[test]
    fn single_genealogy_maximiser_is_w_over_c() {
        for (c, w) in [(11.0, 7.3), (15.0, 31.0), (3.0, 0.02)] {
            let got = maximise_relative_likelihood(1.0, &[(c, w)]);
            assert!((got / (w / c) - 1.0).abs() < 1e-9, "{got} vs {}", w / c);
        }
    }

    #[test]
    fn relative_likelihood_is_zero_at_the_driving_value() {
        let stats = [(11.0, 9.0), (11.0, 12.5), (11.0, 4.0)];
        assert!(log_relative_likelihood(0.8, &stats, 0.8).abs() < 1e-12);
    }

    #[test]
    fn ess_of_an_ar1_series_matches_theory() {
        // x_t = φ x_{t−1} + ε_t has integrated autocorrelation time
        // (1 + φ)/(1 − φ).
        let mut rng = Rng::new(42);
        let (n, phi) = (200_000, 0.9);
        let mut x = 0.0;
        let series: Vec<f64> = (0..n)
            .map(|_| {
                x = phi * x + rng.normal();
                x
            })
            .collect();
        let expected = n as f64 * (1.0 - phi) / (1.0 + phi);
        let got = ess(&series);
        assert!((got / expected - 1.0).abs() < 0.1, "ESS {got} vs {expected}");
        let white: Vec<f64> = (0..20_000).map(|_| rng.normal()).collect();
        assert!((ess(&white) / 20_000.0 - 1.0).abs() < 0.1);
    }
}
