//! The benchmark's own input generator (Section 6.1's `ms` + `seq-gen`
//! workflow, written apart from the program's `coalescent` crate).
//!
//! A genealogy of `n` contemporaneous tips is drawn from the Kingman
//! coalescent in which `k` lineages coalesce at rate `k(k−1)/θ`; sequences
//! then evolve along it under F81 or F84, both normalised to one expected
//! substitution per unit time. The generator records the true genealogy's
//! waiting statistic `W = Σ k(k−1)t_k`, whose single-genealogy maximum
//! likelihood estimate of θ is `W/(n−1)`.

use crate::rng::Rng;

/// Base order used everywhere in the benchmark: A, C, G, T.
pub const BASES: [char; 4] = ['A', 'C', 'G', 'T'];

/// A rooted binary genealogy: tips `0..n`, interior nodes `n..2n−1`, the root
/// last.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTree {
    /// Children of each interior node (`None` for tips).
    pub children: Vec<Option<(usize, usize)>>,
    /// Node ages, measured back from the present.
    pub time: Vec<f64>,
    /// Number of tips.
    pub n_tips: usize,
}

impl SimTree {
    /// The root node.
    pub fn root(&self) -> usize {
        self.time.len() - 1
    }
}

/// A simulated genealogy plus its sufficient statistics.
#[derive(Debug, Clone)]
pub struct Genealogy {
    /// The tree.
    pub tree: SimTree,
    /// `W = Σ k(k−1)t_k` over the coalescent intervals.
    pub waiting: f64,
}

impl Genealogy {
    /// The single-genealogy maximum-likelihood θ: `W/(n−1)`.
    pub fn mle(&self) -> f64 {
        self.waiting / (self.tree.n_tips - 1) as f64
    }
}

/// Draw a Kingman genealogy with `n` tips at scaled mutation rate `theta`.
pub fn coalescent(rng: &mut Rng, n: usize, theta: f64) -> Genealogy {
    let mut children = vec![None; n];
    let mut time = vec![0.0; n];
    let mut lineages: Vec<usize> = (0..n).collect();
    let mut now = 0.0;
    let mut waiting = 0.0;
    while lineages.len() > 1 {
        let k = lineages.len();
        let pairs = (k * (k - 1)) as f64;
        let dt = rng.exponential(pairs / theta);
        now += dt;
        waiting += pairs * dt;
        let i = rng.below(k);
        let mut j = rng.below(k - 1);
        if j >= i {
            j += 1;
        }
        let (a, b) = (lineages[i], lineages[j]);
        let node = time.len();
        children.push(Some((a, b)));
        time.push(now);
        lineages.retain(|&x| x != a && x != b);
        lineages.push(node);
    }
    Genealogy { tree: SimTree { children, time, n_tips: n }, waiting }
}

/// A substitution model for simulation, normalised to one expected
/// substitution per unit time.
#[derive(Debug, Clone, Copy)]
pub enum SimModel {
    /// Felsenstein 1981 with stationary frequencies π.
    F81 { freqs: [f64; 4] },
    /// Felsenstein 1984 with frequencies π and transition bias `kappa`
    /// (the `K` of the F84 rate matrix).
    F84 { freqs: [f64; 4], kappa: f64 },
}

impl SimModel {
    /// The stationary frequencies.
    pub fn freqs(&self) -> [f64; 4] {
        match *self {
            SimModel::F81 { freqs } | SimModel::F84 { freqs, .. } => freqs,
        }
    }

    /// Transition probabilities `P[from][to]` over a branch of length `t`.
    pub fn transition(&self, t: f64) -> [[f64; 4]; 4] {
        let mut p = [[0.0; 4]; 4];
        match *self {
            SimModel::F81 { freqs } => {
                let u = 1.0 / (1.0 - freqs.iter().map(|f| f * f).sum::<f64>());
                let decay = (-u * t).exp();
                for (from, row) in p.iter_mut().enumerate() {
                    for (to, cell) in row.iter_mut().enumerate() {
                        *cell = (1.0 - decay) * freqs[to] + if from == to { decay } else { 0.0 };
                    }
                }
            }
            SimModel::F84 { freqs, kappa } => {
                let purine = freqs[0] + freqs[2];
                let pyrimidine = freqs[1] + freqs[3];
                let class_total = |b: usize| if b.is_multiple_of(2) { purine } else { pyrimidine };
                let s1 = 1.0 - freqs.iter().map(|f| f * f).sum::<f64>();
                let s2 =
                    2.0 * freqs[0] * freqs[2] / purine + 2.0 * freqs[1] * freqs[3] / pyrimidine;
                let beta = 1.0 / (s1 + kappa * s2);
                let e1 = (-beta * t).exp();
                let e2 = (-(1.0 + kappa) * beta * t).exp();
                for (from, row) in p.iter_mut().enumerate() {
                    for (to, cell) in row.iter_mut().enumerate() {
                        let same_class = from % 2 == to % 2;
                        *cell = (1.0 - e1) * freqs[to]
                            + if same_class {
                                (e1 - e2) * freqs[to] / class_total(to)
                            } else {
                                0.0
                            }
                            + if from == to { e2 } else { 0.0 };
                    }
                }
            }
        }
        p
    }
}

/// Evolve `sites` sites along `tree` under `model`, returning one base-index
/// row per tip.
pub fn evolve(rng: &mut Rng, tree: &SimTree, model: &SimModel, sites: usize) -> Vec<Vec<u8>> {
    let n_nodes = tree.time.len();
    let freqs = model.freqs();
    let mut states: Vec<Vec<u8>> = vec![Vec::new(); n_nodes];
    states[tree.root()] = (0..sites).map(|_| rng.categorical(&freqs) as u8).collect();
    // Interior nodes are numbered after their children, so a reverse scan
    // visits every parent before its children.
    for node in (tree.n_tips..n_nodes).rev() {
        let (a, b) = tree.children[node].expect("interior node");
        for child in [a, b] {
            let p = model.transition(tree.time[node] - tree.time[child]);
            let parent_states = &states[node];
            let row: Vec<u8> =
                parent_states.iter().map(|&s| rng.categorical(&p[s as usize]) as u8).collect();
            states[child] = row;
        }
    }
    states.truncate(tree.n_tips);
    states
}

/// Tip names: `s01`, `s02`, ….
pub fn tip_name(i: usize) -> String {
    format!("s{:02}", i + 1)
}

/// Render rows of base indices as a sequential PHYLIP alignment.
pub fn phylip(rows: &[Vec<u8>]) -> String {
    let mut out = format!("{} {}\n", rows.len(), rows[0].len());
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("{:<10}", tip_name(i)));
        out.extend(row.iter().map(|&b| BASES[b as usize]));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_waiting_statistic_is_n_minus_one_theta() {
        // Each of the n−1 intervals contributes k(k−1)·Exp(k(k−1)/θ), whose
        // mean is θ, so E[W] = (n−1)θ.
        let mut rng = Rng::new(11);
        let (n, theta, reps) = (12, 1.5, 20_000);
        let mean =
            (0..reps).map(|_| coalescent(&mut rng, n, theta).waiting).sum::<f64>() / reps as f64;
        let expected = (n - 1) as f64 * theta;
        // W is a sum of n−1 independent exponentials with mean θ: sd √(n−1)·θ.
        let se = (n as f64 - 1.0).sqrt() * theta / (reps as f64).sqrt();
        assert!((mean - expected).abs() < 4.0 * se, "mean W {mean} vs {expected}");
    }

    #[test]
    fn genealogies_are_binary_and_time_ordered() {
        let mut rng = Rng::new(5);
        let g = coalescent(&mut rng, 16, 1.0);
        assert_eq!(g.tree.time.len(), 31);
        for node in 16..31 {
            let (a, b) = g.tree.children[node].unwrap();
            assert!(g.tree.time[a] < g.tree.time[node] && g.tree.time[b] < g.tree.time[node]);
        }
        assert!((g.mle() - g.waiting / 15.0).abs() < 1e-15);
    }

    #[test]
    fn transition_rows_sum_to_one_and_rate_is_normalised() {
        let freqs = [0.3, 0.2, 0.2, 0.3];
        for model in [SimModel::F81 { freqs }, SimModel::F84 { freqs, kappa: 2.0 }] {
            for t in [0.0, 0.1, 1.0, 7.0] {
                for row in model.transition(t) {
                    assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
                }
            }
            // Expected substitutions per unit time: Σ_i π_i (1 − P_ii(h)) / h.
            let h = 1e-6;
            let p = model.transition(h);
            let rate: f64 = (0..4).map(|i| freqs[i] * (1.0 - p[i][i])).sum::<f64>() / h;
            assert!((rate - 1.0).abs() < 1e-4, "rate {rate}");
            // Long branches reach the stationary distribution.
            let far = model.transition(60.0);
            for row in far {
                for (to, cell) in row.iter().enumerate() {
                    assert!((cell - freqs[to]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn phylip_rows_have_fixed_width_names() {
        let text = phylip(&[vec![0, 1, 2, 3], vec![3, 2, 1, 0]]);
        assert_eq!(text, "2 4\ns01       ACGT\ns02       TGCA\n");
    }
}
