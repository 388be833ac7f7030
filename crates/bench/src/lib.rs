//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure of the
//! evaluation (see DESIGN.md's per-experiment index); this library holds the
//! pieces they share: synthetic-data generation exactly as Section 6.1
//! describes (`ms`-style tree simulation followed by `seq-gen`-style sequence
//! simulation), small text-table rendering, and a Pearson correlation used by
//! the accuracy experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use coalescent::{CoalescentSimulator, SequenceSimulator};
use mcmc::rng::Mt19937;
use phylo::model::{BaseFrequencies, F84};
use phylo::Alignment;
use rand::Rng;

/// Simulate an alignment the way the paper's accuracy experiment does
/// (Section 6.1): an `ms`-style coalescent tree with the given true θ, then
/// `seq-gen -mF84`-style sequence evolution. The tree simulator already
/// measures branch lengths in units that absorb the true θ, so the sequence
/// simulator uses a unit branch scale (the paper's `-s` option plays the same
/// role there).
pub fn simulate_alignment<R: Rng + ?Sized>(
    rng: &mut R,
    true_theta: f64,
    n_sequences: usize,
    sequence_length: usize,
) -> Alignment {
    let tree = CoalescentSimulator::constant(true_theta)
        .expect("valid theta")
        .simulate(rng, n_sequences)
        .expect("valid simulation size");
    // F84 with a modest transition bias and mildly informative frequencies,
    // as seq-gen's defaults provide.
    let freqs = BaseFrequencies::new(0.27, 0.23, 0.23, 0.27).expect("valid frequencies");
    let model = F84::new(freqs, 2.0).expect("valid kappa");
    SequenceSimulator::new(model, sequence_length, 1.0)
        .expect("valid simulator")
        .simulate(rng, &tree)
        .expect("simulation succeeds")
}

/// Deterministic RNG for a harness, derived from an experiment label so every
/// table regenerates identically from run to run.
pub fn harness_rng(label: &str, replicate: u64) -> Mt19937 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    Mt19937::seed_from_u64_pair(hash, replicate)
}

/// Pearson correlation coefficient between two equal-length series (the
/// accuracy metric of Section 6.1, which reports r = 0.905).
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "series must be the same length");
    assert!(x.len() > 1, "correlation needs at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Mean and (population) standard deviation of a series.
pub fn mean_and_sd(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "mean of an empty series");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Render a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut header_line = String::from("  ");
    for (h, w) in headers.iter().zip(&widths) {
        header_line.push_str(&format!("{h:>w$}  ", w = w));
    }
    out.push_str(header_line.trim_end());
    out.push('\n');
    out.push_str(&format!("  {}\n", "-".repeat(header_line.trim_end().len().saturating_sub(2))));
    for row in rows {
        let mut line = String::from("  ");
        for (cell, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{cell:>w$}  ", w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Extension used by the harness RNG constructor.
trait SeedPair {
    fn seed_from_u64_pair(a: u64, b: u64) -> Self;
}

impl SeedPair for Mt19937 {
    fn seed_from_u64_pair(a: u64, b: u64) -> Self {
        Mt19937::from_seed_array(&[a as u32, (a >> 32) as u32, b as u32, (b >> 32) as u32])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_alignments_have_the_requested_shape() {
        let mut rng = harness_rng("shape", 0);
        let a = simulate_alignment(&mut rng, 1.0, 12, 200);
        assert_eq!(a.n_sequences(), 12);
        assert_eq!(a.n_sites(), 200);
        assert!(a.variable_sites() > 0, "theta = 1 data should be polymorphic");
    }

    #[test]
    fn harness_rng_is_deterministic_and_label_sensitive() {
        use rand::RngCore;
        let mut a = harness_rng("table1", 0);
        let mut b = harness_rng("table1", 0);
        let mut c = harness_rng("table2", 0);
        assert_eq!(a.next_u32(), b.next_u32());
        let mut a2 = harness_rng("table1", 0);
        a2.next_u32();
        assert_ne!(a2.next_u32(), c.next_u32());
    }

    #[test]
    fn pearson_correlation_behaves() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&x, &z) + 1.0).abs() < 1e-12);
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(pearson_correlation(&x, &flat), 0.0);
    }

    #[test]
    fn mean_and_sd_match_hand_computation() {
        let (m, s) = mean_and_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_table_lines_up() {
        let table = render_table(
            "Table X",
            &["a", "longer"],
            &[vec!["1".into(), "2".into()], vec!["300".into(), "4".into()]],
        );
        assert!(table.contains("Table X"));
        assert!(table.contains("longer"));
        assert!(table.lines().count() >= 5);
    }
}
