//! The coalescent-interval sufficient statistics of a genealogy (Figure 3 of
//! the paper).
//!
//! Viewed backwards in time, a genealogy is a sequence of intervals during
//! each of which a constant number of lineages `k` exists; each interval ends
//! either when two lineages coalesce (k decreases by one) or, for serially
//! sampled data, when a new tip enters (k increases by one). The coalescent
//! prior `P(G|θ)` of Eq. 18 depends on the genealogy only through two numbers
//! drawn from those intervals: the number of coalescences and the waiting
//! statistic `W = Σ k(k−1)·t_k`. The paper stores "nothing more than the time
//! intervals" for each sample (Section 5.1.3); this module goes one step
//! further and stores only what the estimator and the diagnostics read — the
//! two numbers Eq. 26 needs, plus the tree depth and total branch length — as
//! a fixed-size `Copy` value, so a retained draw owns no heap memory.

use super::GeneTree;

/// The sufficient statistics of a genealogy's interval decomposition.
///
/// Every field is accumulated over the intervals ordered from the present
/// into the past, zero-length intervals that end in a coalescence (tied node
/// times) included, so the sums are reproducible bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescentIntervals {
    /// Number of coalescent events (`n_tips − 1`).
    pub n_coalescences: usize,
    /// The waiting statistic `W = Σ k(k−1)·t_k` of Eq. 18.
    pub waiting_statistic: f64,
    /// Time from the present to the last coalescence.
    pub depth: f64,
    /// Total branch length `Σ k·t_k`.
    pub total_branch_length: f64,
}

impl CoalescentIntervals {
    /// Summarise a genealogy in one pass over its sorted node times.
    pub fn from_tree(tree: &GeneTree) -> Self {
        // (time, is_coalescence): tips entering at a given time sort before
        // coalescences at the same time, so lineage counts never go negative
        // for contemporaneous data.
        let mut events: Vec<(f64, bool)> =
            (0..tree.n_nodes()).map(|node| (tree.time(node), !tree.is_tip(node))).collect();
        events.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });

        let mut summary = CoalescentIntervals {
            n_coalescences: 0,
            waiting_statistic: 0.0,
            depth: 0.0,
            total_branch_length: 0.0,
        };
        let mut lineages = 0usize;
        let mut prev_time = events.first().map_or(0.0, |e| e.0);
        for (time, coalescence) in events {
            let length = time - prev_time;
            // An interval closes at every event once a lineage exists; a
            // zero-length one still counts when it ends in a coalescence.
            if lineages > 0 && (length > 0.0 || coalescence) {
                summary.waiting_statistic += (lineages * (lineages - 1)) as f64 * length;
                summary.total_branch_length += lineages as f64 * length;
                summary.depth = prev_time + length;
            }
            if coalescence {
                lineages = lineages.saturating_sub(1);
                summary.n_coalescences += 1;
            } else {
                lineages += 1;
            }
            prev_time = time;
        }
        summary
    }

    /// Number of coalescent events in the genealogy (`n_tips − 1`).
    pub fn n_coalescences(&self) -> usize {
        self.n_coalescences
    }

    /// Total tree length implied by the intervals (Σ k·t over intervals).
    pub fn total_branch_length(&self) -> f64 {
        self.total_branch_length
    }

    /// Time from the present to the last coalescence (the tree height for
    /// contemporaneous samples).
    pub fn depth(&self) -> f64 {
        self.depth
    }

    /// The Σ k(k−1)·t_k statistic appearing in the exponent of Eq. 18.
    pub fn waiting_statistic(&self) -> f64 {
        self.waiting_statistic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn four_tip_tree() -> GeneTree {
        // Coalescences at 1.0 (t0,t1), 2.5 ((t0,t1),t2), 4.0 (root with t3).
        let mut b = TreeBuilder::new();
        let t0 = b.add_tip("t0", 0.0);
        let t1 = b.add_tip("t1", 0.0);
        let t2 = b.add_tip("t2", 0.0);
        let t3 = b.add_tip("t3", 0.0);
        let a = b.join(t0, t1, 1.0);
        let c = b.join(a, t2, 2.5);
        b.join(c, t3, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn contemporaneous_intervals_have_decreasing_lineage_counts() {
        // Intervals of 4, 3 and 2 lineages lasting 1.0, 1.5 and 1.5.
        let iv = four_tip_tree().intervals();
        assert_eq!(iv.n_coalescences(), 3);
        assert!((iv.depth() - 4.0).abs() < 1e-12);
        assert!((iv.total_branch_length() - (4.0 * 1.0 + 3.0 * 1.5 + 2.0 * 1.5)).abs() < 1e-12);
        assert!((iv.waiting_statistic() - (12.0 * 1.0 + 6.0 * 1.5 + 2.0 * 1.5)).abs() < 1e-12);
    }

    #[test]
    fn waiting_statistic_matches_hand_computation() {
        let iv = four_tip_tree().intervals();
        // 4*3*1.0 + 3*2*1.5 + 2*1*1.5 = 12 + 9 + 3 = 24.
        assert!((iv.waiting_statistic() - 24.0).abs() < 1e-12);
        // Total branch length: 4*1 + 3*1.5 + 2*1.5 = 11.5; matches the tree.
        assert!((iv.total_branch_length() - 11.5).abs() < 1e-12);
        assert!((four_tip_tree().total_branch_length() - 11.5).abs() < 1e-12);
    }

    #[test]
    fn serial_samples_increase_lineage_count_mid_history() {
        let mut b = TreeBuilder::new();
        let t0 = b.add_tip("t0", 0.0);
        let t1 = b.add_tip("t1", 0.0);
        let late = b.add_tip("late", 2.0); // sampled in the past
        let a = b.join(t0, t1, 1.0);
        b.join(a, late, 3.0);
        let iv = b.build().unwrap().intervals();
        // 2 lineages from 0..1, 1 lineage 1..2, 2 lineages 2..3: the
        // one-lineage interval adds branch length but nothing to W, and the
        // tip entering at 2.0 is not a coalescence.
        assert_eq!(iv.n_coalescences(), 2);
        assert!((iv.waiting_statistic() - (2.0 * 1.0 + 2.0 * 1.0)).abs() < 1e-12);
        assert!((iv.total_branch_length() - (2.0 + 1.0 + 2.0)).abs() < 1e-12);
        assert!((iv.depth() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_tip_tree_is_a_single_interval() {
        let mut b = TreeBuilder::new();
        let x = b.add_tip("x", 0.0);
        let y = b.add_tip("y", 0.0);
        b.join(x, y, 0.7);
        let iv = b.build().unwrap().intervals();
        assert_eq!(iv.n_coalescences(), 1);
        assert!((iv.depth() - 0.7).abs() < 1e-12);
        assert!((iv.total_branch_length() - 1.4).abs() < 1e-12);
        assert!((iv.waiting_statistic() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn simultaneous_coalescences_are_handled() {
        // Two cherries at exactly the same time then a root: the zero-length
        // interval between the simultaneous events still ends in a
        // coalescence, so all three are counted and W only sees 4·3·1.0 and
        // 2·1·1.0.
        let mut b = TreeBuilder::new();
        let t0 = b.add_tip("t0", 0.0);
        let t1 = b.add_tip("t1", 0.0);
        let t2 = b.add_tip("t2", 0.0);
        let t3 = b.add_tip("t3", 0.0);
        let a = b.join(t0, t1, 1.0);
        let c = b.join(t2, t3, 1.0);
        b.join(a, c, 2.0);
        let iv = b.build().unwrap().intervals();
        assert_eq!(iv.n_coalescences(), 3);
        assert_eq!(iv.waiting_statistic(), 14.0);
        assert_eq!(iv.total_branch_length(), 6.0);
        assert_eq!(iv.depth(), 2.0);
    }
}
