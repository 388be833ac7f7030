//! Coalescent intervals of a genealogy (Figure 3 of the paper).
//!
//! Viewed backwards in time, a genealogy is a sequence of intervals during
//! each of which a constant number of lineages `k` exists; each interval ends
//! either when two lineages coalesce (k decreases by one) or, for serially
//! sampled data, when a new tip enters (k increases by one). The coalescent
//! prior `P(G|θ)` of Eq. 18 depends on the genealogy only through these
//! intervals, which is why the sampler stores sampled genealogies as interval
//! summaries rather than full trees (Section 5.1.3: "nothing more than the
//! time intervals are stored for each sample").

use super::GeneTree;

/// One interval of constant lineage count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Time at which the interval starts (closer to the present).
    pub start: f64,
    /// Length of the interval (`t_i` of Figure 3).
    pub length: f64,
    /// Number of lineages present throughout the interval (`k`).
    pub lineages: usize,
    /// Whether the interval ends with a coalescence (as opposed to a new
    /// serially-sampled tip entering).
    pub ends_in_coalescence: bool,
}

/// The interval decomposition of a genealogy.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalescentIntervals {
    intervals: Vec<Interval>,
    n_coalescences: usize,
}

impl CoalescentIntervals {
    /// Extract intervals from a genealogy.
    pub fn from_tree(tree: &GeneTree) -> Self {
        #[derive(PartialEq)]
        enum Event {
            TipEnters,
            Coalescence,
        }
        let mut events: Vec<(f64, Event)> = Vec::with_capacity(tree.n_nodes());
        for node in 0..tree.n_nodes() {
            if tree.is_tip(node) {
                events.push((tree.time(node), Event::TipEnters));
            } else {
                events.push((tree.time(node), Event::Coalescence));
            }
        }
        // Sort by time; tips entering at a given time are processed before
        // coalescences at the same time so that lineage counts never go
        // negative for contemporaneous data.
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| {
                match (&a.1, &b.1) {
                    (Event::TipEnters, Event::Coalescence) => std::cmp::Ordering::Less,
                    (Event::Coalescence, Event::TipEnters) => std::cmp::Ordering::Greater,
                    _ => std::cmp::Ordering::Equal,
                }
            })
        });

        let mut intervals = Vec::new();
        let mut n_coalescences = 0usize;
        let mut lineages = 0usize;
        let mut prev_time = events.first().map(|e| e.0).unwrap_or(0.0);
        for (time, event) in events {
            let length = time - prev_time;
            let ends_in_coalescence = event == Event::Coalescence;
            // A zero-length interval is kept when it ends in a coalescence
            // (tied node times), so every coalescence owns an interval and
            // `from_intervals` recounts the same `n_coalescences`.
            if lineages > 0 && (length > 0.0 || ends_in_coalescence) {
                intervals.push(Interval {
                    start: prev_time,
                    length,
                    lineages,
                    ends_in_coalescence,
                });
            }
            match event {
                Event::TipEnters => lineages += 1,
                Event::Coalescence => {
                    lineages = lineages.saturating_sub(1);
                    n_coalescences += 1;
                }
            }
            prev_time = time;
        }
        CoalescentIntervals { intervals, n_coalescences }
    }

    /// Build directly from raw interval data (used by the samplers when they
    /// reduce genealogies to interval summaries). Round-trips
    /// [`CoalescentIntervals::from_tree`]: every coalescence there ends an
    /// interval, zero-length ones included.
    pub fn from_intervals(intervals: Vec<Interval>) -> Self {
        let n_coalescences = intervals.iter().filter(|i| i.ends_in_coalescence).count();
        CoalescentIntervals { intervals, n_coalescences }
    }

    /// The intervals, ordered from the present into the past.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Number of coalescent events in the genealogy (`n_tips − 1`).
    pub fn n_coalescences(&self) -> usize {
        self.n_coalescences
    }

    /// Total tree length implied by the intervals (Σ k·t over intervals).
    pub fn total_branch_length(&self) -> f64 {
        self.intervals.iter().map(|i| i.lineages as f64 * i.length).sum()
    }

    /// Time from the present to the last coalescence (the tree height for
    /// contemporaneous samples).
    pub fn depth(&self) -> f64 {
        self.intervals.last().map(|i| i.start + i.length).unwrap_or(0.0)
    }

    /// The Σ k(k−1)·t_k statistic appearing in the exponent of Eq. 18.
    pub fn waiting_statistic(&self) -> f64 {
        self.intervals.iter().map(|i| (i.lineages * (i.lineages - 1)) as f64 * i.length).sum()
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
        let iv = four_tip_tree().intervals();
        let ks: Vec<usize> = iv.intervals().iter().map(|i| i.lineages).collect();
        assert_eq!(ks, vec![4, 3, 2]);
        let lens: Vec<f64> = iv.intervals().iter().map(|i| i.length).collect();
        assert!((lens[0] - 1.0).abs() < 1e-12);
        assert!((lens[1] - 1.5).abs() < 1e-12);
        assert!((lens[2] - 1.5).abs() < 1e-12);
        assert_eq!(iv.n_coalescences(), 3);
        assert!(iv.intervals().iter().all(|i| i.ends_in_coalescence));
        assert!((iv.depth() - 4.0).abs() < 1e-12);
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
        let ks: Vec<usize> = iv.intervals().iter().map(|i| i.lineages).collect();
        // 2 lineages from 0..1, 1 lineage 1..2, 2 lineages 2..3.
        assert_eq!(ks, vec![2, 1, 2]);
        let coalescing: Vec<bool> = iv.intervals().iter().map(|i| i.ends_in_coalescence).collect();
        assert_eq!(coalescing, vec![true, false, true]);
        assert_eq!(iv.n_coalescences(), 2);
    }

    #[test]
    fn two_tip_tree_is_a_single_interval() {
        let mut b = TreeBuilder::new();
        let x = b.add_tip("x", 0.0);
        let y = b.add_tip("y", 0.0);
        b.join(x, y, 0.7);
        let iv = b.build().unwrap().intervals();
        assert_eq!(iv.intervals().len(), 1);
        assert_eq!(iv.intervals()[0].lineages, 2);
        assert!((iv.intervals()[0].length - 0.7).abs() < 1e-12);
        assert!((iv.waiting_statistic() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn from_intervals_round_trip() {
        let iv = four_tip_tree().intervals();
        let rebuilt = CoalescentIntervals::from_intervals(iv.intervals().to_vec());
        assert_eq!(rebuilt, iv);
        assert_eq!(rebuilt.n_coalescences(), 3);
    }

    #[test]
    fn simultaneous_coalescences_are_handled() {
        // Two cherries at exactly the same time then a root: the zero-length
        // interval between the simultaneous events is kept, because it ends
        // in a coalescence.
        let mut b = TreeBuilder::new();
        let t0 = b.add_tip("t0", 0.0);
        let t1 = b.add_tip("t1", 0.0);
        let t2 = b.add_tip("t2", 0.0);
        let t3 = b.add_tip("t3", 0.0);
        let a = b.join(t0, t1, 1.0);
        let c = b.join(t2, t3, 1.0);
        b.join(a, c, 2.0);
        let iv = b.build().unwrap().intervals();
        let ks: Vec<usize> = iv.intervals().iter().map(|i| i.lineages).collect();
        assert_eq!(ks, vec![4, 3, 2]);
        assert_eq!(iv.intervals()[1].length, 0.0);
        assert_eq!(iv.n_coalescences(), 3);
        assert_eq!(CoalescentIntervals::from_intervals(iv.intervals().to_vec()), iv);
    }
}
