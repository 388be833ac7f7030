//! Chain traces.
//!
//! A [`Trace`] stores scalar summaries of the visited states for diagnostics
//! and plotting (the burn-in trace of Figure 2 is produced from one); its
//! first `burn_in` values belong to the burn-in period (Section 2.3).

/// A recorded trace of scalar chain statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    values: Vec<f64>,
    burn_in: usize,
}

impl Trace {
    /// Create an empty trace whose first `burn_in` recorded values belong to
    /// the burn-in period.
    pub fn with_burn_in(burn_in: usize) -> Self {
        Trace { values: Vec::new(), burn_in }
    }

    /// Create a trace directly from values (all treated as post-burn-in).
    pub fn from_values(values: Vec<f64>) -> Self {
        Trace { values, burn_in: 0 }
    }

    /// Record one value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// All recorded values including burn-in.
    pub fn all(&self) -> &[f64] {
        &self.values
    }

    /// Values recorded after the burn-in boundary.
    pub fn post_burn_in(&self) -> &[f64] {
        if self.burn_in >= self.values.len() {
            &[]
        } else {
            &self.values[self.burn_in..]
        }
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The burn-in boundary.
    pub fn burn_in(&self) -> usize {
        self.burn_in
    }

    /// Re-declare where the burn-in boundary is (useful when it is determined
    /// post hoc from the trace itself).
    pub fn set_burn_in(&mut self, burn_in: usize) {
        self.burn_in = burn_in;
    }

    /// Mean of the post-burn-in values.
    pub fn mean(&self) -> Option<f64> {
        let xs = self.post_burn_in();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }

    /// Unbiased sample variance of the post-burn-in values.
    pub fn variance(&self) -> Option<f64> {
        let xs = self.post_burn_in();
        if xs.len() < 2 {
            return None;
        }
        let mean = self.mean()?;
        Some(xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_burn_in_split() {
        let mut t = Trace::with_burn_in(3);
        for v in [10.0, 11.0, 12.0, 1.0, 2.0, 3.0] {
            t.push(v);
        }
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.burn_in(), 3);
        assert_eq!(t.post_burn_in(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.mean(), Some(2.0));
        assert_eq!(t.variance(), Some(1.0));
        assert_eq!(t.all().len(), 6);
    }

    #[test]
    fn trace_edge_cases() {
        let t = Trace::with_burn_in(5);
        assert!(t.is_empty());
        assert!(t.post_burn_in().is_empty());
        assert_eq!(t.mean(), None);
        assert_eq!(t.variance(), None);

        let mut t = Trace::from_values(vec![4.0]);
        assert_eq!(t.mean(), Some(4.0));
        assert_eq!(t.variance(), None);
        t.set_burn_in(1);
        assert_eq!(t.mean(), None);
    }
}
