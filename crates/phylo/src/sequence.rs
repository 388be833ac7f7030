//! Named DNA sequences.

use crate::error::PhyloError;
use crate::nucleotide::Nucleotide;

/// A named DNA sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    name: String,
    bases: Vec<Nucleotide>,
}

impl Sequence {
    /// Create a sequence from a name and bases.
    pub fn new(name: impl Into<String>, bases: Vec<Nucleotide>) -> Self {
        Sequence { name: name.into(), bases }
    }

    /// Parse a sequence from a string of `ACGT` characters (case
    /// insensitive, whitespace ignored).
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Self, PhyloError> {
        let mut bases = Vec::with_capacity(text.len());
        for (i, c) in text.chars().filter(|c| !c.is_whitespace()).enumerate() {
            bases.push(Nucleotide::try_from_char(c, i)?);
        }
        Ok(Sequence { name: name.into(), bases })
    }

    /// The sequence name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bases.
    pub fn bases(&self) -> &[Nucleotide] {
        &self.bases
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the sequence has no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The base at `position`.
    ///
    /// # Panics
    /// Panics if `position` is out of range.
    pub fn base(&self, position: usize) -> Nucleotide {
        self.bases[position]
    }

    /// Render the bases as an `ACGT` string.
    pub fn to_letters(&self) -> String {
        self.bases.iter().map(|b| b.to_char()).collect()
    }

    /// Number of positions at which `self` and `other` differ, compared over
    /// the shorter of the two lengths.
    pub fn hamming_distance(&self, other: &Sequence) -> usize {
        self.bases.iter().zip(other.bases.iter()).filter(|(a, b)| a != b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let s = Sequence::parse("s1", "ACG TTa cg").unwrap();
        assert_eq!(s.name(), "s1");
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.to_letters(), "ACGTTACG");
        assert_eq!(s.base(0), Nucleotide::A);
        assert_eq!(s.base(7), Nucleotide::G);
    }

    #[test]
    fn parse_rejects_invalid_characters() {
        let err = Sequence::parse("bad", "ACGX").unwrap_err();
        assert!(matches!(err, PhyloError::InvalidNucleotide { character: 'X', .. }));
    }

    #[test]
    fn empty_sequence() {
        let s = Sequence::new("e", vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.to_letters(), "");
    }

    #[test]
    fn hamming_distance_counts_mismatches() {
        let a = Sequence::parse("a", "AAAA").unwrap();
        let b = Sequence::parse("b", "AATT").unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
        // Shorter-of-the-two comparison.
        let c = Sequence::parse("c", "AA").unwrap();
        assert_eq!(a.hamming_distance(&c), 0);
    }
}
