//! The DNA alphabet.
//!
//! Each base is represented by a two-bit code (Section 5.1.3 of the paper
//! stores sequence data two bits per base so 32 positions fit in a 64-bit
//! word of constant memory). The ordering `A, C, G, T` is also the index
//! order used by base-frequency vectors and substitution-model matrices
//! throughout the workspace.

use crate::error::PhyloError;

/// One of the four DNA nucleotides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Nucleotide {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Nucleotide {
    /// All four nucleotides in index order.
    pub const ALL: [Nucleotide; 4] = [Nucleotide::A, Nucleotide::C, Nucleotide::G, Nucleotide::T];

    /// The dense index of this nucleotide (0..4), matching the order of
    /// [`Nucleotide::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The nucleotide with the given dense index.
    ///
    /// # Panics
    /// Panics if `index >= 4`.
    #[inline]
    pub fn from_index(index: usize) -> Nucleotide {
        Nucleotide::ALL[index]
    }

    /// Parse a single character (case insensitive).
    pub fn from_char(c: char) -> Option<Nucleotide> {
        match c.to_ascii_uppercase() {
            'A' => Some(Nucleotide::A),
            'C' => Some(Nucleotide::C),
            'G' => Some(Nucleotide::G),
            'T' | 'U' => Some(Nucleotide::T),
            _ => None,
        }
    }

    /// Parse a single character, reporting the position on failure.
    pub fn try_from_char(c: char, position: usize) -> Result<Nucleotide, PhyloError> {
        Nucleotide::from_char(c).ok_or(PhyloError::InvalidNucleotide { character: c, position })
    }

    /// The upper-case character for this nucleotide.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Nucleotide::A => 'A',
            Nucleotide::C => 'C',
            Nucleotide::G => 'G',
            Nucleotide::T => 'T',
        }
    }

    /// Watson–Crick complement.
    #[inline]
    pub fn complement(self) -> Nucleotide {
        match self {
            Nucleotide::A => Nucleotide::T,
            Nucleotide::T => Nucleotide::A,
            Nucleotide::C => Nucleotide::G,
            Nucleotide::G => Nucleotide::C,
        }
    }

    /// Whether this base is a purine (A or G).
    #[inline]
    pub fn is_purine(self) -> bool {
        matches!(self, Nucleotide::A | Nucleotide::G)
    }

    /// Whether this base is a pyrimidine (C or T).
    #[inline]
    pub fn is_pyrimidine(self) -> bool {
        !self.is_purine()
    }

    /// Whether substituting `self` for `other` is a transition (purine↔purine
    /// or pyrimidine↔pyrimidine change). Identical bases are not transitions.
    #[inline]
    pub fn is_transition_with(self, other: Nucleotide) -> bool {
        self != other && self.is_purine() == other.is_purine()
    }

    /// Whether substituting `self` for `other` is a transversion.
    #[inline]
    pub fn is_transversion_with(self, other: Nucleotide) -> bool {
        self.is_purine() != other.is_purine()
    }
}

impl std::fmt::Display for Nucleotide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for (i, &n) in Nucleotide::ALL.iter().enumerate() {
            assert_eq!(n.index(), i);
            assert_eq!(Nucleotide::from_index(i), n);
        }
    }

    #[test]
    fn char_round_trip_and_case_insensitivity() {
        for &n in &Nucleotide::ALL {
            assert_eq!(Nucleotide::from_char(n.to_char()), Some(n));
            assert_eq!(Nucleotide::from_char(n.to_char().to_ascii_lowercase()), Some(n));
        }
        assert_eq!(Nucleotide::from_char('U'), Some(Nucleotide::T));
        assert_eq!(Nucleotide::from_char('N'), None);
        assert_eq!(Nucleotide::from_char('-'), None);
    }

    #[test]
    fn try_from_char_reports_position() {
        let err = Nucleotide::try_from_char('x', 12).unwrap_err();
        assert_eq!(err, PhyloError::InvalidNucleotide { character: 'x', position: 12 });
        assert_eq!(Nucleotide::try_from_char('g', 0).unwrap(), Nucleotide::G);
    }

    #[test]
    fn complement_is_involution() {
        for &n in &Nucleotide::ALL {
            assert_eq!(n.complement().complement(), n);
            assert_ne!(n.complement(), n);
        }
        assert_eq!(Nucleotide::A.complement(), Nucleotide::T);
        assert_eq!(Nucleotide::G.complement(), Nucleotide::C);
    }

    #[test]
    fn purine_pyrimidine_classification() {
        assert!(Nucleotide::A.is_purine());
        assert!(Nucleotide::G.is_purine());
        assert!(Nucleotide::C.is_pyrimidine());
        assert!(Nucleotide::T.is_pyrimidine());
    }

    #[test]
    fn transition_transversion_classification() {
        assert!(Nucleotide::A.is_transition_with(Nucleotide::G));
        assert!(Nucleotide::C.is_transition_with(Nucleotide::T));
        assert!(!Nucleotide::A.is_transition_with(Nucleotide::A));
        assert!(Nucleotide::A.is_transversion_with(Nucleotide::C));
        assert!(Nucleotide::G.is_transversion_with(Nucleotide::T));
        assert!(!Nucleotide::A.is_transversion_with(Nucleotide::G));
    }

    #[test]
    fn display_matches_to_char() {
        assert_eq!(format!("{}", Nucleotide::C), "C");
    }
}
