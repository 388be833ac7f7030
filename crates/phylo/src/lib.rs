//! Phylogenetic substrate for the coalescent genealogy samplers.
//!
//! This crate provides everything the samplers need to represent and score
//! genealogies against sequence data (Sections 2.4, 4.2 and 5.2 of the
//! paper):
//!
//! * [`nucleotide`] — the four-letter DNA alphabet with 2-bit packing
//!   (Section 5.1.3 packs sequence data two bits per base so a warp can read
//!   one 64-bit word; the packed representation here serves the same role of
//!   a compact, cache-friendly encoding).
//! * [`sequence`] / [`alignment`] — named sequences and equal-length
//!   alignments, with empirical base-frequency estimation (the prior π of
//!   Eq. 20 is "approximated by the relative frequency of each nucleotide in
//!   all the sampling data").
//! * [`patterns`] — site-pattern compression: identical alignment columns are
//!   collapsed with multiplicities so the likelihood loop touches each
//!   distinct pattern once.
//! * [`dataset`] — the multi-locus data model: a [`dataset::Dataset`] of
//!   named [`dataset::Locus`] alignments over one shared individual set,
//!   scored by [`likelihood::MultiLocusEngine`] as a sum of per-locus data
//!   likelihoods (LAMARC's multi-locus θ estimation).
//! * [`io`] — PHYLIP alignment and Newick tree readers/writers (the input
//!   formats of the original program and of `ms`/`seq-gen`).
//! * [`tree`] — the genealogy tree view: binary coalescent trees with node
//!   times, traversals, neighborhood queries used by the proposal kernel, and
//!   coalescent-interval extraction. Since the columnar port it is a thin
//!   view over [`tables`], so cloning a tree is an O(1) snapshot; the old
//!   pointer arena survives as [`tree::legacy`], the differential-test
//!   oracle.
//! * [`tables`] — the columnar genealogy store: a tskit-style node table
//!   (parent/left-child/right-sib/time/label-id columns) over slab-backed,
//!   copy-on-write storage, plus the representation-independent
//!   [`tables::validate_genealogy_records`] /
//!   [`tables::assert_valid_genealogy`] structural checkers and the
//!   thread-local CoW instrumentation ([`tables::cow_stats`]) the O(1)
//!   snapshot contract is asserted with.
//! * [`distance`] / [`upgma`] — pairwise distances and UPGMA construction of
//!   the starting genealogy G₀ (Section 5.1.3).
//! * [`model`] — nucleotide substitution models (JC69, F81 — the model of
//!   Eq. 20 —, K80, F84, TN93/HKY85) behind one [`model::SubstitutionModel`]
//!   trait.
//! * [`likelihood`] — the Felsenstein-pruning data likelihood `P(D|G)`
//!   (Eq. 19–23): a pattern-outer reference path (serial and site-parallel,
//!   the "data likelihood kernel" of Section 5.2.2) and the batched engine
//!   with structure-of-arrays [`likelihood::LikelihoodWorkspace`] buffers and
//!   dirty-path caching for scoring whole proposal sets (Section 4.3). The
//!   innermost combine loop is selectable per engine through the
//!   [`likelihood::Kernel`] seam (scalar, explicit four-lane SIMD, or
//!   runtime-dispatched `auto`), and per-edge transition matrices are
//!   memoised in an [`likelihood::EdgeMatrixCache`] keyed on effective
//!   branch length.
//! * [`simd`] — the hand-rolled `F64x4` four-lane vector backing
//!   [`likelihood::Kernel::Simd`], plus the runtime AVX2+FMA dispatch behind
//!   [`likelihood::Kernel::Auto`].
//!
//! `unsafe` is denied crate-wide; the single, safety-documented exception is
//! the `simd::dispatch` module, which must call a `#[target_feature]`
//! function behind a runtime CPUID probe.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod dataset;
pub mod distance;
pub mod error;
pub mod io;
pub mod likelihood;
pub mod model;
pub mod nucleotide;
pub mod patterns;
pub mod sequence;
pub mod simd;
pub mod tables;
pub mod tree;
pub mod upgma;

pub use alignment::Alignment;
pub use dataset::{Dataset, Locus};
pub use error::PhyloError;
pub use likelihood::{
    BatchEvaluation, DirtyEvaluation, EdgeMatrixCache, FelsensteinPruner, Kernel, KernelVariant,
    LikelihoodEngine, LikelihoodWorkspace, MultiLocusEngine, TreeProposal,
};
pub use model::{BaseFrequencies, SubstitutionModel};
pub use nucleotide::Nucleotide;
pub use patterns::SitePatterns;
pub use sequence::Sequence;
pub use tables::{assert_valid_genealogy, validate_genealogy_records, CowStats, TreeTables};
pub use tree::{CoalescentIntervals, GeneTree, NodeId, NodeRecord};
pub use upgma::upgma_tree;
