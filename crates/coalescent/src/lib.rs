//! Coalescent-theory substrate.
//!
//! Implements the population-genetics machinery of Section 2.4 and the data
//! simulators of Section 6.1:
//!
//! * [`kingman`] — the Kingman coalescent prior `P(G|θ)` of Eq. 17–18 and its
//!   analytic expectations, used both by the samplers (posterior term) and by
//!   the tests that validate them.
//! * [`demography`] — population-size histories (constant, exponential
//!   growth) expressed through the time-rescaling of the coalescent.
//! * [`tree_sim`] — a coalescent genealogy simulator standing in for Hudson's
//!   `ms` (the paper generates its test trees with `ms 12 1 -T`).
//! * [`seq_sim`] — a sequence simulator standing in for `seq-gen`: evolves
//!   sequences down a genealogy under any substitution model from the `phylo`
//!   crate (the paper uses `seq-gen -mF84`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demography;
pub mod error;
pub mod kingman;
pub mod seq_sim;
pub mod tree_sim;

pub use demography::Demography;
pub use error::CoalescentError;
pub use kingman::KingmanPrior;
pub use seq_sim::SequenceSimulator;
pub use tree_sim::CoalescentSimulator;
