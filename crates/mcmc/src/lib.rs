//! Markov chain Monte Carlo substrate used by the coalescent genealogy
//! samplers in this workspace.
//!
//! The crate provides the statistical substrate described in Sections 2.2,
//! 2.3 and 4.1 of the paper; the samplers themselves live in `lamarc`
//! (the single-proposal baseline) and `mpcgs` (the Generalized
//! Metropolis–Hastings sampler of Section 4.3):
//!
//! * [`rng`] — a from-scratch MT19937 Mersenne Twister (the host PRNG used by
//!   the original implementation), a [`rng::StreamBank`] of decorrelated
//!   per-thread streams standing in for the device-side MTGP32 generator, and
//!   hand-rolled samplers for the distributions the samplers need
//!   (exponential, categorical, categorical from log weights).
//! * [`logdomain`] — log-domain probability arithmetic ([`LogProb`],
//!   [`log_sum_exp`]) implementing the underflow-avoidance scheme of
//!   Section 5.3.
//! * [`chain`] — trace storage with a burn-in boundary.
//! * [`diagnostics`] — effective sample size, autocorrelation, Gelman–Rubin
//!   R̂ and summary statistics.
//!
//! # Example
//!
//! The index-chain draw of Section 4.3 on log likelihoods far below the
//! range of `exp`, from one stream of a bank:
//!
//! ```
//! use mcmc::rng::{dist::log_categorical, StreamBank};
//!
//! let log_weights = [-10_000.0, -10_000.0 + 2f64.ln(), f64::NEG_INFINITY];
//! let mut bank = StreamBank::new(42, 1);
//! let mut counts = [0usize; 3];
//! for _ in 0..3_000 {
//!     counts[log_categorical(bank.stream_mut(0), &log_weights).unwrap()] += 1;
//! }
//! // Index 1 carries two thirds of the mass and index 2 none.
//! assert!(counts[2] == 0 && (counts[1] as f64 / 3_000.0 - 2.0 / 3.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod diagnostics;
pub mod error;
pub mod logdomain;
pub mod rng;

pub use chain::Trace;
pub use error::McmcError;
pub use logdomain::{log_sum_exp, normalize_log_weights, LogProb};
pub use rng::{Mt19937, SplitMix64, StreamBank};
