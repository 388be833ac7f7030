//! Pseudo-random number generation.
//!
//! The original implementation (Section 5.1.2) uses two generators: MT19937
//! on the host and MTGP32 on the CUDA device, the latter maintaining
//! independent state for up to 256 threads. This module provides:
//!
//! * [`Mt19937`] — a from-scratch 32-bit Mersenne Twister implementing the
//!   `rand` traits, used as the host generator.
//! * [`SplitMix64`] — a tiny splittable generator used only to derive
//!   decorrelated seeds.
//! * [`StreamBank`] — a bank of independently seeded [`Mt19937`] streams, one
//!   per logical device thread, standing in for MTGP32.
//! * [`dist`] — hand-rolled samplers (exponential, categorical, categorical
//!   from log weights, standard normal) so the workspace does not need
//!   `rand_distr`.

mod mt19937;
mod splitmix;
mod streams;

pub mod dist;

pub use mt19937::Mt19937;
pub use splitmix::SplitMix64;
pub use streams::StreamBank;

/// The sanctioned root host-RNG constructor.
///
/// Every random stream in a run must be accounted for by the checkpoint
/// codec: chain and swap streams come from a [`StreamBank`] (whose positions
/// are serialized), and the one host-level driving RNG comes from here, so
/// its `(seed, position)` pair can be frozen and replayed. Constructing
/// `Mt19937` ad hoc anywhere else creates a stream checkpoints cannot
/// restore — `mpcgs-analyze` rule `d6` enforces that this function, the
/// bank, tests, and the harness are the only construction sites.
pub fn host_rng(seed: u32) -> Mt19937 {
    Mt19937::new(seed)
}
