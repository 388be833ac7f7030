//! Parallel execution substrate.
//!
//! The original system runs its three kernels (proposal, data likelihood,
//! posterior likelihood) on a CUDA device (Section 4.4). This workspace has
//! no GPU, so the crate provides the two substitutes described in DESIGN.md:
//!
//! * [`executor`] — a real data-parallel backend: an [`executor::Backend`]
//!   that maps closures over work items either serially or on the rayon
//!   thread pool. The samplers use it for proposal generation and per-site
//!   likelihood work, which is exactly the work the paper offloads to the
//!   GPU.
//! * [`device`] — a *simulated* SIMD device: an explicit cost model with
//!   kernel-launch overhead, core count, warp width, occupancy and
//!   latency hiding, used to regenerate the paper's speedup figures
//!   (Figures 14–16) from measured operation counts.
//! * [`host`] — the corresponding serial-host cost model (the baseline
//!   LAMARC side of the speedup ratio).
//! * [`amdahl`] — Amdahl/Gustafson speedup laws and the `B + N/P`
//!   multi-chain efficiency model of Section 3 / Figure 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amdahl;
pub mod device;
pub mod executor;
pub mod host;

pub use amdahl::{amdahl_speedup, gustafson_speedup, multichain_time, parallel_burnin_time};
pub use device::{
    DeviceModel, DeviceReport, DeviceSpec, DeviceStats, GridProfile, KernelLaunch, Queue,
    DEVICE_INIT_US,
};
pub use executor::Backend;
pub use host::HostModel;
