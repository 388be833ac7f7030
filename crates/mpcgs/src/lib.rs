//! mpcgs — the multi-proposal coalescent genealogy sampler.
//!
//! This crate is the paper's primary contribution: a coalescent genealogy
//! sampler in which the conventional single-proposal Metropolis–Hastings
//! kernel of LAMARC is replaced by Calderhead's Generalized
//! Metropolis–Hastings so that the bulk of the work — proposal generation and
//! likelihood evaluation — becomes embarrassingly parallel (Sections 4 and
//! 5). The crate builds on the substrates in this workspace:
//!
//! * `phylo` for sequences, the multi-locus [`Dataset`] model, genealogies
//!   and the batched pruning likelihood;
//! * `coalescent` for the Kingman prior and the data simulators;
//! * `mcmc` for the random-number streams and log-domain arithmetic;
//! * `lamarc` for the shared neighborhood-resimulation proposal, the
//!   relative-likelihood maximiser, the baseline sampler and the unified
//!   [`GenealogySampler`] strategy API;
//! * `exec` for the data-parallel backend and the simulated-device cost
//!   model.
//!
//! Everything is driven through one facade: a [`Session`] built as
//! dataset → model → sampler strategy → backend → observers.
//!
//! # Quick start
//!
//! ```
//! use coalescent::{CoalescentSimulator, SequenceSimulator};
//! use mcmc::rng::Mt19937;
//! use phylo::model::Jc69;
//! use mpcgs::{MpcgsConfig, SamplerStrategy, Session};
//!
//! // Simulate a small data set with known theta = 1.0 (the paper's Section
//! // 6.1 workflow: ms + seq-gen).
//! let mut rng = Mt19937::new(42);
//! let tree = CoalescentSimulator::constant(1.0).unwrap().simulate(&mut rng, 6).unwrap();
//! let alignment = SequenceSimulator::new(Jc69::new(), 100, 1.0)
//!     .unwrap()
//!     .simulate(&mut rng, &tree)
//!     .unwrap();
//!
//! // Estimate theta with a deliberately small run (keep doctests fast).
//! let config = MpcgsConfig {
//!     initial_theta: 0.5,
//!     em_iterations: 1,
//!     burn_in_draws: 64,
//!     sample_draws: 256,
//!     proposals_per_iteration: 8,
//!     draws_per_iteration: 8,
//!     ..MpcgsConfig::default()
//! };
//! let mut session = Session::builder()
//!     .alignment(alignment)
//!     .strategy(SamplerStrategy::MultiProposal)
//!     .config(config)
//!     .build()
//!     .unwrap();
//! let estimate = session.run(&mut rng).unwrap();
//! assert!(estimate.theta > 0.0 && estimate.theta.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod ensemble;
pub mod observers;
pub mod perf;
pub mod sampler;
pub mod serve;
pub mod session;

pub use checkpoint::{CheckpointState, SessionCheckpoint, CHECKPOINT_FORMAT};
pub use config::MpcgsConfig;
pub use ensemble::{
    is_cold_rung, Ensemble, EnsembleBuilder, EnsembleReport, EnsembleSnapshot, EnsembleSpec,
    ExchangePolicy, ShardedSampler,
};
pub use observers::{ChainSummaryPrinter, EmProgressPrinter};
pub use perf::{CachingReport, SpeedupModel, Workload};
pub use sampler::MultiProposalSampler;
pub use serve::{JobOutcome, JobQueue, JobSpec, ServeConfig, ServeEvent, ServeReport};
pub use session::{
    EmIterationReport, ModelSpec, SamplerStrategy, Session, SessionBuilder, SessionReport,
    SessionRunner,
};

// Re-export the pieces of the shared machinery that form part of the public
// API surface of the sampler, so downstream users only need this crate.
pub use lamarc::mle::{maximize_relative_likelihood, GradientAscentConfig, RelativeLikelihood};
pub use lamarc::proposal::{GenealogyProposer, HazardModel, ProposalConfig};
pub use lamarc::run::{
    ChainInfo, ChainSnapshot, EmUpdate, GenealogySampler, NullObserver, RunCounters, RunObserver,
    RunReport, StepReport,
};
pub use lamarc::sampler::GenealogySample;
pub use phylo::{Dataset, Kernel, Locus};

// The execution-backend surface a driver needs to select and report on the
// simulated accelerator: the backend enum, its device spec presets, and the
// cost-breakdown report the runs attach.
pub use exec::{Backend, DeviceReport, DeviceSpec, DeviceStats};
