//! The performance model that regenerates the paper's speedup results
//! (Tables 2–4, Figures 14–16).
//!
//! The original evaluation compares wall-clock runtimes of GPU-resident mpcgs
//! against serial LAMARC. This environment has neither the GPU nor the C++
//! LAMARC, so the speedups are *modelled*: the sampler's algorithmic
//! structure (how many kernels of how many threads doing how much work per
//! thread) is mapped onto the simulated device of the `exec` crate, and the
//! baseline is mapped onto the serial host model. The mechanisms that produce
//! the paper's curve shapes are explicit:
//!
//! * The device pays a **launch overhead per child kernel**: the proposal
//!   kernel launches one data-likelihood kernel per proposal via dynamic
//!   parallelism (Section 5.2.1), so every Generalized-MH iteration carries
//!   `N + 1` launch overheads regardless of the data size. Host work per
//!   transition grows linearly with sequence length, so the speedup grows
//!   roughly linearly with sequence length until the device saturates —
//!   Figure 16.
//! * The **baseline updates likelihoods incrementally** (only the O(log n)
//!   nodes on the path affected by a proposal), whereas the GPU kernel
//!   "simply recalculate\[s\] the likelihood of every node in every tree"
//!   (Section 5.2.2). Larger trees therefore cost the device proportionally
//!   more than the host, and per-thread traversal state spills past the
//!   register budget, eroding the speedup as the number of sequences grows —
//!   Figure 15.
//! * A **fixed device-side initialisation cost** (pre-allocation of the
//!   proposal set and sample buffers, stack resizing, PRNG setup — Section
//!   5.1.3) amortises over longer runs, so the speedup rises gently with the
//!   number of samples per chain — Figure 14.
//!
//! A single scalar calibration (`host_calibration`) scales the host model so
//! the reference workload (12 sequences × 200 bp × 20 000 samples, the first
//! row of every speedup table) reproduces the paper's 3.69×; every other
//! entry is then produced by the model with no further tuning.

use exec::{DeviceModel, DeviceSpec, HostModel, KernelLaunch};

use lamarc::run::RunCounters;
use phylo::likelihood::{Kernel, KernelVariant};

/// Observed effectiveness of the batched engine's dirty-path caching,
/// derived from the work counters a run collects ([`RunCounters`]). Where
/// [`SpeedupModel`] *models* the paper's GPU-versus-host ratios, this report
/// measures what the likelihood engine actually recomputed, making the
/// caching layer observable in benchmarks and logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachingReport {
    /// Interior nodes recomputed per likelihood evaluation (dirty paths,
    /// amortised generator workspace rebuilds, and commit-on-accept
    /// promotions).
    pub nodes_per_evaluation: f64,
    /// Interior nodes a fresh full prune recomputes (the naive per-proposal
    /// cost).
    pub full_prune_nodes: usize,
    /// `nodes_per_evaluation / full_prune_nodes` — the fraction of a full
    /// prune the engine actually performs.
    pub reprune_fraction: f64,
    /// `1 / reprune_fraction`: the node-recomputation speedup of the cached
    /// engine over naive per-proposal pruning.
    pub estimated_kernel_speedup: f64,
    /// Fraction of Generalized-MH iterations whose generator workspace was
    /// served from the engine's memo instead of being rebuilt.
    pub generator_cache_hit_rate: f64,
    /// Fraction of per-edge transition-matrix consults served from the
    /// workspace's [`phylo::likelihood::EdgeMatrixCache`] instead of being
    /// recomputed (0.0 when the run consulted no matrices).
    pub matrix_cache_hit_rate: f64,
    /// The combine-kernel variant that actually ran the node recomputations
    /// (the [`Kernel::variant`] resolution: `auto` records the
    /// runtime-probed variant).
    pub kernel: KernelVariant,
    /// The measured host-vs-device cost breakdown, when the run dispatched
    /// through `Backend::Device`. Attached with
    /// [`CachingReport::with_device`]; `None` otherwise.
    pub device: Option<exec::DeviceReport>,
}

impl CachingReport {
    /// Build a report from run counters, the interior-node count of the
    /// genealogies scored, and the combine kernel the engine was configured
    /// with (recorded as its [`Kernel::variant`] resolution).
    pub fn from_stats(stats: &RunCounters, n_internal: usize, kernel: Kernel) -> Self {
        let nodes_per_evaluation = stats.nodes_pruned_per_evaluation();
        let reprune_fraction =
            if n_internal == 0 { 0.0 } else { nodes_per_evaluation / n_internal as f64 };
        let estimated_kernel_speedup =
            if reprune_fraction > 0.0 { 1.0 / reprune_fraction } else { 1.0 };
        let generator_cache_hit_rate = if stats.iterations == 0 {
            0.0
        } else {
            stats.generator_cache_hits as f64 / stats.iterations as f64
        };
        CachingReport {
            nodes_per_evaluation,
            full_prune_nodes: n_internal,
            reprune_fraction,
            estimated_kernel_speedup,
            generator_cache_hit_rate,
            matrix_cache_hit_rate: stats.matrix_cache_hit_rate(),
            kernel: kernel.variant(),
            device: None,
        }
    }

    /// Attach the device-queue cost breakdown of the run this report
    /// summarises (a [`exec::DeviceReport`] built from the queue stats the
    /// run accumulated).
    pub fn with_device(mut self, device: exec::DeviceReport) -> Self {
        self.device = Some(device);
        self
    }
}

/// A workload description (one row of Tables 2–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Number of sequences (tips).
    pub n_sequences: usize,
    /// Sequence length in base pairs.
    pub sequence_length: usize,
    /// Genealogy samples retained per EM iteration.
    pub samples_per_chain: usize,
    /// Burn-in draws per chain.
    pub burn_in: usize,
    /// Proposals per Generalized-MH iteration (`N`).
    pub proposals_per_iteration: usize,
    /// Number of EM iterations.
    pub em_iterations: usize,
}

impl Workload {
    /// The paper's reference workload: 12 sequences of 200 bp, 20 000 samples
    /// (the first row of Tables 2, 3 and 4, which all report 3.69×).
    pub fn reference() -> Self {
        Workload {
            n_sequences: 12,
            sequence_length: 200,
            samples_per_chain: 20_000,
            burn_in: 2_000,
            proposals_per_iteration: 32,
            em_iterations: 3,
        }
    }

    /// Total nodes of a genealogy over this many sequences.
    pub fn tree_nodes(&self) -> usize {
        2 * self.n_sequences - 1
    }

    /// Interior nodes of a genealogy.
    pub fn interior_nodes(&self) -> usize {
        self.n_sequences - 1
    }

    /// Total draws per chain.
    pub fn total_draws(&self) -> usize {
        self.burn_in + self.samples_per_chain
    }
}

/// Cost-model constants shared by both sides of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostConstants {
    /// Arithmetic operations per (site, node) cell of the pruning recursion:
    /// two 4×4 matrix–vector products and a Hadamard product.
    flops_per_cell: f64,
    /// Arithmetic operations to resimulate one neighborhood (per proposal).
    flops_per_proposal: f64,
    /// Host-side serial work per Generalized-MH iteration (φ draw, index
    /// draws, bookkeeping), in operations.
    host_ops_per_iteration: f64,
    /// Gradient-ascent evaluations per maximisation stage.
    ascent_evaluations: f64,
    /// Fixed device-side initialisation cost per run, microseconds.
    device_init_us: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        CostConstants {
            flops_per_cell: 64.0,
            flops_per_proposal: 600.0,
            host_ops_per_iteration: 2_000.0,
            ascent_evaluations: 50.0,
            device_init_us: 60_000.0,
        }
    }
}

/// The speedup model (mpcgs-on-device versus LAMARC-on-host).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupModel {
    device: DeviceModel,
    host: HostModel,
    constants: CostConstants,
    /// Multiplicative calibration applied to the host time.
    host_calibration: f64,
}

impl SpeedupModel {
    /// A model over the default Kepler-class device and workstation host,
    /// uncalibrated (`host_calibration = 1`).
    pub fn new() -> Self {
        SpeedupModel {
            device: DeviceModel::new(DeviceSpec::kepler()),
            host: HostModel::workstation(),
            constants: CostConstants::default(),
            host_calibration: 1.0,
        }
    }

    /// A model calibrated so the reference workload reproduces the paper's
    /// 3.69× speedup (Tables 2–4, first rows).
    pub fn paper_calibrated() -> Self {
        let mut model = SpeedupModel::new();
        let reference = Workload::reference();
        let raw = model.speedup(&reference);
        model.host_calibration = 3.69 / raw;
        model
    }

    /// The calibration factor currently applied to the host time.
    pub fn host_calibration(&self) -> f64 {
        self.host_calibration
    }

    /// Modelled serial-host (LAMARC-like) runtime in microseconds.
    ///
    /// The baseline performs one proposal and one *incremental* likelihood
    /// update per transition: only the sites times the O(log n) nodes whose
    /// conditional likelihoods are invalidated by the neighborhood change are
    /// recomputed.
    pub fn lamarc_time_us(&self, w: &Workload) -> f64 {
        let path_nodes = 2.0 + (w.n_sequences as f64).log2().ceil();
        let lik_ops = w.sequence_length as f64 * path_nodes * self.constants.flops_per_cell;
        let per_transition = self.constants.flops_per_proposal + lik_ops;
        let transitions = (w.total_draws() * w.em_iterations) as f64;
        let sampling = transitions * per_transition;
        // Serial maximisation: ascent evaluations over every sampled
        // genealogy's intervals.
        let maximisation = self.constants.ascent_evaluations
            * (w.samples_per_chain * w.em_iterations) as f64
            * w.interior_nodes() as f64
            * 4.0;
        self.host.time_us(sampling + maximisation) * self.host_calibration
    }

    /// Modelled device (mpcgs) runtime in microseconds.
    pub fn mpcgs_time_us(&self, w: &Workload) -> f64 {
        let n = w.proposals_per_iteration;
        let iterations = (w.total_draws().div_ceil(n) * w.em_iterations) as f64;

        // Proposal kernel: one thread per proposal.
        let proposal_kernel = KernelLaunch::new(
            n,
            self.constants.flops_per_proposal,
            w.tree_nodes() as f64 * 3.0,
            0.0,
        )
        .with_serial_fraction(0.02);

        // Data-likelihood kernels: one *child* launch per proposal (dynamic
        // parallelism, Section 5.2.1), each with one thread per site, every
        // thread recomputing the whole tree for its site.
        // The per-site reduction tail is logarithmic in the site count and is
        // absorbed into the launch overhead, so no serial fraction is charged
        // here (charging even 1% of the total work to a single core would
        // swamp the kernel and contradict the warp-shuffle reductions the
        // implementation uses, Section 5.2.2).
        let lik_kernel = KernelLaunch::new(
            w.sequence_length,
            w.interior_nodes() as f64 * self.constants.flops_per_cell,
            self.device.traversal_global_accesses(w.tree_nodes()),
            w.n_sequences as f64,
        );

        let per_iteration_us = self.device.kernel_time_us(&proposal_kernel)
            + n as f64 * self.device.kernel_time_us(&lik_kernel)
            + self.host.time_us(self.constants.host_ops_per_iteration);

        // Posterior-likelihood kernel: one thread per retained sample, one
        // launch per gradient-ascent evaluation per EM iteration.
        // Like the data-likelihood kernel, the final reduction is done with
        // warp shuffles and contributes only a logarithmic tail, so no serial
        // fraction is charged.
        let posterior_kernel = KernelLaunch::new(
            w.samples_per_chain,
            w.interior_nodes() as f64 * 8.0,
            w.interior_nodes() as f64,
            0.0,
        );
        let maximisation_us = self.constants.ascent_evaluations
            * w.em_iterations as f64
            * self.device.kernel_time_us(&posterior_kernel);

        self.constants.device_init_us + iterations * per_iteration_us + maximisation_us
    }

    /// Modelled speedup of mpcgs over the baseline for a workload.
    pub fn speedup(&self, w: &Workload) -> f64 {
        self.lamarc_time_us(w) / self.mpcgs_time_us(w)
    }

    /// Table 2 / Figure 14: speedup versus the number of samples per chain.
    pub fn sweep_samples(&self, samples: &[usize]) -> Vec<(usize, f64)> {
        samples
            .iter()
            .map(|&s| {
                let w = Workload { samples_per_chain: s, ..Workload::reference() };
                (s, self.speedup(&w))
            })
            .collect()
    }

    /// Table 3 / Figure 15: speedup versus the number of sequences.
    pub fn sweep_sequences(&self, sequences: &[usize]) -> Vec<(usize, f64)> {
        sequences
            .iter()
            .map(|&n| {
                let w = Workload { n_sequences: n, ..Workload::reference() };
                (n, self.speedup(&w))
            })
            .collect()
    }

    /// Table 4 / Figure 16: speedup versus the sequence length.
    pub fn sweep_sequence_length(&self, lengths: &[usize]) -> Vec<(usize, f64)> {
        lengths
            .iter()
            .map(|&len| {
                let w = Workload { sequence_length: len, ..Workload::reference() };
                (len, self.speedup(&w))
            })
            .collect()
    }
}

impl Default for SpeedupModel {
    fn default() -> Self {
        SpeedupModel::paper_calibrated()
    }
}

/// The sample counts of Table 2.
pub const TABLE2_SAMPLES: [usize; 6] = [20_000, 30_000, 40_000, 60_000, 80_000, 100_000];
/// The paper's measured speedups for Table 2.
pub const TABLE2_PAPER: [f64; 6] = [3.69, 3.8, 3.95, 4.19, 4.27, 4.32];
/// The sequence counts of Table 3.
pub const TABLE3_SEQUENCES: [usize; 8] = [12, 24, 36, 48, 60, 84, 108, 132];
/// The paper's measured speedups for Table 3.
pub const TABLE3_PAPER: [f64; 8] = [3.69, 3.41, 2.9, 2.78, 2.57, 2.43, 2.43, 2.83];
/// The sequence lengths of Table 4.
pub const TABLE4_LENGTHS: [usize; 6] = [200, 400, 600, 800, 1_000, 2_000];
/// The paper's measured speedups for Table 4.
pub const TABLE4_PAPER: [f64; 6] = [3.69, 5.67, 7.86, 10.22, 12.63, 23.28];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_the_reference_speedup() {
        let model = SpeedupModel::paper_calibrated();
        let s = model.speedup(&Workload::reference());
        assert!((s - 3.69).abs() < 1e-9, "calibrated reference speedup {s}");
        assert!(model.host_calibration() > 0.0);
        assert_eq!(SpeedupModel::default(), model);
    }

    #[test]
    fn speedup_grows_roughly_linearly_with_sequence_length() {
        // Figure 16: the paper sees ~3.7x at 200 bp rising to ~23x at 2000 bp.
        let model = SpeedupModel::paper_calibrated();
        let sweep = model.sweep_sequence_length(&TABLE4_LENGTHS);
        // Monotone increase.
        assert!(sweep.windows(2).all(|w| w[1].1 > w[0].1), "{sweep:?}");
        let first = sweep[0].1;
        let last = sweep[sweep.len() - 1].1;
        assert!(
            last / first > 3.5 && last / first < 12.0,
            "2000bp should be several times faster than 200bp: {first} -> {last}"
        );
        // The growth is roughly linear: the ratio of speedup to length stays
        // within a factor-two band across the sweep.
        let per_bp: Vec<f64> = sweep.iter().map(|&(len, s)| s / len as f64).collect();
        let max = per_bp.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_bp.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 2.5, "per-bp speedup should stay near-constant: {per_bp:?}");
    }

    #[test]
    fn speedup_declines_mildly_with_sequence_count() {
        // Figure 15: 3.69 at 12 sequences declining toward ~2.4 at 84-132.
        let model = SpeedupModel::paper_calibrated();
        let sweep = model.sweep_sequences(&TABLE3_SEQUENCES);
        let first = sweep[0].1;
        let last = sweep[sweep.len() - 1].1;
        assert!(last < first, "speedup should decline with sequence count: {sweep:?}");
        assert!(
            last > 0.4 * first,
            "the decline should be mild, not a collapse: {first} -> {last}"
        );
    }

    #[test]
    fn speedup_rises_gently_with_sample_count() {
        // Figure 14: 3.69 at 20k samples rising to ~4.3 at 100k.
        let model = SpeedupModel::paper_calibrated();
        let sweep = model.sweep_samples(&TABLE2_SAMPLES);
        assert!(sweep.windows(2).all(|w| w[1].1 >= w[0].1), "{sweep:?}");
        let first = sweep[0].1;
        let last = sweep[sweep.len() - 1].1;
        assert!(last > first, "more samples must amortise fixed costs");
        assert!(
            last / first < 1.5,
            "the rise is gentle in the paper (3.69 -> 4.32): {first} -> {last}"
        );
    }

    #[test]
    fn modelled_times_are_positive_and_scale_with_work() {
        let model = SpeedupModel::paper_calibrated();
        let small = Workload { samples_per_chain: 1_000, ..Workload::reference() };
        let large = Workload { samples_per_chain: 100_000, ..Workload::reference() };
        assert!(model.lamarc_time_us(&small) > 0.0);
        assert!(model.mpcgs_time_us(&small) > 0.0);
        assert!(model.lamarc_time_us(&large) > model.lamarc_time_us(&small));
        assert!(model.mpcgs_time_us(&large) > model.mpcgs_time_us(&small));
    }

    #[test]
    fn workload_arithmetic() {
        let w = Workload::reference();
        assert_eq!(w.tree_nodes(), 23);
        assert_eq!(w.interior_nodes(), 11);
        assert_eq!(w.total_draws(), 22_000);
    }

    #[test]
    fn caching_report_summarises_run_counters() {
        let stats = RunCounters {
            iterations: 10,
            proposals_generated: 80,
            likelihood_evaluations: 80,
            draws: 80,
            accepted: 40,
            nodes_repruned: 240,    // 3 nodes per dirty path
            nodes_full_pruned: 110, // 10 full prunes of 11 interior nodes
            nodes_committed: 0,
            generator_cache_hits: 4,
            matrix_cache_hits: 90,
            matrix_cache_misses: 10,
            workspace_commits: 0,
            ..RunCounters::default()
        };
        let report = CachingReport::from_stats(&stats, 11, Kernel::Scalar);
        assert!((report.nodes_per_evaluation - 350.0 / 80.0).abs() < 1e-12);
        assert_eq!(report.full_prune_nodes, 11);
        assert!((report.reprune_fraction - (350.0 / 80.0) / 11.0).abs() < 1e-12);
        assert!(report.estimated_kernel_speedup > 2.0);
        assert!((report.generator_cache_hit_rate - 0.4).abs() < 1e-12);
        assert!((report.matrix_cache_hit_rate - 0.9).abs() < 1e-12);
        assert_eq!(report.kernel, KernelVariant::Scalar);
        // The report records the *resolved* kernel variant: a Simd request
        // without the feature resolves to Scalar, and an Auto request
        // records whatever the runtime probe selected.
        let simd = CachingReport::from_stats(&stats, 11, Kernel::Simd);
        assert_eq!(simd.kernel, Kernel::Simd.variant());
        let auto = CachingReport::from_stats(&stats, 11, Kernel::Auto);
        assert_eq!(auto.kernel, Kernel::Auto.variant());
        // The device section is opt-in, attached from the run's queue stats.
        assert!(report.device.is_none());
        let section = exec::DeviceReport::new(DeviceSpec::kepler(), exec::DeviceStats::default());
        assert_eq!(report.with_device(section).device, Some(section));
    }

    #[test]
    fn caching_report_handles_empty_runs() {
        let report = CachingReport::from_stats(&RunCounters::default(), 11, Kernel::Scalar);
        assert_eq!(report.nodes_per_evaluation, 0.0);
        assert_eq!(report.reprune_fraction, 0.0);
        assert_eq!(report.estimated_kernel_speedup, 1.0);
        assert_eq!(report.generator_cache_hit_rate, 0.0);
        assert_eq!(report.matrix_cache_hit_rate, 0.0);
        assert_eq!(report.kernel, KernelVariant::Scalar);
        let degenerate = CachingReport::from_stats(&RunCounters::default(), 0, Kernel::Scalar);
        assert_eq!(degenerate.reprune_fraction, 0.0);
    }

    #[test]
    fn paper_reference_tables_are_consistent() {
        assert_eq!(TABLE2_SAMPLES.len(), TABLE2_PAPER.len());
        assert_eq!(TABLE3_SEQUENCES.len(), TABLE3_PAPER.len());
        assert_eq!(TABLE4_LENGTHS.len(), TABLE4_PAPER.len());
        assert_eq!(TABLE2_PAPER[0], TABLE3_PAPER[0]);
        assert_eq!(TABLE2_PAPER[0], TABLE4_PAPER[0]);
    }
}
