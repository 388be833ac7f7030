//! A simulated SIMD (GPGPU-style) device with an occupancy / latency-hiding
//! cost model.
//!
//! The paper's speedups come from mapping the sampler's three kernels onto a
//! CUDA device (compute capability 3.5, Kepler). No GPU is available in this
//! environment, so the speedup *figures* are regenerated from this explicit
//! cost model driven by the real operation counts of the Rust sampler. The
//! model captures the three effects the paper credits for the observed
//! curves:
//!
//! 1. **Kernel launch overhead and serial residue** — fixed per-iteration
//!    costs that amortise as the number of samples grows (Figure 14's gentle
//!    rise).
//! 2. **Occupancy-driven latency hiding** — the device only reaches full
//!    throughput when enough threads are resident to cover memory latency;
//!    the data-likelihood kernel launches one thread per (proposal, site)
//!    pair, so throughput — and therefore speedup — grows roughly linearly
//!    with sequence length until the device saturates (Figure 16, and the
//!    paper's observation that "increasing sequence size primarily increases
//!    the number of data likelihood threads executing simultaneously ...
//!    hiding memory latency").
//! 3. **Per-thread memory pressure** — each thread's tree traversal touches
//!    memory proportionally to the number of nodes, and beyond the register /
//!    L1 budget the recursion spills, so larger trees expose more latency and
//!    erode speedup slightly (Figure 15's mild decline).

/// Physical characteristics of the simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp (32 on every CUDA generation).
    pub warp_size: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: usize,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Global-memory latency in cycles.
    pub global_latency_cycles: f64,
    /// Constant-memory (cached, broadcast) latency in cycles.
    pub const_latency_cycles: f64,
    /// Number of registers' worth of per-thread working set before traversal
    /// state spills to local (global) memory.
    pub register_budget: usize,
}

impl DeviceSpec {
    /// A Kepler-class card comparable to the compute-3.5 hardware used in the
    /// thesis (GK110-like: 13 SMs × 192 cores).
    pub fn kepler() -> Self {
        DeviceSpec {
            sms: 13,
            cores_per_sm: 192,
            warp_size: 32,
            clock_ghz: 0.824,
            max_threads_per_sm: 2_048,
            launch_overhead_us: 8.0,
            global_latency_cycles: 400.0,
            const_latency_cycles: 12.0,
            register_budget: 64,
        }
    }

    /// A modern-generation card (Ampere-like: many more SMs, faster clock,
    /// cheaper launches, a deeper register file). Used to show how the same
    /// measured operation counts land on newer hardware.
    pub fn modern() -> Self {
        DeviceSpec {
            sms: 68,
            cores_per_sm: 128,
            warp_size: 32,
            clock_ghz: 1.41,
            max_threads_per_sm: 1_536,
            launch_overhead_us: 3.5,
            global_latency_cycles: 350.0,
            const_latency_cycles: 10.0,
            register_budget: 128,
        }
    }

    /// The name of the preset this spec equals (`"kepler"` / `"modern"`), or
    /// `None` for a custom spec. This is what `Backend::Device` round-trips
    /// through `Display`/`FromStr`.
    pub fn preset_name(&self) -> Option<&'static str> {
        if *self == DeviceSpec::kepler() {
            Some("kepler")
        } else if *self == DeviceSpec::modern() {
            Some("modern")
        } else {
            None
        }
    }

    /// Look a preset up by name (case insensitive).
    pub fn from_preset(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "kepler" => Some(DeviceSpec::kepler()),
            "modern" => Some(DeviceSpec::modern()),
            _ => None,
        }
    }

    /// Total number of cores.
    pub fn total_cores(&self) -> usize {
        self.sms * self.cores_per_sm
    }

    /// Maximum number of resident threads across the device.
    pub fn max_resident_threads(&self) -> usize {
        self.sms * self.max_threads_per_sm
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::kepler()
    }
}

/// One kernel launch, described by its thread count and per-thread work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelLaunch {
    /// Number of threads launched.
    pub threads: usize,
    /// Arithmetic operations per thread.
    pub flops_per_thread: f64,
    /// Global-memory accesses per thread.
    pub global_accesses_per_thread: f64,
    /// Constant-memory accesses per thread.
    pub const_accesses_per_thread: f64,
    /// Fraction of the kernel's total work that executes serially (final
    /// block-level reductions, Section 5.2.1's single-thread reduction tail).
    pub serial_fraction: f64,
}

impl KernelLaunch {
    /// A launch with the given thread count and per-thread work and no
    /// serial residue.
    pub fn new(threads: usize, flops: f64, global: f64, constant: f64) -> Self {
        KernelLaunch {
            threads,
            flops_per_thread: flops,
            global_accesses_per_thread: global,
            const_accesses_per_thread: constant,
            serial_fraction: 0.0,
        }
    }

    /// Set the serial residue fraction.
    pub fn with_serial_fraction(mut self, fraction: f64) -> Self {
        self.serial_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Cycles of work a single thread performs, with the exposed fraction of
    /// memory latency given.
    fn cycles_per_thread(&self, spec: &DeviceSpec, exposed: f64) -> f64 {
        self.flops_per_thread
            + self.global_accesses_per_thread * spec.global_latency_cycles * exposed
            + self.const_accesses_per_thread * spec.const_latency_cycles * exposed
    }
}

/// The device cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceModel {
    spec: DeviceSpec,
}

impl DeviceModel {
    /// Create a model over the given device.
    pub fn new(spec: DeviceSpec) -> Self {
        DeviceModel { spec }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Occupancy of a launch: the fraction of the device's resident-thread
    /// capacity that the launch fills (rounded up to whole warps).
    pub fn occupancy(&self, launch: &KernelLaunch) -> f64 {
        if launch.threads == 0 {
            return 0.0;
        }
        let warps = launch.threads.div_ceil(self.spec.warp_size);
        let threads = warps * self.spec.warp_size;
        (threads as f64 / self.spec.max_resident_threads() as f64).min(1.0)
    }

    /// The fraction of memory latency left exposed after occupancy-based
    /// hiding: with a full complement of resident warps the scheduler can
    /// almost always find an eligible warp, with few warps stalls are fully
    /// exposed.
    pub fn exposed_latency_fraction(&self, launch: &KernelLaunch) -> f64 {
        // Hiding improves with occupancy; the floor keeps even a saturated
        // device from being modelled as latency-free.
        let occupancy = self.occupancy(launch);
        (1.0 - 0.95 * occupancy).clamp(0.05, 1.0)
    }

    /// Modelled execution time of one kernel launch, in microseconds.
    pub fn kernel_time_us(&self, launch: &KernelLaunch) -> f64 {
        if launch.threads == 0 {
            return self.spec.launch_overhead_us;
        }
        let exposed = self.exposed_latency_fraction(launch);
        let cycles_per_thread = launch.cycles_per_thread(&self.spec, exposed);
        let total_cycles = cycles_per_thread * launch.threads as f64;
        // Parallel portion: spread over all cores.
        let parallel_cycles =
            total_cycles * (1.0 - launch.serial_fraction) / self.spec.total_cores() as f64;
        // Serial portion: one core.
        let serial_cycles = total_cycles * launch.serial_fraction;
        let cycles = parallel_cycles + serial_cycles;
        self.spec.launch_overhead_us + cycles / (self.spec.clock_ghz * 1_000.0)
    }

    /// Modelled time for a sequence of launches (microseconds).
    pub fn total_time_us(&self, launches: &[KernelLaunch]) -> f64 {
        launches.iter().map(|l| self.kernel_time_us(l)).sum()
    }

    /// Per-thread global-memory accesses for a pruning traversal over a tree
    /// with `tree_nodes` nodes: structural reads plus spill traffic once the
    /// working set exceeds the register budget (the effect the paper notes as
    /// "the real possibility that a set of sequence data could overrun the
    /// stack", Section 5.2.2).
    pub fn traversal_global_accesses(&self, tree_nodes: usize) -> f64 {
        let structural = tree_nodes as f64;
        let excess = tree_nodes.saturating_sub(self.spec.register_budget) as f64;
        structural + 0.5 * excess
    }
}

/// Per-thread work description of a grid submitted to the device backend.
///
/// The dispatch seams (`Backend::map_grid_profiled`) carry a `GridProfile`
/// alongside the closure so the `Queue` can account a submission as the
/// kernel launch it *represents* rather than the `rows × cols` closure grid
/// it executes: the paper's data-likelihood kernel launches one thread per
/// (proposal, site) pair, so a `(locus × proposal)` closure grid over
/// pattern-compressed loci stands for `proposals × Σ_l patterns(l)` logical
/// device threads — which is what drives occupancy and latency hiding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridProfile {
    /// Logical device threads the submission stands for (occupancy driver).
    pub logical_threads: usize,
    /// Arithmetic operations per logical thread.
    pub flops_per_thread: f64,
    /// Global-memory accesses per logical thread. When
    /// [`GridProfile::traversal_nodes`] is set this is ignored and derived
    /// from the device's register budget instead.
    pub global_accesses_per_thread: f64,
    /// Constant-memory (cached, broadcast) accesses per logical thread.
    pub const_accesses_per_thread: f64,
    /// Fraction of the kernel's work that executes serially (reduction tail).
    pub serial_fraction: f64,
    /// When the per-thread work is a tree traversal, the node count of the
    /// traversed tree: global accesses are then derived per device via
    /// [`DeviceModel::traversal_global_accesses`] (register-spill pressure).
    pub traversal_nodes: Option<usize>,
    /// Arithmetic the serial-host *baseline* retires per logical thread for
    /// the same work. Usually equal to [`GridProfile::flops_per_thread`],
    /// but the pruning kernel differs by design: the device "simply
    /// recalculates the likelihood of every node" while LAMARC's host
    /// baseline updates only the O(log n) dirty path (Section 5.2.2) — the
    /// asymmetry behind Figure 15's decline with tree size.
    pub host_flops_per_thread: f64,
}

/// Arithmetic operations per (site, node) cell of the pruning recursion (two
/// 4×4 matrix–vector products and a Hadamard product).
pub const PRUNING_FLOPS_PER_CELL: f64 = 64.0;

impl GridProfile {
    /// A uniform profile: `logical_threads` threads of `flops_per_thread`
    /// arithmetic each, no modelled memory traffic beyond the launch.
    pub fn uniform(logical_threads: usize, flops_per_thread: f64) -> Self {
        GridProfile {
            logical_threads,
            flops_per_thread,
            global_accesses_per_thread: 0.0,
            const_accesses_per_thread: 0.0,
            serial_fraction: 0.0,
            traversal_nodes: None,
            host_flops_per_thread: flops_per_thread,
        }
    }

    /// The profile of a batched pruning-likelihood grid: one logical thread
    /// per (proposal, site) pair, each recomputing every interior node of the
    /// tree for its site (the paper's device kernel "simply recalculates the
    /// likelihood of every node", Section 5.2.2), with traversal state
    /// subject to register spill and the tip states read through constant
    /// memory. The serial-host baseline for the same submission is LAMARC's
    /// incremental update: only the ~`2 + log2(tips)` dirty-path nodes per
    /// (proposal, site) pair.
    pub fn pruning(
        logical_threads: usize,
        interior_nodes: usize,
        tree_nodes: usize,
        n_tips: usize,
    ) -> Self {
        let path_nodes = 2.0 + (n_tips.max(2) as f64).log2().ceil();
        GridProfile {
            logical_threads,
            flops_per_thread: interior_nodes as f64 * PRUNING_FLOPS_PER_CELL,
            global_accesses_per_thread: 0.0,
            const_accesses_per_thread: n_tips as f64,
            serial_fraction: 0.0,
            traversal_nodes: Some(tree_nodes),
            host_flops_per_thread: path_nodes.min(interior_nodes as f64) * PRUNING_FLOPS_PER_CELL,
        }
    }

    /// Resolve the profile into a [`KernelLaunch`] on a concrete device.
    pub fn launch(&self, spec: &DeviceSpec) -> KernelLaunch {
        let global = match self.traversal_nodes {
            Some(nodes) => DeviceModel::new(*spec).traversal_global_accesses(nodes),
            None => self.global_accesses_per_thread,
        };
        KernelLaunch::new(
            self.logical_threads,
            self.flops_per_thread,
            global,
            self.const_accesses_per_thread,
        )
        .with_serial_fraction(self.serial_fraction)
    }

    /// Serial-host operation count for the same work (the baseline side of
    /// the report's host-vs-device breakdown): every logical thread's
    /// host-side arithmetic retired one after another.
    pub fn host_ops(&self) -> f64 {
        self.logical_threads as f64 * self.host_flops_per_thread
    }
}

/// Aggregate accounting of everything a device `Queue` executed.
///
/// All counters are cumulative; [`DeviceStats::delta`] subtracts a baseline
/// snapshot so drivers can report per-run sections from a long-lived queue.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    /// Kernel launches accounted (one per dispatched submission).
    pub launches: u64,
    /// Submissions that arrived as flattened grids (`map_grid` family) — the
    /// batched dispatch shape, as opposed to plain maps and reductions.
    pub grid_batches: u64,
    /// Total logical device threads across all launches.
    pub logical_threads: u64,
    /// Closure invocations actually executed on the host.
    pub host_items: u64,
    /// Modelled device time across all launches, microseconds (includes
    /// launch overhead).
    pub modelled_device_us: f64,
    /// The launch-overhead share of [`DeviceStats::modelled_device_us`].
    pub launch_overhead_us: f64,
    /// Sum of per-launch occupancies (divide by `launches` for the mean).
    pub occupancy_sum: f64,
    /// Launches that filled the device's resident-thread capacity.
    pub saturated_launches: u64,
    /// Serial-host operation count for the same submissions (what the
    /// modelled host baseline retires).
    pub modelled_host_ops: f64,
    /// Wall-clock actually spent executing the submissions on this host,
    /// microseconds.
    pub measured_host_us: f64,
}

impl DeviceStats {
    /// The stats accumulated since `baseline` was snapshotted.
    pub fn delta(&self, baseline: &DeviceStats) -> DeviceStats {
        DeviceStats {
            launches: self.launches.saturating_sub(baseline.launches),
            grid_batches: self.grid_batches.saturating_sub(baseline.grid_batches),
            logical_threads: self.logical_threads.saturating_sub(baseline.logical_threads),
            host_items: self.host_items.saturating_sub(baseline.host_items),
            modelled_device_us: self.modelled_device_us - baseline.modelled_device_us,
            launch_overhead_us: self.launch_overhead_us - baseline.launch_overhead_us,
            occupancy_sum: self.occupancy_sum - baseline.occupancy_sum,
            saturated_launches: self.saturated_launches.saturating_sub(baseline.saturated_launches),
            // Saturates like the integer counters: an operation count
            // cannot go negative (HostModel::time_us rejects one).
            modelled_host_ops: (self.modelled_host_ops - baseline.modelled_host_ops).max(0.0),
            measured_host_us: self.measured_host_us - baseline.measured_host_us,
        }
    }

    /// Mean occupancy across launches (0 when nothing launched).
    pub fn mean_occupancy(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.occupancy_sum / self.launches as f64
        }
    }

    /// Whether anything was accounted.
    pub fn is_empty(&self) -> bool {
        self.launches == 0 && self.host_items == 0
    }
}

/// Fixed device-side initialisation cost charged once per run report,
/// microseconds: pre-allocation of the proposal set and sample buffers,
/// stack resizing and PRNG setup (Section 5.1.3 of the paper). Amortising
/// this constant over longer chains is what makes the modelled speedup rise
/// gently with the number of samples (Figure 14).
pub const DEVICE_INIT_US: f64 = 60_000.0;

/// The measured host-vs-modelled-device cost breakdown of one run on the
/// device backend: the queue's accounting plus the serial-host baseline the
/// same operation counts imply. This is the "section" `CachingReport`,
/// `SessionReport` and `EnsembleReport` carry when a run used
/// `Backend::Device`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceReport {
    /// The device the run was accounted against.
    pub spec: DeviceSpec,
    /// What the queue executed and charged.
    pub stats: DeviceStats,
    /// Modelled serial-host time for the same submissions, microseconds
    /// ([`crate::host::HostModel::workstation`] over [`DeviceStats::modelled_host_ops`]).
    pub modelled_host_us: f64,
    /// Fixed per-run device initialisation charge ([`DEVICE_INIT_US`]).
    pub init_us: f64,
}

impl DeviceReport {
    /// Build a report from a device spec and a (delta) stats snapshot.
    pub fn new(spec: DeviceSpec, stats: DeviceStats) -> Self {
        let modelled_host_us =
            crate::host::HostModel::workstation().time_us(stats.modelled_host_ops);
        DeviceReport { spec, stats, modelled_host_us, init_us: DEVICE_INIT_US }
    }

    /// Total modelled device time for the run: the queue's launch accounting
    /// plus the fixed per-run initialisation charge.
    pub fn modelled_device_us(&self) -> f64 {
        self.stats.modelled_device_us + self.init_us
    }

    /// Modelled speedup of the device over the serial host for the work this
    /// run actually submitted, initialisation included (1 when nothing was
    /// launched). Rises with chain length as the fixed init charge
    /// amortises — the Figure 14 curve.
    pub fn modelled_speedup(&self) -> f64 {
        if self.stats.launches > 0 {
            self.modelled_host_us / self.modelled_device_us()
        } else {
            1.0
        }
    }

    /// The sustained modelled speedup a long chain approaches: per-launch
    /// device time only, the fixed initialisation charge excluded. This is
    /// the regime the paper's Figures 15 and 16 are measured in (20 000+
    /// samples, init long amortised).
    pub fn kernel_speedup(&self) -> f64 {
        if self.stats.modelled_device_us > 0.0 {
            self.modelled_host_us / self.stats.modelled_device_us
        } else {
            1.0
        }
    }

    /// The launch-overhead share of the modelled (per-launch) device time.
    pub fn launch_overhead_fraction(&self) -> f64 {
        if self.stats.modelled_device_us > 0.0 {
            self.stats.launch_overhead_us / self.stats.modelled_device_us
        } else {
            0.0
        }
    }

    /// Mean occupancy across the run's launches.
    pub fn mean_occupancy(&self) -> f64 {
        self.stats.mean_occupancy()
    }

    /// A compact human-readable section (what the CLI prints).
    pub fn summary(&self) -> String {
        format!(
            "device {}: {} launches ({} batched grids), {:.1}M logical threads, \
             mean occupancy {:.1}%\n  modelled device {:.2} ms (incl. {:.0} ms init, \
             {:.1}% launch overhead) vs modelled serial host {:.2} ms -> {:.2}x\n  \
             measured host execution {:.2} ms",
            self.spec.preset_name().unwrap_or("custom"),
            self.stats.launches,
            self.stats.grid_batches,
            self.stats.logical_threads as f64 / 1.0e6,
            self.mean_occupancy() * 100.0,
            self.modelled_device_us() / 1_000.0,
            self.init_us / 1_000.0,
            self.launch_overhead_fraction() * 100.0,
            self.modelled_host_us / 1_000.0,
            self.modelled_speedup(),
            self.stats.measured_host_us / 1_000.0,
        )
    }
}

/// The simulated command queue behind [`crate::Backend::Device`].
///
/// Work reaches the queue as *submissions* — one per dispatch-seam call
/// (`map_grid`, `map_indexed`, reductions). Each submission is coalesced into
/// a single [`KernelLaunch`] record covering the whole grid (the batched
/// shape the paper gets from dynamic parallelism), executed **synchronously
/// on the host in submission order**, and charged against the owning
/// backend's [`DeviceSpec`] cost model: launch overhead, occupancy-driven
/// latency hiding, and register-spill traffic for traversal work. Because
/// execution is the same serial loop `Backend::Serial` runs, results are
/// bit-identical to the serial backend — the queue changes *where and in
/// what order batches are accounted*, never the arithmetic. A real GPU
/// backend would overlap execution behind the same seam.
///
/// Accounting is **thread-local**: a run's submissions are visible to
/// [`Queue::stats`] on the thread that dispatched them. Chain-level dispatch
/// on the device backend therefore serialises through the queue
/// ([`crate::Backend::map_mut`] visits items in order on the calling
/// thread), which is also the physically honest model of one device shared
/// by many chains.
pub struct Queue;

mod queue_state {
    use std::cell::RefCell;

    use super::{DeviceModel, DeviceStats, GridProfile, Queue};

    thread_local! {
        static STATS: RefCell<DeviceStats> = RefCell::new(DeviceStats::default());
    }

    impl Queue {
        /// Snapshot this thread's cumulative accounting.
        pub fn stats() -> DeviceStats {
            STATS.with(|s| *s.borrow())
        }

        /// Clear this thread's accounting.
        pub fn reset() {
            STATS.with(|s| *s.borrow_mut() = DeviceStats::default());
        }

        /// Snapshot and clear in one step.
        pub fn take() -> DeviceStats {
            STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
        }

        /// Execute one submission on the host and charge it to the queue:
        /// `host_items` closure invocations standing for the launch described
        /// by `profile`, on device `spec`. `grid` marks batched-grid
        /// submissions. Used by the `Backend::Device` dispatch arms.
        ///
        /// An empty submission (nothing to execute, no logical threads) is
        /// executed but not charged — no real runtime would launch a kernel
        /// for it, and charging launch overhead for no-ops would skew every
        /// occupancy and overhead statistic.
        pub fn submit<U>(
            spec: &super::DeviceSpec,
            profile: &GridProfile,
            grid: bool,
            host_items: usize,
            execute: impl FnOnce() -> U,
        ) -> U {
            if host_items == 0 && profile.logical_threads == 0 {
                return execute();
            }
            // mpcgs-analyze: allow(d4, reason = "device cost accounting: measures kernel wall time for the modelled DeviceStats report; the measurement never feeds sampler state")
            let started = std::time::Instant::now();
            let out = execute();
            let measured_us = started.elapsed().as_secs_f64() * 1.0e6;
            let launch = profile.launch(spec);
            let model = DeviceModel::new(*spec);
            let occupancy = model.occupancy(&launch);
            STATS.with(|s| {
                let stats = &mut *s.borrow_mut();
                stats.launches += 1;
                stats.grid_batches += grid as u64;
                stats.logical_threads += launch.threads as u64;
                stats.host_items += host_items as u64;
                stats.modelled_device_us += model.kernel_time_us(&launch);
                stats.launch_overhead_us += spec.launch_overhead_us;
                stats.occupancy_sum += occupancy;
                stats.saturated_launches += (occupancy >= 1.0) as u64;
                stats.modelled_host_ops += profile.host_ops();
                stats.measured_host_us += measured_us;
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DeviceModel {
        DeviceModel::new(DeviceSpec::kepler())
    }

    #[test]
    fn spec_accessors() {
        let spec = DeviceSpec::kepler();
        assert_eq!(spec.total_cores(), 13 * 192);
        assert_eq!(spec.max_resident_threads(), 13 * 2_048);
        assert_eq!(DeviceSpec::default(), spec);
        assert_eq!(*model().spec(), spec);
    }

    #[test]
    fn occupancy_grows_with_threads_and_saturates() {
        let m = model();
        let small = KernelLaunch::new(640, 100.0, 10.0, 5.0);
        let large = KernelLaunch::new(40_000, 100.0, 10.0, 5.0);
        assert!(m.occupancy(&small) < m.occupancy(&large));
        assert!(m.occupancy(&large) <= 1.0);
        let huge = KernelLaunch::new(10_000_000, 100.0, 10.0, 5.0);
        assert_eq!(m.occupancy(&huge), 1.0);
        assert_eq!(m.occupancy(&KernelLaunch::new(0, 1.0, 1.0, 1.0)), 0.0);
        // Rounded up to a full warp.
        let one = KernelLaunch::new(1, 1.0, 0.0, 0.0);
        assert!(m.occupancy(&one) > 0.0);
    }

    #[test]
    fn higher_occupancy_hides_more_latency() {
        let m = model();
        let small = KernelLaunch::new(640, 100.0, 10.0, 5.0);
        let large = KernelLaunch::new(26_000, 100.0, 10.0, 5.0);
        assert!(m.exposed_latency_fraction(&large) < m.exposed_latency_fraction(&small));
        assert!(m.exposed_latency_fraction(&large) >= 0.05);
    }

    #[test]
    fn kernel_time_includes_launch_overhead() {
        let m = model();
        let empty = KernelLaunch::new(0, 0.0, 0.0, 0.0);
        assert_eq!(m.kernel_time_us(&empty), DeviceSpec::kepler().launch_overhead_us);
        let tiny = KernelLaunch::new(32, 10.0, 0.0, 0.0);
        assert!(m.kernel_time_us(&tiny) > DeviceSpec::kepler().launch_overhead_us);
    }

    #[test]
    fn throughput_efficiency_improves_with_thread_count() {
        // Time per thread should drop as the launch grows (latency hiding),
        // i.e. doubling the threads less than doubles the time for
        // memory-bound kernels.
        let m = model();
        let work = |threads: usize| KernelLaunch::new(threads, 50.0, 20.0, 10.0);
        let t1 = m.kernel_time_us(&work(2_000));
        let t2 = m.kernel_time_us(&work(20_000));
        assert!(t2 < 10.0 * t1 * 0.9, "expected sublinear growth: {t1} -> {t2}");
    }

    #[test]
    fn serial_fraction_slows_the_kernel() {
        let m = model();
        let base = KernelLaunch::new(10_000, 200.0, 10.0, 0.0);
        let with_serial = base.with_serial_fraction(0.01);
        assert!(m.kernel_time_us(&with_serial) > m.kernel_time_us(&base));
        // Clamping.
        assert_eq!(base.with_serial_fraction(2.0).serial_fraction, 1.0);
        assert_eq!(base.with_serial_fraction(-1.0).serial_fraction, 0.0);
    }

    #[test]
    fn traversal_spill_grows_superlinearly_past_the_register_budget() {
        let m = model();
        let small = m.traversal_global_accesses(23); // 12-tip tree
        let large = m.traversal_global_accesses(263); // 132-tip tree
        assert!(small < large);
        // Below the budget there is no spill: accesses equal node count.
        assert_eq!(m.traversal_global_accesses(23), 23.0);
        // Above the budget the per-node cost exceeds 1.
        assert!(m.traversal_global_accesses(263) > 263.0);
    }

    #[test]
    fn spec_presets_round_trip_by_name() {
        assert_eq!(DeviceSpec::kepler().preset_name(), Some("kepler"));
        assert_eq!(DeviceSpec::modern().preset_name(), Some("modern"));
        assert_eq!(DeviceSpec::from_preset("KEPLER"), Some(DeviceSpec::kepler()));
        assert_eq!(DeviceSpec::from_preset("modern"), Some(DeviceSpec::modern()));
        assert_eq!(DeviceSpec::from_preset("cuda"), None);
        let custom = DeviceSpec { sms: 1, ..DeviceSpec::kepler() };
        assert_eq!(custom.preset_name(), None);
        // The modern preset is a genuinely bigger device.
        assert!(DeviceSpec::modern().total_cores() > DeviceSpec::kepler().total_cores());
        assert!(DeviceSpec::modern().launch_overhead_us < DeviceSpec::kepler().launch_overhead_us);
    }

    #[test]
    fn grid_profiles_resolve_to_launches() {
        let spec = DeviceSpec::kepler();
        let uniform = GridProfile::uniform(640, 50.0);
        let launch = uniform.launch(&spec);
        assert_eq!(launch.threads, 640);
        assert_eq!(launch.flops_per_thread, 50.0);
        assert_eq!(launch.global_accesses_per_thread, 0.0);
        assert_eq!(uniform.host_ops(), 640.0 * 50.0);

        // Pruning profiles derive spill traffic from the tree size: a tree
        // past the register budget costs more global accesses per node.
        let small = GridProfile::pruning(1_000, 11, 23, 12).launch(&spec);
        let large = GridProfile::pruning(1_000, 131, 263, 132).launch(&spec);
        assert_eq!(small.flops_per_thread, 11.0 * PRUNING_FLOPS_PER_CELL);
        assert_eq!(small.global_accesses_per_thread, 23.0);
        assert!(large.global_accesses_per_thread > 263.0);
        assert_eq!(small.const_accesses_per_thread, 12.0);
        // The host baseline is incremental: ~2 + log2(tips) path nodes per
        // thread, far below the device's full recompute for big trees.
        let small_profile = GridProfile::pruning(1_000, 11, 23, 12);
        assert_eq!(small_profile.host_ops(), 1_000.0 * 6.0 * PRUNING_FLOPS_PER_CELL);
        let large_profile = GridProfile::pruning(1_000, 131, 263, 132);
        assert!(
            large_profile.host_ops()
                < large_profile.logical_threads as f64 * large_profile.flops_per_thread
        );
    }

    #[test]
    fn stats_delta_and_mean_occupancy() {
        let a = DeviceStats {
            launches: 10,
            grid_batches: 4,
            logical_threads: 1_000,
            host_items: 100,
            modelled_device_us: 50.0,
            launch_overhead_us: 20.0,
            occupancy_sum: 2.5,
            saturated_launches: 1,
            modelled_host_ops: 1.0e6,
            measured_host_us: 30.0,
        };
        let b = DeviceStats {
            launches: 4,
            grid_batches: 1,
            logical_threads: 400,
            host_items: 40,
            modelled_device_us: 20.0,
            launch_overhead_us: 8.0,
            occupancy_sum: 1.0,
            saturated_launches: 0,
            modelled_host_ops: 4.0e5,
            measured_host_us: 12.0,
        };
        let d = a.delta(&b);
        assert_eq!(d.launches, 6);
        assert_eq!(d.grid_batches, 3);
        assert_eq!(d.logical_threads, 600);
        assert!((d.modelled_device_us - 30.0).abs() < 1e-12);
        assert!((d.mean_occupancy() - 0.25).abs() < 1e-12);
        assert_eq!(b.delta(&a).modelled_host_ops, 0.0);
        assert!(!d.is_empty());
        assert!(DeviceStats::default().is_empty());
        assert_eq!(DeviceStats::default().mean_occupancy(), 0.0);
    }

    #[test]
    fn device_report_derives_speedup_and_overhead() {
        let stats = DeviceStats {
            launches: 2,
            logical_threads: 2_000,
            modelled_device_us: 100.0,
            launch_overhead_us: 16.0,
            occupancy_sum: 1.0,
            modelled_host_ops: 3.0e6,
            ..DeviceStats::default()
        };
        let report = DeviceReport::new(DeviceSpec::kepler(), stats);
        assert!(report.modelled_host_us > 0.0);
        assert_eq!(report.modelled_device_us(), 100.0 + DEVICE_INIT_US);
        let expected = report.modelled_host_us / (100.0 + DEVICE_INIT_US);
        assert!((report.modelled_speedup() - expected).abs() < 1e-12);
        assert!((report.kernel_speedup() - report.modelled_host_us / 100.0).abs() < 1e-12);
        assert!(report.kernel_speedup() > report.modelled_speedup());
        assert!((report.launch_overhead_fraction() - 0.16).abs() < 1e-12);
        assert!((report.mean_occupancy() - 0.5).abs() < 1e-12);
        assert!(report.summary().contains("kepler"));
        // An empty report degrades to neutral ratios.
        let empty = DeviceReport::new(DeviceSpec::kepler(), DeviceStats::default());
        assert_eq!(empty.modelled_speedup(), 1.0);
        assert_eq!(empty.launch_overhead_fraction(), 0.0);
    }

    #[test]
    fn queue_accounts_submissions_per_thread() {
        // Run on a dedicated thread so concurrent tests cannot interleave
        // with this thread-local accounting.
        std::thread::spawn(|| {
            Queue::reset();
            assert!(Queue::stats().is_empty());
            let spec = DeviceSpec::kepler();
            let profile = GridProfile::uniform(64_000, 100.0);
            let out = Queue::submit(&spec, &profile, true, 12, || 7usize);
            assert_eq!(out, 7);
            let stats = Queue::stats();
            assert_eq!(stats.launches, 1);
            assert_eq!(stats.grid_batches, 1);
            assert_eq!(stats.logical_threads, 64_000);
            assert_eq!(stats.host_items, 12);
            assert!(stats.modelled_device_us > spec.launch_overhead_us);
            assert!(stats.occupancy_sum > 0.0);
            assert_eq!(stats.modelled_host_ops, 64_000.0 * 100.0);
            assert!(stats.measured_host_us >= 0.0);
            // take() drains.
            let taken = Queue::take();
            assert_eq!(taken.launches, 1);
            assert!(Queue::stats().is_empty());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn total_time_sums_individual_launches() {
        let m = model();
        let a = KernelLaunch::new(1_000, 100.0, 10.0, 5.0);
        let b = KernelLaunch::new(5_000, 50.0, 5.0, 2.0);
        let total = m.total_time_us(&[a, b]);
        assert!((total - (m.kernel_time_us(&a) + m.kernel_time_us(&b))).abs() < 1e-9);
        assert_eq!(m.total_time_us(&[]), 0.0);
    }
}
