//! Data-parallel execution backends.
//!
//! The samplers express their bulk work (generate N proposals, score P site
//! patterns, evaluate M posterior terms) as pure per-item closures; the
//! [`Backend`] decides whether that work runs serially or on the rayon
//! thread pool. This mirrors the structure of the CUDA implementation, where
//! the same loops are expressed as kernels with one thread per item.
//!
//! [`Backend::Rayon`] dispatches onto one persistent, process-wide pool (the
//! rayon shim's: `threads() − 1` workers started on first use, plus the
//! calling thread). A dispatch costs a job handoff, not a thread spawn, so
//! the two small grids of every GMH iteration are cheap; a dispatch made
//! while the pool is busy (a nested map, or another session dispatching at
//! the same moment) runs inline on its caller. Either way results are
//! gathered in index order and match [`Backend::Serial`] bit for bit.
//! [`Backend::map_mut`] is the exception: it runs one scoped thread per
//! item, because its items (serve slots, ensemble chains) must make
//! progress concurrently.
//!
//! Backends are selected by value (or parsed from CLI-style names) and
//! passed down to whatever owns the loop — the seam a device backend plugs
//! into later:
//!
//! ```
//! use exec::Backend;
//!
//! // Parse a user-facing name, inspect it, and run a data-parallel map.
//! let backend: Backend = "serial".parse().unwrap();
//! assert_eq!(backend, Backend::Serial);
//! assert_eq!(backend.threads(), 1);
//! let squares = backend.map_indexed(4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//!
//! // The default backend is the rayon thread pool; results are identical.
//! assert_eq!(Backend::default(), Backend::Rayon);
//! assert_eq!(Backend::Rayon.map_indexed(4, |i| i * i), squares);
//! ```

use std::fmt;
use std::str::FromStr;

use rayon::prelude::*;

use crate::device::{DeviceSpec, GridProfile, Queue};

/// Modelled arithmetic charged per item for submissions that arrive without
/// a [`GridProfile`] (plain `map_indexed`/`map_slice`/reductions on the
/// device backend): the order of a small per-item task. Profiled grid
/// submissions — the likelihood hot path — never use this.
const UNPROFILED_ITEM_FLOPS: f64 = 1_000.0;

/// Where data-parallel work runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Backend {
    /// Run everything on the calling thread.
    Serial,
    /// Run on the rayon shim's persistent thread pool.
    #[default]
    Rayon,
    /// Route every dispatch through the simulated accelerator command queue
    /// ([`crate::device::Queue`]): submissions are coalesced into batched
    /// kernel launches, executed synchronously on the host (bit-identical to
    /// [`Backend::Serial`]), and charged against this [`DeviceSpec`]'s cost
    /// model. The dress rehearsal for a real GPU backend behind the same
    /// seam.
    Device(DeviceSpec),
}

impl fmt::Display for Backend {
    /// CLI-style name. Round-trips through [`Backend::from_str`] for
    /// `Serial`, `Rayon` and the device *presets*; a device backend over a
    /// custom [`DeviceSpec`] renders as plain `"device"`, which re-parses to
    /// the Kepler preset — custom specs are a programmatic-API-only
    /// construction and have no spellable name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Serial => f.write_str("serial"),
            Backend::Rayon => f.write_str("rayon"),
            Backend::Device(spec) => match spec.preset_name() {
                Some(name) => write!(f, "device:{name}"),
                None => f.write_str("device"),
            },
        }
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parse a CLI-style backend name (case insensitive): `serial`, `rayon`,
    /// `device` (Kepler-class default) or `device:<preset>`
    /// (`device:kepler` / `device:modern`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "serial" => Ok(Backend::Serial),
            "rayon" => Ok(Backend::Rayon),
            name if name == "device" || name.starts_with("device:") => {
                let preset = name.strip_prefix("device:").unwrap_or("kepler");
                let spec = DeviceSpec::from_preset(preset).ok_or_else(|| {
                    format!("unknown device preset {preset:?} (expected \"kepler\" or \"modern\")")
                })?;
                Ok(Backend::Device(spec))
            }
            other => Err(format!(
                "unknown backend {other:?} (expected \"serial\", \"rayon\" or \"device[:preset]\")"
            )),
        }
    }
}

impl Backend {
    /// The device backend over `spec`. The spelled constructor every driver
    /// uses: `Backend::device(DeviceSpec::kepler())`.
    pub fn device(spec: DeviceSpec) -> Backend {
        Backend::Device(spec)
    }

    /// The device spec this backend dispatches through, when it is the
    /// device backend.
    pub fn device_spec(&self) -> Option<DeviceSpec> {
        match self {
            Backend::Device(spec) => Some(*spec),
            _ => None,
        }
    }

    /// Whether this is the device backend.
    pub fn is_device(&self) -> bool {
        self.device_spec().is_some()
    }

    /// The number of *host* worker threads this backend will use. The device
    /// backend executes its queue on the calling thread (the simulated
    /// device's parallelism lives in the cost model, not in host threads).
    pub fn threads(&self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::Rayon => rayon::current_num_threads(),
            Backend::Device(_) => 1,
        }
    }

    /// Map `f` over `0..n`, collecting results in index order.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync + Send,
    {
        match self {
            Backend::Serial => (0..n).map(f).collect(),
            Backend::Rayon => (0..n).into_par_iter().map(f).collect(),
            Backend::Device(spec) => Queue::submit(
                spec,
                &GridProfile::uniform(n, UNPROFILED_ITEM_FLOPS),
                false,
                n,
                || (0..n).map(f).collect(),
            ),
        }
    }

    /// Map `f` over the row-major `(row, col)` cells of a `rows × cols` grid
    /// in **one** flattened dispatch, collecting results in row-major order
    /// (`result[row * cols + col]`).
    ///
    /// This is the helper behind flattened (locus × proposal) likelihood
    /// batching: scheduling the full grid as a single `rows * cols`-item map
    /// keeps every worker busy even when one dimension is small, where a
    /// per-row loop of `cols`-item dispatches would leave threads idle at
    /// each row boundary.
    ///
    /// ```
    /// use exec::Backend;
    /// let grid = Backend::Serial.map_grid(2, 3, |row, col| 10 * row + col);
    /// assert_eq!(grid, vec![0, 1, 2, 10, 11, 12]);
    /// ```
    pub fn map_grid<U, F>(&self, rows: usize, cols: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, usize) -> U + Sync + Send,
    {
        self.map_grid_profiled(None, rows, cols, f)
    }

    /// [`Backend::map_grid`] with an optional [`GridProfile`] describing the
    /// kernel launch the grid *stands for*. `Serial` and `Rayon` ignore the
    /// profile entirely (it never changes results); the device backend uses
    /// it to account the submission as one batched launch of
    /// `profile.logical_threads` device threads — the seam through which the
    /// likelihood engine reports the paper's one-thread-per-(proposal, site)
    /// mapping, whose thread count (not the closure-grid size) drives
    /// occupancy and latency hiding. Without a profile the device backend
    /// charges a nominal per-item cost.
    pub fn map_grid_profiled<U, F>(
        &self,
        profile: Option<&GridProfile>,
        rows: usize,
        cols: usize,
        f: F,
    ) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, usize) -> U + Sync + Send,
    {
        if rows == 0 || cols == 0 {
            return Vec::new();
        }
        match self {
            Backend::Device(spec) => {
                let n = rows * cols;
                let default = GridProfile::uniform(n, UNPROFILED_ITEM_FLOPS);
                let profile = profile.copied().unwrap_or(default);
                Queue::submit(spec, &profile, true, n, move || {
                    (0..n).map(|i| f(i / cols, i % cols)).collect()
                })
            }
            _ => self.map_indexed(rows * cols, move |i| f(i / cols, i % cols)),
        }
    }

    /// Map `f` over the elements of a mutable slice, collecting results in
    /// index order. Each element is visited by exactly one worker, so `f` may
    /// freely mutate it — this is the dispatch shape of *chain sharding*,
    /// where every item is a whole MCMC chain advancing by one kernel
    /// iteration and the per-chain state (sampler, RNG stream) is owned by
    /// the item.
    ///
    /// [`Backend::Serial`] visits the items round-robin on the calling
    /// thread; [`Backend::Rayon`] runs one scoped thread per item
    /// (`std::thread::scope`), which is the right grain for a handful of
    /// coarse chains (each item is thousands of likelihood evaluations, so
    /// spawn cost is noise). Because every item owns its state, the two
    /// backends produce bit-identical results.
    ///
    /// ```
    /// use exec::Backend;
    /// let mut counters = vec![0u64; 4];
    /// let doubled = Backend::Rayon.map_mut(&mut counters, |i, c| {
    ///     *c += i as u64;
    ///     *c * 2
    /// });
    /// assert_eq!(counters, vec![0, 1, 2, 3]);
    /// assert_eq!(doubled, vec![0, 2, 4, 6]);
    /// ```
    pub fn map_mut<T, U, F>(&self, items: &mut [T], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut T) -> U + Sync,
    {
        match self {
            Backend::Serial => items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect(),
            // One simulated device shared by every item: chain-level dispatch
            // serialises through the command queue on the calling thread.
            // This is host-side orchestration, not device work — the device
            // sees only the grids the items themselves submit — so no launch
            // is charged here (and the items' own submissions stay on this
            // thread, where the queue accounts them).
            Backend::Device(_) => {
                items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect()
            }
            Backend::Rayon => std::thread::scope(|scope| {
                let f = &f;
                let handles: Vec<_> = items
                    .iter_mut()
                    .enumerate()
                    .map(|(i, item)| scope.spawn(move || f(i, item)))
                    .collect();
                // mpcgs-analyze: allow(r1, reason = "join() fails only if the worker panicked; re-raising on the dispatching thread beats silently dropping that shard's writes — the serve layer isolates faults per job above this seam")
                handles.into_iter().map(|h| h.join().expect("map_mut worker panicked")).collect()
            }),
        }
    }

    /// Map `f` over a slice, collecting results in order.
    pub fn map_slice<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync + Send,
    {
        match self {
            Backend::Serial => items.iter().map(f).collect(),
            Backend::Rayon => items.par_iter().map(f).collect(),
            Backend::Device(spec) => Queue::submit(
                spec,
                &GridProfile::uniform(items.len(), UNPROFILED_ITEM_FLOPS),
                false,
                items.len(),
                || items.iter().map(f).collect(),
            ),
        }
    }

    /// Sum `f(i)` over `0..n` (an additive reduction, the operation the
    /// paper implements with warp shuffles).
    pub fn sum_indexed<F>(&self, n: usize, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync + Send,
    {
        match self {
            Backend::Serial => (0..n).map(f).sum(),
            Backend::Rayon => (0..n).into_par_iter().map(f).sum(),
            Backend::Device(spec) => Queue::submit(
                spec,
                &GridProfile::uniform(n, UNPROFILED_ITEM_FLOPS),
                false,
                n,
                || (0..n).map(f).sum(),
            ),
        }
    }

    /// Maximum of `f(i)` over `0..n` (the normalising reduction used by the
    /// posterior kernel before its additive reduction, Section 5.2.3).
    pub fn max_indexed<F>(&self, n: usize, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync + Send,
    {
        match self {
            Backend::Serial => (0..n).map(f).fold(f64::NEG_INFINITY, f64::max),
            Backend::Rayon => (0..n).into_par_iter().map(f).reduce(|| f64::NEG_INFINITY, f64::max),
            Backend::Device(spec) => Queue::submit(
                spec,
                &GridProfile::uniform(n, UNPROFILED_ITEM_FLOPS),
                false,
                n,
                || (0..n).map(f).fold(f64::NEG_INFINITY, f64::max),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order() {
        for backend in [Backend::Serial, Backend::Rayon] {
            let out = backend.map_indexed(100, |i| i * i);
            assert_eq!(out.len(), 100);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn map_grid_flattens_row_major_on_both_backends() {
        for backend in [Backend::Serial, Backend::Rayon] {
            let grid = backend.map_grid(7, 13, |r, c| (r, c));
            assert_eq!(grid.len(), 7 * 13);
            for (i, &(r, c)) in grid.iter().enumerate() {
                assert_eq!((r, c), (i / 13, i % 13));
            }
            assert!(backend.map_grid(0, 13, |r, c| r + c).is_empty());
            assert!(backend.map_grid(7, 0, |r, c| r + c).is_empty());
        }
    }

    #[test]
    fn map_mut_mutates_every_item_once_on_both_backends() {
        for backend in [Backend::Serial, Backend::Rayon] {
            let mut items: Vec<usize> = (0..37).collect();
            let out = backend.map_mut(&mut items, |i, item| {
                *item += 100;
                *item + i
            });
            assert_eq!(items, (100..137).collect::<Vec<_>>());
            assert_eq!(out, (0..37).map(|i| 100 + 2 * i).collect::<Vec<_>>());
            let mut empty: Vec<usize> = vec![];
            assert!(backend.map_mut(&mut empty, |_, _| ()).is_empty());
        }
    }

    #[test]
    fn map_slice_matches_serial_reference() {
        let items: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        let serial = Backend::Serial.map_slice(&items, |x| x.sin());
        let parallel = Backend::Rayon.map_slice(&items, |x| x.sin());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn reductions_agree_between_backends() {
        let f = |i: usize| ((i as f64) * 0.37).cos();
        let s1 = Backend::Serial.sum_indexed(5_000, f);
        let s2 = Backend::Rayon.sum_indexed(5_000, f);
        assert!((s1 - s2).abs() < 1e-9);
        let m1 = Backend::Serial.max_indexed(5_000, f);
        let m2 = Backend::Rayon.max_indexed(5_000, f);
        assert_eq!(m1, m2);
    }

    #[test]
    fn empty_inputs_are_handled() {
        assert!(Backend::Rayon.map_indexed(0, |i| i).is_empty());
        assert_eq!(Backend::Serial.sum_indexed(0, |_| 1.0), 0.0);
        assert_eq!(Backend::Rayon.max_indexed(0, |_| 1.0), f64::NEG_INFINITY);
        let empty: Vec<u8> = vec![];
        assert!(Backend::Serial.map_slice(&empty, |&x| x).is_empty());
    }

    #[test]
    fn thread_counts_are_sensible() {
        assert_eq!(Backend::Serial.threads(), 1);
        assert!(Backend::Rayon.threads() >= 1);
        assert_eq!(Backend::default(), Backend::Rayon);
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in [Backend::Serial, Backend::Rayon] {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!("SERIAL".parse::<Backend>().unwrap(), Backend::Serial);
        assert!("cuda".parse::<Backend>().is_err());
    }

    #[test]
    fn non_device_backends_report_no_spec() {
        assert_eq!(Backend::Serial.device_spec(), None);
        assert_eq!(Backend::Rayon.device_spec(), None);
        assert!(!Backend::Rayon.is_device());
    }

    mod device {
        use super::*;
        use crate::device::{DeviceSpec, Queue};

        #[test]
        fn device_backend_parses_displays_and_exposes_its_spec() {
            let kepler = "device".parse::<Backend>().unwrap();
            assert_eq!(kepler, Backend::device(DeviceSpec::kepler()));
            assert_eq!(kepler.to_string(), "device:kepler");
            assert_eq!(kepler.to_string().parse::<Backend>().unwrap(), kepler);
            let modern = "device:modern".parse::<Backend>().unwrap();
            assert_eq!(modern.device_spec(), Some(DeviceSpec::modern()));
            assert_eq!(modern.to_string().parse::<Backend>().unwrap(), modern);
            assert!("device:tpu".parse::<Backend>().is_err());
            assert!(kepler.is_device());
            assert_eq!(kepler.threads(), 1);
        }

        #[test]
        fn device_dispatch_is_bit_identical_to_serial_and_accounted() {
            // A dedicated thread isolates the thread-local queue accounting.
            std::thread::spawn(|| {
                let device = Backend::device(DeviceSpec::kepler());
                Queue::reset();

                let f = |i: usize| ((i as f64) * 0.37).sin();
                assert_eq!(device.map_indexed(100, f), Backend::Serial.map_indexed(100, f));
                let grid = |r: usize, c: usize| ((r * 31 + c) as f64).cos();
                assert_eq!(device.map_grid(7, 13, grid), Backend::Serial.map_grid(7, 13, grid));
                let profile = GridProfile::uniform(7 * 13 * 100, 64.0);
                assert_eq!(
                    device.map_grid_profiled(Some(&profile), 7, 13, grid),
                    Backend::Serial.map_grid(7, 13, grid)
                );
                let items: Vec<f64> = (0..50).map(|i| i as f64).collect();
                assert_eq!(
                    device.map_slice(&items, |x| x.sqrt()),
                    Backend::Serial.map_slice(&items, |x| x.sqrt())
                );
                assert_eq!(device.sum_indexed(500, f), Backend::Serial.sum_indexed(500, f));
                assert_eq!(device.max_indexed(500, f), Backend::Serial.max_indexed(500, f));
                let mut a: Vec<usize> = (0..9).collect();
                let mut b = a.clone();
                assert_eq!(
                    device.map_mut(&mut a, |i, x| {
                        *x += i;
                        *x
                    }),
                    Backend::Serial.map_mut(&mut b, |i, x| {
                        *x += i;
                        *x
                    })
                );
                assert_eq!(a, b);

                let stats = Queue::stats();
                // One launch per dispatch except map_mut (host orchestration).
                assert_eq!(stats.launches, 6);
                assert_eq!(stats.grid_batches, 2);
                // The profiled grid was accounted at its logical size.
                assert_eq!(
                    stats.logical_threads,
                    (100 + 7 * 13 + 7 * 13 * 100 + 50 + 500 + 500) as u64
                );
                assert_eq!(stats.host_items, (100 + 7 * 13 + 7 * 13 + 50 + 500 + 500) as u64);
            })
            .join()
            .unwrap();
        }

        #[test]
        fn empty_device_dispatches_record_nothing() {
            std::thread::spawn(|| {
                let device = Backend::device(DeviceSpec::modern());
                Queue::reset();
                assert!(device.map_grid(0, 13, |r, c| r + c).is_empty());
                assert!(device.map_grid(13, 0, |r, c| r + c).is_empty());
                // Every dispatch entry point shares the no-op guard, not
                // just the grid path — an empty map or reduction must not
                // be charged as a kernel launch.
                assert!(device.map_indexed(0, |i| i).is_empty());
                let empty: Vec<f64> = vec![];
                assert!(device.map_slice(&empty, |&x| x).is_empty());
                assert_eq!(device.sum_indexed(0, |_| 1.0), 0.0);
                assert_eq!(device.max_indexed(0, |_| 1.0), f64::NEG_INFINITY);
                assert!(Queue::stats().is_empty());
            })
            .join()
            .unwrap();
        }
    }
}
