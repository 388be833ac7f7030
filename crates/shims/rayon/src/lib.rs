//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access, so the real `rayon` package
//! cannot be fetched. This shim provides the subset of the parallel-iterator
//! API the workspace uses — `into_par_iter()` over `Range<usize>`,
//! `par_iter()` over slices, the `map` / `collect` / `sum` / `reduce` /
//! `for_each` adaptors and [`join`] — with **real data parallelism**.
//!
//! Every parallel call runs on one process-wide pool: `current_num_threads()
//! − 1` worker threads, started by the first call that can use them and kept
//! for the life of the process, plus the calling thread, which always works
//! too. A call splits its items into one contiguous chunk per thread;
//! workers and the caller claim chunks from a shared counter, every chunk
//! writes its own slot, and the slots are assembled in index order, so the
//! parallel path is deterministic and bit-identical to the serial path for
//! order-sensitive reductions. A call smaller than a worker's wake-up simply
//! finishes on the caller before any worker arrives.
//!
//! Unlike real rayon there is no work stealing: the pool runs one call at a
//! time, and a call made while it is busy — a nested `par_iter` inside a
//! `map`, or another thread dispatching at the same moment — runs inline on
//! its own thread. A panic in any item is re-raised on the caller once every
//! chunk has finished, and the pool stays usable.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The number of worker threads parallel operations will use (the number of
/// available hardware threads). Read once per process: on Linux the query
/// reads cgroup files, which costs more than a small dispatch.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Run two closures, potentially in parallel, returning both results: `a`
/// runs on the calling thread while `b` waits on the pool for a free worker
/// (or for the caller, once `a` is done).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let b = Mutex::new(Some(b));
    let rb = Mutex::new(None);
    let ra = pool::run(
        1,
        &|_| {
            if let Some(b) = lock(&b).take() {
                let value = b();
                *lock(&rb) = Some(value);
            }
        },
        a,
    );
    let rb = rb.into_inner().unwrap_or_else(PoisonError::into_inner);
    (ra, rb.expect("the pool runs every chunk before it returns"))
}

/// Lock `mutex`, ignoring poison: no holder in this crate can panic while it
/// holds a guard, and every update leaves the data valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// A data source that can be evaluated independently at each index — the
/// execution model behind every parallel iterator in this shim.
pub trait ParallelIterator: Sized + Sync {
    /// The item produced at each index.
    type Item: Send;

    /// Number of items.
    fn par_len(&self) -> usize;

    /// Produce the item at `index`. Must be safe to call concurrently from
    /// multiple threads (enforced by the `Sync` supertrait).
    fn par_get(&self, index: usize) -> Self::Item;

    /// Map each item through `f`.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        Map { base: self, f }
    }

    /// Execute and collect all items in index order.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(run_in_chunks(&self))
    }

    /// Execute and sum the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        run_in_chunks(&self).into_iter().sum()
    }

    /// Execute and reduce the items with `op`, starting from `identity()`.
    /// `op` must be associative for the result to be well defined, as with
    /// real rayon.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        run_in_chunks(&self).into_iter().fold(identity(), &op)
    }

    /// Execute `f` on every item for its side effects.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _ = self.map(f).collect::<Vec<()>>();
    }
}

/// Evaluate every index of `source` on the pool, one contiguous chunk per
/// thread, and return the items in index order.
fn run_in_chunks<T: ParallelIterator>(source: &T) -> Vec<T::Item> {
    let n = source.par_len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return (0..n).map(|i| source.par_get(i)).collect();
    }
    let chunk = n.div_ceil(threads);
    let slots: Vec<Mutex<Vec<T::Item>>> =
        (0..n.div_ceil(chunk)).map(|_| Mutex::new(Vec::new())).collect();
    pool::run(
        slots.len(),
        &|c| {
            let items = (c * chunk..((c + 1) * chunk).min(n)).map(|i| source.par_get(i)).collect();
            *lock(&slots[c]) = items;
        },
        || (),
    );
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

/// The process-wide worker pool behind every parallel call.
///
/// The pool owns no results: a dispatch publishes a borrowed chunk body and a
/// chunk count, workers and the caller claim chunk indices from an atomic
/// counter, and the body writes each chunk's output into caller-owned slots.
#[allow(unsafe_code)]
mod pool {
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, Once, PoisonError};

    use crate::lock;

    /// A chunk body: called once for each chunk index of a dispatch.
    type Body<'a> = dyn Fn(usize) + Sync + 'a;

    /// A caught panic payload.
    type Panic = Box<dyn Any + Send>;

    /// How many times a caller polls for a worker's last chunk before it
    /// parks: only long enough to skip the park/wake round trip when that
    /// chunk is about to finish.
    const SPINS: u32 = 1 << 10;

    /// Worker threads to start for `threads` hardware threads: the caller of
    /// every dispatch works too, so one fewer.
    pub(crate) fn workers_for(threads: usize) -> usize {
        threads.saturating_sub(1)
    }

    /// One published dispatch. Workers hold it through an `Arc`, so a worker
    /// that wakes after the dispatch returned still touches live counters;
    /// it finds `next >= n` and never calls `body`.
    struct Job {
        body: &'static Body<'static>,
        n: usize,
        /// The next unclaimed chunk index.
        next: AtomicUsize,
        /// Chunks finished, panicked or not.
        done: AtomicUsize,
        /// The first panic payload; also the lock the caller parks on.
        panic: Mutex<Option<Panic>>,
        /// Signalled by whoever finishes the last chunk.
        finished: Condvar,
    }

    impl Job {
        /// Claim and run chunks until none are left.
        fn work(&self) {
            loop {
                // Relaxed: the counter only hands out indices; the job itself
                // reached this thread through the pool's mutex.
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.n {
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
                    let mut first = lock(&self.panic);
                    if first.is_none() {
                        *first = Some(payload);
                    } else {
                        // Dropping a payload runs arbitrary code that may
                        // panic again, outside any catch; leak it instead.
                        std::mem::forget(payload);
                    }
                }
                // Release pairs with the Acquire loads in `wait`: the chunk's
                // writes are visible to the caller once it sees the count.
                if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                    let _guard = lock(&self.panic);
                    self.finished.notify_all();
                }
            }
        }

        /// Block until every chunk has finished.
        fn wait(&self) {
            for _ in 0..SPINS {
                if self.done.load(Ordering::Acquire) == self.n {
                    return;
                }
                std::hint::spin_loop();
            }
            let mut guard = lock(&self.panic);
            while self.done.load(Ordering::Acquire) < self.n {
                guard = self.finished.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// The job slot workers watch. `epoch` counts publications, so a worker
    /// takes each job at most once.
    struct Slot {
        epoch: u64,
        job: Option<Arc<Job>>,
    }

    /// Set while a dispatch owns the pool.
    static BUSY: AtomicBool = AtomicBool::new(false);
    static SLOT: Mutex<Slot> = Mutex::new(Slot { epoch: 0, job: None });
    /// Signalled on every publication; idle workers park on it.
    static WAKE: Condvar = Condvar::new();
    static START: Once = Once::new();
    /// Worker threads started so far (only ever by `START`).
    static SPAWNED: AtomicUsize = AtomicUsize::new(0);

    /// Run `first` and then `body(i)` for every chunk `i` in `0..n`: the
    /// chunks on the pool's workers and the calling thread, `first` on the
    /// calling thread. Returns `first`'s result once every chunk has
    /// finished. A panic — `first`'s, else the first chunk's to be caught —
    /// is re-raised here, but only after every chunk has finished.
    ///
    /// With one hardware thread, or while another dispatch owns the pool,
    /// everything runs inline on the caller, in order.
    pub(crate) fn run<R>(n: usize, body: &Body<'_>, first: impl FnOnce() -> R) -> R {
        let threads = crate::current_num_threads();
        if threads > 1 {
            START.call_once(|| start(workers_for(threads)));
        }
        if threads <= 1
            || BUSY.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err()
        {
            let value = first();
            (0..n).for_each(body);
            return value;
        }
        // SAFETY: the pool's workers are detached, so the body they call must
        // be `'static`; this erases the borrow's lifetime. Workers call
        // `body` only for a chunk index they claimed below `n`, and each such
        // call increments `done` when it ends, panicking or not. This
        // function returns or unwinds only after `job.wait()` has seen
        // `done == n`: `first` and every chunk body run under
        // `catch_unwind`, and nothing between publishing the job and that
        // wait can panic (poisoned locks are recovered). So no call of
        // `body` outlives the borrow. A worker that picks the job up later
        // reads `next >= n` through its own `Arc` and never dereferences
        // `body`.
        let body = unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };
        let job = Arc::new(Job {
            body,
            n,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            finished: Condvar::new(),
        });
        {
            let mut slot = lock(&SLOT);
            slot.epoch += 1;
            slot.job = Some(Arc::clone(&job));
        }
        WAKE.notify_all();
        let value = catch_unwind(AssertUnwindSafe(first));
        job.work();
        job.wait();
        lock(&SLOT).job = None;
        BUSY.store(false, Ordering::Release);
        let panic = lock(&job.panic).take();
        match (value, panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }

    /// Start the pool's workers. They are detached and live as long as the
    /// process, like rayon's global pool: parked on `WAKE` when idle, and a
    /// panic never reaches them (every chunk runs under `catch_unwind`).
    /// A worker that fails to start costs only parallelism, since the caller
    /// claims every chunk no worker takes.
    fn start(workers: usize) {
        for i in 0..workers {
            let started = std::thread::Builder::new().name(format!("rayon-shim-{i}")).spawn(worker);
            if started.is_ok() {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A worker's life: wait for a publication, help with its job, repeat.
    fn worker() {
        let mut seen = 0;
        loop {
            let job = {
                let mut slot = lock(&SLOT);
                while slot.epoch == seen {
                    slot = WAKE.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                seen = slot.epoch;
                slot.job.clone()
            };
            if let Some(job) = job {
                job.work();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn workers_for_leaves_the_caller_one_thread() {
            assert_eq!(workers_for(1), 0);
            assert_eq!(workers_for(2), 1);
            assert_eq!(workers_for(64), 63);
        }

        #[test]
        fn workers_start_once() {
            for round in 0..1_000 {
                let out: Vec<usize> = crate::run_in_chunks(&crate::RangeParIter { range: 0..32 });
                assert_eq!(out[31], 31, "round {round}");
            }
            let expected = workers_for(crate::current_num_threads());
            assert_eq!(SPAWNED.load(Ordering::Relaxed), expected);
        }
    }
}

/// Conversion into a parallel iterator (`(0..n).into_par_iter()`,
/// `vec.into_par_iter()` via references).
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The item type.
    type Item: Send;

    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` over a borrowed collection, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The item type (a reference into the collection).
    type Item: Send + 'data;

    /// Borrowing conversion into a parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoParallelIterator,
{
    type Iter = <&'data I as IntoParallelIterator>::Iter;
    type Item = <&'data I as IntoParallelIterator>::Item;

    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct RangeParIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeParIter {
    type Item = usize;

    fn par_len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    fn par_get(&self, index: usize) -> usize {
        self.range.start + index
    }
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeParIter;
    type Item = usize;

    fn into_par_iter(self) -> RangeParIter {
        RangeParIter { range: self }
    }
}

/// Parallel iterator over slice elements.
pub struct SliceParIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for SliceParIter<'data, T> {
    type Item = &'data T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn par_get(&self, index: usize) -> &'data T {
        &self.slice[index]
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Iter = SliceParIter<'data, T>;
    type Item = &'data T;

    fn into_par_iter(self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
    type Iter = SliceParIter<'data, T>;
    type Item = &'data T;

    fn into_par_iter(self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self.as_slice() }
    }
}

/// The `map` adaptor.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, U> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    U: Send,
    F: Fn(B::Item) -> U + Sync,
{
    type Item = U;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn par_get(&self, index: usize) -> U {
        (self.f)(self.base.par_get(index))
    }
}

/// Mirror of `rayon::iter` so fully-qualified paths keep working.
pub mod iter {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, Map, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let out: Vec<usize> = (0..1_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out.len(), 1_000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn slice_par_iter_matches_serial() {
        let data: Vec<f64> = (0..500).map(|i| i as f64 * 0.25).collect();
        let parallel: Vec<f64> = data.par_iter().map(|x| x.sqrt()).collect();
        let serial: Vec<f64> = data.iter().map(|x| x.sqrt()).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sum_and_reduce_agree_with_serial() {
        let s: f64 = (0..10_000).into_par_iter().map(|i| i as f64).sum();
        assert_eq!(s, (10_000.0 * 9_999.0) / 2.0);
        let m = (0..10_000)
            .into_par_iter()
            .map(|i| ((i as f64) * 0.1).sin())
            .reduce(|| f64::NEG_INFINITY, f64::max);
        let serial =
            (0..10_000).map(|i| ((i as f64) * 0.1).sin()).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(m, serial);
    }

    #[test]
    fn empty_inputs_work() {
        let out: Vec<usize> = (0..0).into_par_iter().collect();
        assert!(out.is_empty());
        let s: f64 = (0..0).into_par_iter().map(|_| 1.0f64).sum();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn join_runs_both_sides() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
