//! The shim's worker pool, driven through the public parallel-iterator API:
//! order and bit-identity against the serial loop, panic propagation,
//! nested and concurrent dispatches. Inputs are seeded and small.

use rayon::prelude::*;

/// A seeded, index-addressed input value (splitmix64 mapped into [0, 1)).
fn value(seed: u64, i: usize) -> f64 {
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64
}

/// An order-sensitive per-item computation.
fn work(seed: u64, i: usize) -> f64 {
    (value(seed, i) * 7.0).sin() + (1.0 + value(seed, i)).ln()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn collect_sum_and_reduce_are_bit_identical_to_serial() {
    let threads = rayon::current_num_threads();
    for n in [0, 1, 2, threads - 1, 1_000, 10_007] {
        let seed = 17 + n as u64;
        let serial: Vec<f64> = (0..n).map(|i| work(seed, i)).collect();
        let parallel: Vec<f64> = (0..n).into_par_iter().map(|i| work(seed, i)).collect();
        assert_eq!(bits(&parallel), bits(&serial), "collect, n = {n}");

        let data: Vec<f64> = (0..n).map(|i| value(seed, i)).collect();
        let mapped: Vec<f64> = data.par_iter().map(|x| x.sqrt()).collect();
        let expected: Vec<f64> = data.iter().map(|x| x.sqrt()).collect();
        assert_eq!(bits(&mapped), bits(&expected), "slice collect, n = {n}");

        let sum: f64 = (0..n).into_par_iter().map(|i| work(seed, i)).sum();
        assert_eq!(sum.to_bits(), serial.iter().sum::<f64>().to_bits(), "sum, n = {n}");

        let max =
            (0..n).into_par_iter().map(|i| work(seed, i)).reduce(|| f64::NEG_INFINITY, f64::max);
        let serial_max = serial.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max.to_bits(), serial_max.to_bits(), "reduce, n = {n}");
    }
}

#[test]
fn for_each_visits_every_item_once() {
    let hits: Vec<std::sync::atomic::AtomicUsize> =
        (0..1_000).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
    (0..1_000).into_par_iter().for_each(|i| {
        hits[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
}

#[test]
fn a_panic_is_reraised_with_its_payload_and_the_pool_recovers() {
    let caught = std::panic::catch_unwind(|| {
        (0..1_000)
            .into_par_iter()
            .map(|i| {
                if i == 777 {
                    std::panic::panic_any(i);
                }
                i
            })
            .collect::<Vec<usize>>()
    });
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(payload.downcast_ref::<usize>(), Some(&777));

    let caught = std::panic::catch_unwind(|| rayon::join(|| 1, || -> u8 { panic!("right side") }));
    let payload = caught.expect_err("join re-raises the second closure's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"right side"));

    let out: Vec<usize> = (0..1_000).into_par_iter().map(|i| i + 1).collect();
    assert_eq!(out, (1..=1_000).collect::<Vec<_>>());
}

#[test]
fn join_runs_its_first_closure_on_the_caller() {
    let caller = std::thread::current().id();
    let (a, b) = rayon::join(|| std::thread::current().id(), || "b");
    assert_eq!(a, caller);
    assert_eq!(b, "b");
}

#[test]
fn nested_par_iter_matches_serial() {
    let rows: Vec<Vec<f64>> = (0..64)
        .into_par_iter()
        .map(|r| (0..200).into_par_iter().map(|c| work(r as u64, c)).collect())
        .collect();
    for (r, row) in rows.iter().enumerate() {
        let serial: Vec<f64> = (0..200).map(|c| work(r as u64, c)).collect();
        assert_eq!(bits(row), bits(&serial), "row {r}");
    }
    let (a, b) = rayon::join(
        || (0..500).into_par_iter().map(|i| work(1, i)).sum::<f64>(),
        || (0..500).into_par_iter().map(|i| work(2, i)).sum::<f64>(),
    );
    assert_eq!(a.to_bits(), (0..500).map(|i| work(1, i)).sum::<f64>().to_bits());
    assert_eq!(b.to_bits(), (0..500).map(|i| work(2, i)).sum::<f64>().to_bits());
}

#[test]
fn concurrent_dispatches_match_serial() {
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..500u64 {
                    let seed = t * 1_000 + round;
                    let n = 1 + (round as usize * 7) % 97;
                    let serial: Vec<f64> = (0..n).map(|i| work(seed, i)).collect();
                    let parallel: Vec<f64> =
                        (0..n).into_par_iter().map(|i| work(seed, i)).collect();
                    assert_eq!(bits(&parallel), bits(&serial), "thread {t}, round {round}");
                }
            });
        }
    });
}
