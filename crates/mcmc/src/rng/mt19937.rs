//! MT19937 Mersenne Twister (Matsumoto & Nishimura 1998).
//!
//! This is the standard 32-bit variant with the canonical parameters
//! (n = 624, m = 397, r = 31, a = 0x9908B0DF and the usual tempering
//! constants). The reference initialisation-by-seed routine (`init_genrand`)
//! and initialisation-by-array routine (`init_by_array`) are both provided so
//! that the generator is bit-compatible with the reference C implementation;
//! the unit tests below check the first outputs against the published
//! reference sequence for the standard test seed array.
//!
//! # Lazy first block
//!
//! Seeding by a 32-bit value is lazy. [`Mt19937::reseed`] stores only
//! `state[0]`; the first block then initialises and twists entries on
//! demand. Output `i < 624` twists entry `i` in place, which reads the
//! initialised entries up to `i + 397`, so a stream that emits a handful of
//! outputs runs about 400 steps of the seeding recurrence instead of 624 plus
//! a whole 624-entry twist. In-order twisting reads exactly the values the
//! eager block twist reads, so the outputs, [`Mt19937::position`],
//! [`Mt19937::discard`] and `Clone` are bit-identical to eager seeding. Once
//! the seeding recurrence is complete the rest of the first block is twisted
//! at once, and every later block is the ordinary whole-block twist.

use rand::{Error, RngCore, SeedableRng};

const N: usize = 624;
const M: usize = 397;
const MATRIX_A: u32 = 0x9908_b0df;
const UPPER_MASK: u32 = 0x8000_0000;
const LOWER_MASK: u32 = 0x7fff_ffff;

/// The MT19937 Mersenne Twister pseudo-random number generator.
#[derive(Clone)]
pub struct Mt19937 {
    state: [u32; N],
    index: usize,
    /// Entries of the current block that are twisted and may be emitted:
    /// `N` except inside a lazily seeded first block.
    ready: usize,
    /// Entries of `state` that hold their seeding-recurrence value (or its
    /// twist): `N` except inside a lazily seeded first block.
    init_upto: usize,
    /// Raw 32-bit outputs emitted since the last (re)seed. Every consumer
    /// path (`next_f64`, `next_u64`, `fill_bytes`, …) funnels through
    /// [`Mt19937::next_u32_raw`], so this single counter is an exact stream
    /// position: reseeding an identically seeded generator and discarding
    /// `position()` outputs reproduces the generator bit for bit.
    emitted: u64,
}

impl std::fmt::Debug for Mt19937 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt19937")
            .field("index", &self.index)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl Mt19937 {
    /// Create a generator from a 32-bit seed using the reference
    /// `init_genrand` routine.
    pub fn new(seed: u32) -> Self {
        let mut mt = Mt19937 { state: [0u32; N], index: 0, ready: 0, init_upto: 1, emitted: 0 };
        mt.reseed(seed);
        mt
    }

    /// Create a generator from a seed array using the reference
    /// `init_by_array` routine.
    pub fn from_seed_array(key: &[u32]) -> Self {
        let mut mt = Mt19937::new(19_650_218);
        // The key mixing below reads the whole seeded state.
        mt.init_through(N);
        let mut i: usize = 1;
        let mut j: usize = 0;
        let mut k = N.max(key.len());
        while k > 0 {
            let prev = mt.state[i - 1];
            mt.state[i] = (mt.state[i] ^ ((prev ^ (prev >> 30)).wrapping_mul(1_664_525)))
                .wrapping_add(key[j])
                .wrapping_add(j as u32);
            i += 1;
            j += 1;
            if i >= N {
                mt.state[0] = mt.state[N - 1];
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
            k -= 1;
        }
        k = N - 1;
        while k > 0 {
            let prev = mt.state[i - 1];
            mt.state[i] = (mt.state[i] ^ ((prev ^ (prev >> 30)).wrapping_mul(1_566_083_941)))
                .wrapping_sub(i as u32);
            i += 1;
            if i >= N {
                mt.state[0] = mt.state[N - 1];
                i = 1;
            }
            k -= 1;
        }
        mt.state[0] = 0x8000_0000;
        mt.index = N;
        mt.ready = N;
        mt.emitted = 0;
        mt
    }

    /// Re-seed the generator in place from a 32-bit seed. Only `state[0]`
    /// is written here; the rest of the seeding recurrence runs as the first
    /// outputs need it, which emits exactly what eager seeding emits.
    pub fn reseed(&mut self, seed: u32) {
        self.state[0] = seed;
        self.init_upto = 1;
        self.index = 0;
        self.ready = 0;
        self.emitted = 0;
    }

    /// Run the seeding recurrence (`init_genrand`) up to entry `upto`
    /// (exclusive). The loop runs over locals: re-reading `init_upto` on
    /// every step roughly doubles its cost.
    fn init_through(&mut self, upto: usize) {
        let mut i = self.init_upto;
        if i >= upto {
            return;
        }
        let mut prev = self.state[i - 1];
        while i < upto {
            prev = (1_812_433_253u32.wrapping_mul(prev ^ (prev >> 30))).wrapping_add(i as u32);
            self.state[i] = prev;
            i += 1;
        }
        self.init_upto = i;
    }

    /// Number of raw 32-bit outputs emitted since the last (re)seed — the
    /// generator's exact stream position. Together with the original seed
    /// this is a complete, portable serialisation of the generator:
    /// `reseed`/reconstruct then [`Mt19937::discard`] by this amount.
    pub fn position(&self) -> u64 {
        self.emitted
    }

    /// Advance the generator by `n` raw 32-bit outputs, discarding them.
    pub fn discard(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u32_raw();
        }
    }

    fn generate_block(&mut self) {
        for i in 0..N {
            self.twist(i);
        }
        self.index = 0;
        self.ready = N;
    }

    /// Twist entry `i` in place (one step of the block recurrence).
    #[inline]
    fn twist(&mut self, i: usize) {
        let y = (self.state[i] & UPPER_MASK) | (self.state[(i + 1) % N] & LOWER_MASK);
        let mut next = self.state[(i + M) % N] ^ (y >> 1);
        if y & 1 != 0 {
            next ^= MATRIX_A;
        }
        self.state[i] = next;
    }

    /// Make entry `index` emittable: twist a whole new block, or inside a
    /// lazily seeded first block, twist the next entry. In-order twisting
    /// reads `state[i + 1]` and `state[i + M]` before they are twisted (or
    /// `state[(i + M) % N]` after, once it wraps), exactly as the whole-block
    /// twist does.
    #[inline(never)]
    fn refill(&mut self) {
        let i = self.index;
        if i >= N {
            self.generate_block();
            return;
        }
        self.init_through((i + M + 1).min(N));
        if self.init_upto < N {
            self.twist(i);
            self.ready = i + 1;
        } else {
            for j in i..N {
                self.twist(j);
            }
            self.ready = N;
        }
    }

    /// Generate the next raw 32-bit output (`genrand_int32`).
    #[inline]
    pub fn next_u32_raw(&mut self) -> u32 {
        if self.index >= self.ready {
            self.refill();
        }
        let mut y = self.state[self.index];
        self.index += 1;
        self.emitted += 1;
        // Tempering.
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c_5680;
        y ^= (y << 15) & 0xefc6_0000;
        y ^= y >> 18;
        y
    }

    /// A double in `[0, 1)` with 53-bit resolution (`genrand_res53`).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let a = (self.next_u32_raw() >> 5) as f64; // 27 bits
        let b = (self.next_u32_raw() >> 6) as f64; // 26 bits
        (a * 67_108_864.0 + b) * (1.0 / 9_007_199_254_740_992.0)
    }
}

impl RngCore for Mt19937 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_u32_raw()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32_raw() as u64;
        let hi = self.next_u32_raw() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u32_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Mt19937 {
    type Seed = [u8; 4];

    fn from_seed(seed: Self::Seed) -> Self {
        Mt19937::new(u32::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        // Mix the 64-bit seed into a 2-word key so that both halves matter.
        Mt19937::from_seed_array(&[state as u32, (state >> 32) as u32])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// First outputs of the reference C implementation for
    /// `init_by_array({0x123, 0x234, 0x345, 0x456})` (the published
    /// mt19937ar.out test vector).
    const REFERENCE_PREFIX: [u32; 3] = [1067595299, 955945823, 477289528];

    #[test]
    fn matches_reference_sequence() {
        let mut mt = Mt19937::from_seed_array(&[0x123, 0x234, 0x345, 0x456]);
        for &expect in &REFERENCE_PREFIX {
            assert_eq!(mt.next_u32_raw(), expect);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Mt19937::new(5489);
        let mut b = Mt19937::new(5489);
        for _ in 0..1000 {
            assert_eq!(a.next_u32_raw(), b.next_u32_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Mt19937::new(1);
        let mut b = Mt19937::new(2);
        let same = (0..100).filter(|_| a.next_u32_raw() == b.next_u32_raw()).count();
        assert!(same < 5, "seeds 1 and 2 produced {same} identical outputs of 100");
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut mt = Mt19937::new(7);
        for _ in 0..10_000 {
            let x = mt.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} outside [0,1)");
        }
    }

    #[test]
    fn next_f64_mean_is_near_half() {
        let mut mt = Mt19937::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| mt.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut mt = Mt19937::new(3);
        let mut buf = [0u8; 7];
        mt.fill_bytes(&mut buf);
        // Compare with manual extraction from an identical generator.
        let mut mt2 = Mt19937::new(3);
        let w0 = mt2.next_u32_raw().to_le_bytes();
        let w1 = mt2.next_u32_raw().to_le_bytes();
        assert_eq!(&buf[..4], &w0);
        assert_eq!(&buf[4..], &w1[..3]);
    }

    #[test]
    fn rand_trait_integration() {
        let mut mt = Mt19937::seed_from_u64(0xDEAD_BEEF_CAFE_F00D);
        let x: f64 = mt.gen();
        assert!((0.0..1.0).contains(&x));
        let y: u64 = mt.gen_range(0..100);
        assert!(y < 100);
    }

    #[test]
    fn reseed_restarts_sequence() {
        let mut a = Mt19937::new(99);
        let first: Vec<u32> = (0..5).map(|_| a.next_u32_raw()).collect();
        a.reseed(99);
        let second: Vec<u32> = (0..5).map(|_| a.next_u32_raw()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn position_counts_every_output_path() {
        let mut mt = Mt19937::new(42);
        assert_eq!(mt.position(), 0);
        mt.next_u32_raw();
        assert_eq!(mt.position(), 1);
        mt.next_f64(); // two raw outputs
        assert_eq!(mt.position(), 3);
        mt.next_u64(); // two raw outputs
        assert_eq!(mt.position(), 5);
        let mut buf = [0u8; 7]; // two raw outputs (one full word + remainder)
        mt.fill_bytes(&mut buf);
        assert_eq!(mt.position(), 7);
        mt.reseed(42);
        assert_eq!(mt.position(), 0);
    }

    #[test]
    fn reseed_and_discard_restores_the_exact_suffix() {
        let mut original = Mt19937::new(20_160_401);
        for _ in 0..1_000 {
            original.next_f64();
        }
        let position = original.position();
        let mut restored = Mt19937::new(20_160_401);
        restored.discard(position);
        assert_eq!(restored.position(), position);
        // The restored generator emits the exact suffix — including across
        // a block-regeneration boundary (1000 doubles = 2000 raws > 624).
        for _ in 0..2_000 {
            assert_eq!(restored.next_u32_raw(), original.next_u32_raw());
        }
    }

    #[test]
    fn seed_array_construction_starts_at_position_zero() {
        let mt = Mt19937::from_seed_array(&[0x123, 0x234, 0x345, 0x456]);
        assert_eq!(mt.position(), 0);
        let mut a = Mt19937::seed_from_u64(0xDEAD_BEEF);
        a.discard(3);
        let mut b = Mt19937::seed_from_u64(0xDEAD_BEEF);
        b.next_u32_raw();
        b.next_u32_raw();
        b.next_u32_raw();
        assert_eq!(a.next_u32_raw(), b.next_u32_raw());
    }

    /// Eager MT19937 as it was before lazy seeding: the whole seeding
    /// recurrence, then whole-block twists. The reference for the lazy
    /// first block.
    fn eager_outputs(seed: u32, n: usize) -> Vec<u32> {
        let mut state = [0u32; N];
        state[0] = seed;
        for i in 1..N {
            let prev = state[i - 1];
            state[i] = (1_812_433_253u32.wrapping_mul(prev ^ (prev >> 30))).wrapping_add(i as u32);
        }
        let mut index = N;
        (0..n)
            .map(|_| {
                if index >= N {
                    for i in 0..N {
                        let y = (state[i] & UPPER_MASK) | (state[(i + 1) % N] & LOWER_MASK);
                        let mut next = state[(i + M) % N] ^ (y >> 1);
                        if y & 1 != 0 {
                            next ^= MATRIX_A;
                        }
                        state[i] = next;
                    }
                    index = 0;
                }
                let mut y = state[index];
                index += 1;
                y ^= y >> 11;
                y ^= (y << 7) & 0x9d2c_5680;
                y ^= (y << 15) & 0xefc6_0000;
                y ^ (y >> 18)
            })
            .collect()
    }

    #[test]
    fn lazy_seeding_matches_eager_seeding() {
        let mut seeder = crate::rng::SplitMix64::new(0x1A2F);
        let seeds =
            [0, 1, 5489, u32::MAX].into_iter().chain((0..1_000).map(|_| seeder.next_seed32()));
        for seed in seeds {
            let mut mt = Mt19937::new(seed);
            let lazy: Vec<u32> = (0..2_000).map(|_| mt.next_u32_raw()).collect();
            assert_eq!(lazy, eager_outputs(seed, 2_000), "seed {seed}");
        }
    }

    #[test]
    fn discard_and_position_cross_the_first_block_boundary() {
        let eager = eager_outputs(20_160_401, 700);
        for skip in [0u64, 1, 226, 227, 228, 622, 623, 624, 625, 626] {
            let mut mt = Mt19937::new(20_160_401);
            mt.discard(skip);
            assert_eq!(mt.position(), skip);
            for (k, &expect) in eager[skip as usize..skip as usize + 3].iter().enumerate() {
                assert_eq!(mt.next_u32_raw(), expect, "output {} after discard {skip}", k);
            }
            assert_eq!(mt.position(), skip + 3);
        }
    }

    #[test]
    fn a_clone_taken_mid_first_block_continues_identically() {
        for cut in [1usize, 5, 200, 227, 400, 623, 624] {
            let mut original = Mt19937::new(77);
            for _ in 0..cut {
                original.next_u32_raw();
            }
            let mut copy = original.clone();
            assert_eq!(copy.position(), original.position());
            for _ in 0..1_300 {
                assert_eq!(copy.next_u32_raw(), original.next_u32_raw(), "clone at {cut}");
            }
        }
        // Reseeding a generator deep into its stream restarts it lazily.
        let mut reused = Mt19937::new(3);
        reused.discard(5_000);
        reused.reseed(91);
        let outputs: Vec<u32> = (0..700).map(|_| reused.next_u32_raw()).collect();
        assert_eq!(outputs, eager_outputs(91, 700));
    }

    #[test]
    fn detached_streams_are_unchanged_by_lazy_seeding() {
        // Outputs 0..4 and 624..627 of detached proposal streams, recorded
        // from the eagerly seeded generator.
        let golden: [(u64, usize, [u32; 4], [u32; 3]); 4] = [
            (
                1,
                0,
                [1192895586, 1545201766, 3947374051, 3735664304],
                [4178506987, 4274838666, 1608749466],
            ),
            (
                1,
                31,
                [2506268555, 4113287510, 2008289520, 1362058208],
                [760679388, 548631715, 2839841526],
            ),
            (
                7,
                5,
                [3873745357, 3537436119, 548983541, 3291735305],
                [3370419670, 3787463401, 3084966894],
            ),
            (
                2_063,
                17,
                [727877817, 147355601, 1052406970, 3975779653],
                [1181700757, 633592031, 925214059],
            ),
        ];
        let bank = crate::rng::StreamBank::new(0x5EED_2016, 4);
        for (epoch, slot, head, tail) in golden {
            let mut stream = bank.detached(epoch, slot);
            let got: Vec<u32> = (0..4).map(|_| stream.next_u32_raw()).collect();
            assert_eq!(got, head, "epoch {epoch}, slot {slot}");
            stream.discard(620);
            let got: Vec<u32> = (0..3).map(|_| stream.next_u32_raw()).collect();
            assert_eq!(got, tail, "epoch {epoch}, slot {slot}");
        }
    }

    #[test]
    fn chi_square_uniformity_of_low_bits() {
        // 16 buckets over the low 4 bits; very loose bound on the chi-square
        // statistic (df = 15, 99.9th percentile ~ 37.7).
        let mut mt = Mt19937::new(20_160_401);
        let n = 64_000usize;
        let mut buckets = [0usize; 16];
        for _ in 0..n {
            buckets[(mt.next_u32_raw() & 0xF) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        let chi2: f64 = buckets.iter().map(|&o| (o as f64 - expected).powi(2) / expected).sum();
        assert!(chi2 < 40.0, "chi-square statistic too large: {chi2}");
    }
}
