//! The benchmark's own random-number generator: xoshiro256** seeded through
//! SplitMix64. It shares no code with the program's `mcmc::rng`, so the
//! generated inputs do not depend on the sampler's generator.

/// A xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a seed with a stream label into an independent seed.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut state = seed ^ 0x005E_ED0F_BE4C;
    for byte in label.bytes() {
        state = splitmix(&mut state) ^ u64::from(byte);
    }
    state ^= index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix(&mut state)
}

impl Rng {
    /// A generator seeded from one 64-bit value.
    pub fn new(seed: u64) -> Rng {
        let mut state = seed;
        let s = [
            splitmix(&mut state),
            splitmix(&mut state),
            splitmix(&mut state),
            splitmix(&mut state),
        ];
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform on [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform on {0, …, n − 1}.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Exponential with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.uniform()).ln() / rate
    }

    /// An index drawn with probability proportional to `weights`.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// A standard normal deviate (Box–Muller).
    #[cfg(test)]
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_decorrelate() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(derive_seed(1, "reference", 0), derive_seed(1, "reference", 1));
        assert_ne!(derive_seed(1, "reference", 0), derive_seed(1, "long_loci", 0));
    }

    #[test]
    fn uniform_mean_and_exponential_mean() {
        let mut rng = Rng::new(3);
        let n = 200_000;
        let mean_u = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean_u - 0.5).abs() < 0.005);
        let mean_e = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean_e - 0.25).abs() < 0.005);
    }
}
