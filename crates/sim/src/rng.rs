//! Deterministic random number generation.
//!
//! All randomness in the simulator flows through [`Rng`], a
//! xoshiro256**-style generator seeded via splitmix64. Named substreams
//! ([`Rng::substream`]) let independent parts of a simulation (placement,
//! traffic, clock offsets, ...) draw from decorrelated sequences while the
//! whole run stays reproducible from a single root seed.
//!
//! We implement the generator by hand rather than pulling in `rand` so the
//! core simulation has zero external dependencies and its behaviour is
//! pinned by this crate's own tests.

/// splitmix64 step: the standard seeding/stream-splitting mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-shot stateless mix of a 64-bit value (used for schedule hashing too).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// Deterministic xoshiro256** generator.
///
/// ```
/// use parn_sim::Rng;
/// let mut a = Rng::new(7).substream("traffic");
/// let mut b = Rng::new(7).substream("traffic");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed+label => same stream
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for v in s.iter_mut() {
            *v = splitmix64(&mut sm);
        }
        // xoshiro must not start in the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// Derive an independent substream identified by a label.
    ///
    /// The label is hashed (FNV-1a) together with this generator's seed
    /// material, so `substream("traffic")` and `substream("placement")`
    /// produce decorrelated sequences, stable across runs.
    pub fn substream(&self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Rng::new(self.s[0] ^ h.rotate_left(17) ^ self.s[2].wrapping_mul(3))
    }

    /// Next raw 64-bit value.
    #[inline]
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

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire rejection method: unbiased and fast.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (one value per call; simple and fine
    /// for our volumes).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + sd * z
    }

    /// Poisson-distributed count with the given mean.
    ///
    /// Knuth's product method for small means, normal approximation
    /// (clamped at zero) for large ones.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0;
        }
        if mean < 64.0 {
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let v = self.normal(mean, mean.sqrt()).round();
            if v < 0.0 {
                0
            } else {
                v as u64
            }
        }
    }

    /// Pick a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_stable_and_distinct() {
        let root = Rng::new(7);
        let mut a1 = root.substream("traffic");
        let mut a2 = root.substream("traffic");
        let mut b = root.substream("placement");
        assert_eq!(a1.next_u64(), a2.next_u64());
        let mut a3 = root.substream("traffic");
        assert_ne!(a3.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::new(1).below(0);
    }

    #[test]
    fn exp_mean() {
        let mut r = Rng::new(9);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = Rng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.poisson(2.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_path() {
        let mut r = Rng::new(19);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.poisson(200.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(23);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn mix64_stateless() {
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(1), mix64(2));
    }
}
