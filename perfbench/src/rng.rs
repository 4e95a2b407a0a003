//! Seeded randomness: every input the benchmark generates derives from the
//! `--seed` argument through these streams, so one seed always gives the
//! same datasets, query pool, Zipf draws and update batches.

/// SplitMix64 — small, fast, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// Mixes a run seed with a stream tag into an independent stream seed.
pub fn stream(seed: u64, tag: u64) -> u64 {
    let mut rng = SplitMix64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to draw");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Ranks `0..n` drawn with probability proportional to `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                total += (r as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
