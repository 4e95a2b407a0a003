//! Offline stand-in for the `rand` crate (0.8-style API).
//!
//! The build environment has no crates registry, so this shim implements
//! the exact surface the workspace uses — `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::gen_range` over (inclusive and
//! exclusive) integer and float ranges, and `Rng::gen::<f64>()` — on top
//! of a SplitMix64 generator. The workloads only need *deterministic,
//! well-mixed* streams, not cryptographic or statistically certified
//! ones; every simulation seed in the repo produces the same dataset and
//! phase sequence on every platform. Swapping in the real `rand` changes
//! the concrete streams (different algorithm) but no code.

/// Pseudo-random number generators (mirrors `rand::rngs`).
pub mod rngs {
    /// Deterministic 64-bit generator (SplitMix64 under the hood — the
    /// real `StdRng` is ChaCha12; see the crate docs for why that is fine
    /// here).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl StdRng {
        pub(crate) fn from_state(state: u64) -> Self {
            StdRng { state }
        }

        pub(crate) fn next(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014) — passes BigCrush when
            // used as a stream, one add + three xor-shifts per draw.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Construction of seedable generators (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Pre-mix the seed (one wyhash-style round with constants
        // distinct from SplitMix64's gamma) before it becomes generator
        // state. Without this, a caller-side affine seed schedule like
        // `seed ^ i * 0x9E3779B97F4A7C15` — which the batch runners use —
        // aligns exactly with the generator's own increment, making query
        // i's (k+1)-th draw equal query (i+1)'s k-th draw and collapsing
        // "independent" per-query streams into one shifted orbit.
        let mut z = seed.wrapping_add(0xA076_1D64_78BD_642F);
        z = (z ^ (z >> 32)).wrapping_mul(0xE703_7ED1_A0B4_28DB);
        rngs::StdRng::from_state(z ^ (z >> 29))
    }
}

/// Low-level uniform 64-bit output (mirrors `rand::RngCore`).
pub trait RngCore {
    /// The next uniformly distributed 64-bit value.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// User-facing sampling methods (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A sample of the type's standard distribution (`f64` → `[0, 1)`).
    fn gen<T>(&mut self) -> T
    where
        T: StandardSample,
        Self: Sized,
    {
        T::standard_sample(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable by [`Rng::gen`].
pub trait StandardSample {
    /// Draws one standard sample.
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits → [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`] (mirrors
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty f64 range");
        let u = f64::standard_sample(rng);
        let v = self.start + u * (self.end - self.start);
        // Rounding can land exactly on `end` for tiny spans; clamp back
        // into the half-open interval.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty f64 range");
        let u = f64::standard_sample(rng);
        lo + u * (hi - lo)
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty integer range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty integer range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u64, usize, u32, u16, u8);

macro_rules! impl_signed_sample_range {
    ($($t:ty as $wide:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty integer range");
                let span = (self.end as $wide - self.start as $wide) as u64;
                (self.start as $wide + (rng.next_u64() % span) as $wide) as $t
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty integer range");
                let span = (hi as $wide - lo as $wide) as u64;
                if span == u64::MAX {
                    return (lo as $wide + rng.next_u64() as $wide) as $t;
                }
                (lo as $wide + (rng.next_u64() % (span + 1)) as $wide) as $t
            }
        }
    )*};
}

impl_signed_sample_range!(i64 as i64, i32 as i64, isize as i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn affine_seed_schedules_do_not_overlap_streams() {
        // Regression: the batch runners seed per-query generators with
        // `seed ^ i * 0x9E3779B97F4A7C15`. If seed_from_u64 used the raw
        // seed as SplitMix64 state, stream i shifted by one draw would
        // equal stream i+1 (the schedule's multiplier is SplitMix64's
        // gamma). The pre-mix must break that alignment.
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        for base in [0u64, 0xEDB7_2008, 0xF19] {
            for i in 0..50u64 {
                let mut a = rngs::StdRng::seed_from_u64(base ^ i.wrapping_mul(GAMMA));
                let mut b = rngs::StdRng::seed_from_u64(base ^ (i + 1).wrapping_mul(GAMMA));
                let a_draws: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
                let b_first = b.next_u64();
                assert!(
                    !a_draws.contains(&b_first),
                    "stream overlap at base {base:#x}, i {i}"
                );
            }
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3.0f64..5.0);
            assert!((3.0..5.0).contains(&x));
            let y = rng.gen_range(10u64..13);
            assert!((10..13).contains(&y));
            let z = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&z));
            let w = rng.gen_range(0.25f64..=0.75);
            assert!((0.25..=0.75).contains(&w));
        }
    }

    #[test]
    fn degenerate_inclusive_range() {
        let mut rng = rngs::StdRng::seed_from_u64(1);
        assert_eq!(rng.gen_range(9u64..=9), 9);
        assert_eq!(rng.gen_range(2.5f64..=2.5), 2.5);
    }

    #[test]
    fn standard_f64_is_unit_interval() {
        let mut rng = rngs::StdRng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        // Mean of 10k uniform draws is close to 1/2.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}
