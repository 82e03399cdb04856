//! Offline stand-in for the subset of `rand` 0.8 used by this workspace.
//!
//! See `shims/README.md` for scope and caveats. The API mirrors upstream
//! `rand` closely enough that swapping the real crate back in is a drop-in
//! change: `RngCore` / `Rng` / `SeedableRng` traits, `rngs::StdRng`, and
//! the `gen` / `gen_range` sampling surface.
//!
//! `StdRng` is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64 —
//! a small, fast generator whose statistical quality comfortably exceeds
//! what the Monte-Carlo experiments here can resolve. Streams are stable
//! for a fixed seed, which is the only determinism property the workspace
//! relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The core of a random number generator: a source of uniform `u64`s.
///
/// Object-safe; latency distributions sample through `&mut dyn RngCore`.
pub trait RngCore {
    /// Next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Next uniform 32-bit value (top bits of [`next_u64`](Self::next_u64)).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable from a uniform bit stream (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

/// Ranges samplable uniformly (argument type of [`Rng::gen_range`]).
pub trait SampleRange<T> {
    /// Draw one value in the range from `rng`. Panics on empty ranges.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` via 128-bit multiply-shift (Lemire's
/// reduction without the rejection step; bias is `< span / 2^64`, orders of
/// magnitude below anything the Monte-Carlo experiments can resolve).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty range");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        start + u * (end - start)
    }
}

/// Convenience sampling methods, available on every [`RngCore`]
/// (including `dyn RngCore`).
pub trait Rng: RngCore {
    /// Sample a value from the `Standard` distribution
    /// (`f64` → uniform `[0, 1)`, `bool` → fair coin, integers → uniform).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from a range, e.g. `rng.gen_range(0..n)`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// SplitMix64's state increment: 2^64 over the golden ratio, rounded to odd.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Steele et al.): a bijection on `u64` that
/// spreads every input bit over every output bit. [`SeedableRng`] seeding
/// mixes `seed + k·φ` through it; the workspace's hashes call it directly.
/// Upstream `rand` has no such function: this one is the shim's own.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream` of a run seeded `seed`: `seed` itself for
/// stream 0, else the `stream`-th output of a SplitMix64 generator whose
/// state starts at `seed` (`mix64(seed + stream·φ)`). For a fixed `seed`
/// it is injective in `stream`, since both steps are bijections. A run that
/// needs two independent samples takes streams 1 and 2: stream 0 is the
/// base seed, which the run's own within-run splits already draw from.
/// Upstream `rand` has no such function: this one is the shim's own.
#[inline]
pub fn child(seed: u64, stream: u64) -> u64 {
    if stream == 0 {
        return seed;
    }
    mix64(seed.wrapping_add(stream.wrapping_mul(GAMMA)))
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator from a `u64` seed (SplitMix64-expanded).
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++ seeded via SplitMix64.
    ///
    /// Not the ChaCha12 generator of upstream `rand` — streams differ, but
    /// the workspace only requires self-consistency for a fixed seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 (Steele et al.) to spread a 64-bit seed over the
            // 256-bit state; guarantees a nonzero state for every seed.
            let mut x = state;
            let mut next = || {
                x = x.wrapping_add(super::GAMMA);
                super::mix64(x)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // SplitMix64's reference stream from state 0.
        let outputs = [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F];
        for (k, want) in (1..).zip(outputs) {
            assert_eq!(super::mix64(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k)), want);
        }
    }

    #[test]
    fn child_keeps_stream_zero_and_is_injective_in_the_stream() {
        for seed in [0, u64::MAX] {
            assert_eq!(super::child(seed, 0), seed);
        }
        for seed in [0, 7, u64::MAX] {
            let mut seen: Vec<u64> = (0..65_536).map(|s| super::child(seed, s)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 65_536, "seed {seed}: two streams share a child seed");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
        for _ in 0..1_000 {
            let v = rng.gen_range(5u32..=7);
            assert!((5..=7).contains(&v));
        }
        for _ in 0..1_000 {
            let v = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&v));
        }
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(3);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v = dyn_rng.gen_range(0..100u64);
        assert!(v < 100);
        let _: f64 = dyn_rng.gen();
        let _: bool = dyn_rng.gen();
    }
}
