//! The workspace's one seeded random-number generator family.
//!
//! Every draw the simulation makes (Bernoulli and Gilbert–Elliott loss,
//! shifted-gamma delays, weighted-random scheduling baselines, fault
//! injection, probe jitter, experiment scripts) comes from here, so a
//! run is a pure function of its seeds:
//!
//! * [`Xoshiro256`], a xoshiro256\*\* stream seeded through SplitMix64
//!   (Blackman & Vigna), for the long-lived per-link and per-scheduler
//!   streams;
//! * [`SplitMix64`] (Steele, Lea & Flood 2014), the small stream the
//!   fault injector, the adaptive sender and the test scripts consume;
//! * [`mix64`], the SplitMix64 finalizer, for stateless seed derivation
//!   (the simulator's per-link seeds, the Monte-Carlo per-trial seeds);
//! * [`run_cases`], which runs a property test's cases over one
//!   [`SplitMix64`] stream, drawing each case's inputs with
//!   [`SplitMix64::int`], [`SplitMix64::f64`] and [`SplitMix64::bool`].
//!
//! None of it is cryptographically secure, and nothing here needs to be:
//! determinism for a given seed is the contract.

use std::ops::Range;
use std::panic::AssertUnwindSafe;

/// The SplitMix64 increment, `⌊2⁶⁴/φ⌋` (odd, so the state walks the
/// whole `u64` ring).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective avalanche of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from the top 53 bits of `bits`.
pub fn to_unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream whose state starts at `state`.
    pub fn new(state: u64) -> Self {
        SplitMix64(state)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        to_unit(self.next_u64())
    }

    /// An integer in `range`, whose type is at most 64 bits wide:
    /// `start + next_u64() % span`. Panics on an empty range.
    pub fn int<T>(&mut self, range: Range<T>) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
    {
        #[expect(clippy::unreachable, reason = "integers of up to 64 bits fit an i128")]
        let (Ok(start), Ok(end)) = (range.start.try_into(), range.end.try_into()) else {
            unreachable!("integer range beyond i128")
        };
        assert!(start < end, "empty integer range");
        // A span of at most 2⁶⁴ − 1: the ends are at most 64-bit.
        let offset = self.next_u64() % (end - start) as u64;
        #[expect(clippy::unreachable, reason = "start + offset < end, which is a T")]
        let Ok(value) = T::try_from(start + i128::from(offset)) else {
            unreachable!("draw outside its range")
        };
        value
    }

    /// A float in `range`: `start + (end − start) · unit()`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * self.unit()
    }

    /// A bool from the low bit of the next output.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Runs `cases` cases of a property test over one [`SplitMix64`] stream
/// started at `seed` (the tests pass `dmc_obs::fnv1a` of their name).
/// Each case draws its inputs from the stream it is handed, in order;
/// the next case starts where it stopped.
///
/// A failing case panics again with its number and the stream state at
/// its start: `run_cases(state, 1, case)` replays it alone.
pub fn run_cases(seed: u64, cases: u32, mut case: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for k in 1..=cases {
        let state = rng.0;
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = run {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            #[expect(clippy::panic, reason = "a failing case fails its test")]
            {
                panic!("case {k}/{cases} failed from stream state {state:#018x}: {message}")
            }
        }
    }
}

/// A xoshiro256\*\* stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// The stream for `seed`: the four state words are the first four
    /// outputs of [`SplitMix64`] started at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
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

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        to_unit(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers: every seeded result in the workspace (golden
    // literals, smoke outputs, `served_share`) replays these streams, so
    // no bit of them may move.

    #[test]
    fn xoshiro_known_answers() {
        let mut r = Xoshiro256::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
            ]
        );
        let mut r = Xoshiro256::seed_from_u64(42);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1,
            ]
        );
        let mut r = Xoshiro256::seed_from_u64(42);
        assert_eq!(r.unit().to_bits(), 0x3FB5_780B_2E0C_2EC0);
    }

    #[test]
    fn splitmix_known_answers() {
        // The first output from state 0 is the published test vector.
        let mut s = SplitMix64::new(0);
        let got: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
        assert_eq!(
            got,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
            ]
        );
    }

    #[test]
    fn case_draws_known_answers() {
        // Every property test draws its inputs through these mappings,
        // so no bit of them may move.
        let mut r = SplitMix64::new(dmc_obs::fnv1a(b"known_answers"));
        assert_eq!(r.next_u64(), 0xC14C_19B2_2693_B895);
        assert_eq!(r.next_u64() as u8, 49);
        assert!(r.bool());
        assert_eq!(r.int(-60i32..60), 22);
        assert_eq!(r.int(0u64..u64::MAX / 2), 0x6424_D524_68B4_4576);
        assert_eq!(r.f64(1.0..150.0).to_bits(), 0x4057_BC01_5AAE_AA39);
        let v: Vec<u64> = (0..r.int(0usize..40)).map(|_| r.int(0u64..128)).collect();
        assert_eq!(
            v,
            [114, 27, 36, 55, 123, 55, 60, 26, 20, 113, 66, 11, 8, 23, 66, 99, 41, 85]
        );
    }

    #[test]
    fn a_failing_case_names_its_number_and_start_state() {
        let case = |rng: &mut SplitMix64| assert!(rng.next_u64() % 5 != 0, "a multiple of 5");
        let payload = std::panic::catch_unwind(|| run_cases(7, 64, case))
            .expect_err("one of 64 draws is a multiple of 5");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        let mut r = SplitMix64::new(7);
        let (mut k, mut state) = (1, r.clone());
        while r.next_u64() % 5 != 0 {
            (k, state) = (k + 1, r.clone());
        }
        assert_eq!(
            *message,
            format!(
                "case {k}/64 failed from stream state {:#018x}: a multiple of 5",
                state.0
            )
        );
        // The named state replays that case alone.
        let replay = std::panic::catch_unwind(|| run_cases(state.0, 1, case));
        assert!(replay.is_err());
        run_cases(7, k - 1, case);
    }

    #[test]
    fn a_one_wide_range_yields_its_start() {
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(r.int(5u8..6), 5);
            assert_eq!(r.int(-7i64..-6), -7);
            assert_eq!(r.int(u64::MAX - 1..u64::MAX), u64::MAX - 1);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_in_unit_interval_and_roughly_uniform() {
        let mut x = Xoshiro256::seed_from_u64(7);
        let mut s = SplitMix64::new(7);
        let n = 100_000;
        let (mut sum_x, mut sum_s) = (0.0, 0.0);
        for _ in 0..n {
            let (u, v) = (x.unit(), s.unit());
            assert!((0.0..1.0).contains(&u) && (0.0..1.0).contains(&v));
            sum_x += u;
            sum_s += v;
        }
        for mean in [sum_x / n as f64, sum_s / n as f64] {
            assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        }
    }
}
