//! Continuous delay distributions (paper Eq. 24: `d_i ~ D_i`).

use crate::gamma::{ln_gamma, reg_gamma_lower};
use crate::rng::Xoshiro256;
use std::fmt;

/// A one-way-delay distribution on `[0, ∞)` seconds.
///
/// Implemented by [`ConstantDelay`] (the deterministic model of §V),
/// [`ShiftedGamma`] (the Internet-delay model of §VI-B), [`UniformDelay`]
/// and [`Empirical`] (the discretized estimation fallback of §VIII-A).
pub trait Delay: fmt::Debug + Send + Sync {
    /// `P(d ≤ t)` for `t` in seconds.
    fn cdf(&self, t: f64) -> f64;

    /// Expected delay in seconds (`E[d_i]`, used by Eq. 25 to pick the
    /// acknowledgment path).
    fn mean(&self) -> f64;

    /// Delay variance in seconds².
    fn variance(&self) -> f64;

    /// Smallest possible delay (the location/shift parameter); used to
    /// bound discretization grids.
    fn min_delay(&self) -> f64;

    /// A pessimistic upper bound `t` with `P(d ≤ t)` ≈ 1, used to bound
    /// discretization grids. Defaults to `mean + 12·σ`.
    fn max_delay(&self) -> f64 {
        self.mean() + 12.0 * self.variance().sqrt()
    }

    /// Draws one delay sample in seconds.
    fn sample(&self, rng: &mut Xoshiro256) -> f64;
}

/// Deterministic delay: the paper's base model (§V) where `d_i` is a
/// constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantDelay(f64);

impl ConstantDelay {
    /// Creates a constant delay of `seconds ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or NaN (infinite is allowed — the
    /// blackhole path has `d = ∞`).
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds >= 0.0 && !seconds.is_nan(),
            "delay must be ≥ 0, got {seconds}"
        );
        ConstantDelay(seconds)
    }

    /// The constant value in seconds.
    pub fn seconds(&self) -> f64 {
        self.0
    }
}

impl Delay for ConstantDelay {
    fn cdf(&self, t: f64) -> f64 {
        if t >= self.0 {
            1.0
        } else {
            0.0
        }
    }

    fn mean(&self) -> f64 {
        self.0
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn min_delay(&self) -> f64 {
        self.0
    }

    fn max_delay(&self) -> f64 {
        self.0
    }

    fn sample(&self, _rng: &mut Xoshiro256) -> f64 {
        self.0
    }
}

/// Shifted gamma delay: `d = η + X`, `X ~ Gamma(shape α, scale β)`.
///
/// This is the paper's Internet-delay model (Eq. 24/31, refs \[23\]–\[26\]):
/// `E[d] = η + αβ`, `Var[d] = αβ²`. See the crate docs for why `β` is a
/// scale (not a rate) here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftedGamma {
    shape: f64,
    scale: f64,
    shift: f64,
}

impl ShiftedGamma {
    /// Creates a shifted gamma with `shape α > 0`, `scale β > 0` (seconds)
    /// and `shift η ≥ 0` (seconds).
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string if any parameter is out of range
    /// or non-finite.
    pub fn new(shape: f64, scale: f64, shift: f64) -> Result<Self, String> {
        if !(shape > 0.0) || !shape.is_finite() {
            return Err(format!("shape must be finite and > 0, got {shape}"));
        }
        if !(scale > 0.0) || !scale.is_finite() {
            return Err(format!("scale must be finite and > 0, got {scale}"));
        }
        if !(shift >= 0.0) || !shift.is_finite() {
            return Err(format!("shift must be finite and ≥ 0, got {shift}"));
        }
        Ok(ShiftedGamma {
            shape,
            scale,
            shift,
        })
    }

    /// Shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `β` in seconds.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Location parameter `η` in seconds.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Probability density at `t` seconds.
    pub fn pdf(&self, t: f64) -> f64 {
        let x = (t - self.shift) / self.scale;
        if x <= 0.0 {
            return 0.0;
        }
        let log_pdf = (self.shape - 1.0) * x.ln() - x - ln_gamma(self.shape) - self.scale.ln();
        log_pdf.exp()
    }

    /// Draws from Gamma(shape, 1) with Marsaglia–Tsang; `shape ≥ 1`.
    fn sample_unit_gamma(shape: f64, rng: &mut Xoshiro256) -> f64 {
        debug_assert!(shape >= 1.0);
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // Standard normal via Box–Muller (avoids the rand_distr dep).
            let u1: f64 = rng.unit().max(1e-300);
            let u2: f64 = rng.unit();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.unit().max(1e-300);
            if u.ln() < 0.5 * z * z + d - d * v3 + d * v3.ln() {
                return d * v3;
            }
        }
    }
}

impl Delay for ShiftedGamma {
    fn cdf(&self, t: f64) -> f64 {
        let x = (t - self.shift) / self.scale;
        reg_gamma_lower(self.shape, x)
    }

    fn mean(&self) -> f64 {
        self.shift + self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    fn min_delay(&self) -> f64 {
        self.shift
    }

    fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        let g = if self.shape >= 1.0 {
            Self::sample_unit_gamma(self.shape, rng)
        } else {
            // Boost: Gamma(α) = Gamma(α+1) · U^{1/α}.
            let u: f64 = rng.unit().max(1e-300);
            Self::sample_unit_gamma(self.shape + 1.0, rng) * u.powf(1.0 / self.shape)
        };
        self.shift + self.scale * g
    }
}

/// Uniform delay on `[lo, hi]` seconds; handy for tests and for modelling
/// bounded jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDelay {
    lo: f64,
    hi: f64,
}

impl UniformDelay {
    /// Creates a uniform delay on `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi,
            "invalid uniform range [{lo}, {hi}]"
        );
        UniformDelay { lo, hi }
    }
}

impl Delay for UniformDelay {
    fn cdf(&self, t: f64) -> f64 {
        #[expect(
            clippy::float_cmp,
            reason = "a zero-spread range is the step at `lo`: only exactly equal ends would divide by zero below"
        )]
        if self.hi == self.lo {
            return if t >= self.lo { 1.0 } else { 0.0 };
        }
        ((t - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn min_delay(&self) -> f64 {
        self.lo
    }

    fn max_delay(&self) -> f64 {
        self.hi
    }

    fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        self.lo + (self.hi - self.lo) * rng.unit()
    }
}

/// Empirical delay distribution built from observed samples (the
/// discretized estimation approach of §VIII-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted samples, seconds.
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Empirical {
    /// Builds the ECDF from delay samples (seconds).
    ///
    /// # Errors
    ///
    /// Returns an error if `samples` is empty or contains non-finite or
    /// negative values.
    pub fn from_samples(mut samples: Vec<f64>) -> Result<Self, String> {
        if samples.is_empty() {
            return Err("empirical distribution needs at least one sample".into());
        }
        if samples.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err("samples must be finite and ≥ 0".into());
        }
        samples.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("samples validated finite at construction")
        });
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        Ok(Empirical {
            sorted: samples,
            mean,
            variance,
        })
    }

    /// Number of samples backing the ECDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution has no samples (never true for a
    /// constructed value; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

impl Delay for Empirical {
    fn cdf(&self, t: f64) -> f64 {
        // Count of samples ≤ t via partition point.
        let k = self.sorted.partition_point(|&s| s <= t);
        k as f64 / self.sorted.len() as f64
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn min_delay(&self) -> f64 {
        self.sorted[0]
    }

    fn max_delay(&self) -> f64 {
        *self
            .sorted
            .last()
            .expect("sorted samples validated non-empty at construction")
    }

    fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        let idx = (rng.unit() * self.sorted.len() as f64) as usize;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_delay_is_step() {
        let d = ConstantDelay::new(0.2);
        assert_eq!(d.cdf(0.1), 0.0);
        assert_eq!(d.cdf(0.2), 1.0);
        assert_eq!(d.cdf(0.3), 1.0);
        assert_eq!(d.mean(), 0.2);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn constant_delay_allows_infinity() {
        // The blackhole path has d = ∞ (Eq. 19).
        let d = ConstantDelay::new(f64::INFINITY);
        assert_eq!(d.cdf(1e12), 0.0);
        assert_eq!(d.mean(), f64::INFINITY);
    }

    #[test]
    fn shifted_gamma_moments_match_table_v() {
        // Path 2 of Table V: η=100 ms, α=5, β=2 ms.
        let d = ShiftedGamma::new(5.0, 0.002, 0.100).unwrap();
        assert!((d.mean() - 0.110).abs() < 1e-12);
        assert!((d.variance() - 2e-5).abs() < 1e-12);
        assert_eq!(d.min_delay(), 0.100);
    }

    #[test]
    fn shifted_gamma_rejects_bad_params() {
        assert!(ShiftedGamma::new(0.0, 1.0, 0.0).is_err());
        assert!(ShiftedGamma::new(1.0, -1.0, 0.0).is_err());
        assert!(ShiftedGamma::new(1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn shifted_gamma_sampling_matches_moments() {
        let d = ShiftedGamma::new(10.0, 0.004, 0.400).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() < 3e-4,
            "sample mean {mean} vs {}",
            d.mean()
        );
        assert!(
            (var - d.variance()).abs() < d.variance() * 0.05,
            "sample var {var} vs {}",
            d.variance()
        );
        assert!(samples.iter().all(|&s| s >= d.min_delay()));
    }

    #[test]
    fn shifted_gamma_sampling_small_shape() {
        let d = ShiftedGamma::new(0.5, 0.01, 0.0).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() < 3e-4,
            "mean {mean} vs {}",
            d.mean()
        );
    }

    #[test]
    fn shifted_gamma_cdf_sampling_agreement() {
        // Kolmogorov–Smirnov-ish check at a few probe points.
        let d = ShiftedGamma::new(5.0, 0.002, 0.100).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(23);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &t in &[0.105, 0.110, 0.115, 0.120] {
            let emp = samples.partition_point(|&s| s <= t) as f64 / n as f64;
            let thy = d.cdf(t);
            assert!((emp - thy).abs() < 0.01, "at t={t}: emp {emp} thy {thy}");
        }
    }

    #[test]
    fn uniform_delay_basics() {
        let d = UniformDelay::new(0.1, 0.3);
        assert_eq!(d.cdf(0.05), 0.0);
        assert!((d.cdf(0.2) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(0.4), 1.0);
        assert!((d.mean() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empirical_ecdf() {
        let d = Empirical::from_samples(vec![0.3, 0.1, 0.2, 0.2]).unwrap();
        assert_eq!(d.cdf(0.05), 0.0);
        assert!((d.cdf(0.1) - 0.25).abs() < 1e-12);
        assert!((d.cdf(0.2) - 0.75).abs() < 1e-12);
        assert_eq!(d.cdf(0.3), 1.0);
        assert_eq!(d.min_delay(), 0.1);
        assert_eq!(d.max_delay(), 0.3);
        assert!((d.mean() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empirical_rejects_bad_input() {
        assert!(Empirical::from_samples(vec![]).is_err());
        assert!(Empirical::from_samples(vec![-0.1]).is_err());
        assert!(Empirical::from_samples(vec![f64::NAN]).is_err());
    }
}
