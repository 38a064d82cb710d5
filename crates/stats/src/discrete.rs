//! Gridded (discretized) probability distributions.
//!
//! The timeout optimization of Eq. 26/34 needs `F_{d_i + d_min}(t)` — the
//! CDF of a *sum* of independent delays — evaluated over a fine time grid.
//! Discretizing each delay to a probability mass function on a uniform
//! grid turns the convolution of Eq. 34 into a finite sum, exactly the
//! "discretized" estimation route the paper suggests in §VIII-A.

use crate::dist::Delay;

/// A probability mass function on the uniform grid
/// `offset, offset + step, offset + 2·step, …` (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    offset: f64,
    step: f64,
    pmf: Vec<f64>,
}

impl DiscreteDist {
    /// Discretizes a continuous delay distribution onto a grid of width
    /// `step` seconds. Bin `k` receives the probability mass of
    /// `(offset + (k-1)·step, offset + k·step]`; the grid spans
    /// `[min_delay, max_delay]` of the source distribution.
    ///
    /// # Panics
    ///
    /// Panics if `step ≤ 0`, or if the distribution has unbounded support
    /// start (`min_delay` not finite).
    pub fn from_delay(dist: &dyn Delay, step: f64) -> Self {
        assert!(step > 0.0 && step.is_finite(), "bad grid step {step}");
        let lo = dist.min_delay();
        assert!(lo.is_finite(), "distribution support must start finite");
        let hi = dist.max_delay().max(lo);
        let bins = (((hi - lo) / step).ceil() as usize + 2).max(1);
        let mut pmf = Vec::with_capacity(bins);
        let mut prev = 0.0;
        for k in 0..bins {
            let t = lo + (k as f64) * step;
            let c = dist.cdf(t).clamp(0.0, 1.0);
            pmf.push((c - prev).max(0.0));
            prev = c;
        }
        // Any residual tail mass goes in the last bin so the PMF sums to 1.
        let total: f64 = pmf.iter().sum();
        if total < 1.0 {
            let last = pmf.len() - 1;
            pmf[last] += 1.0 - total;
        }
        DiscreteDist {
            offset: lo,
            step,
            pmf,
        }
    }

    /// Builds a PMF directly from `(offset, step, masses)`.
    ///
    /// # Errors
    ///
    /// Returns an error if masses are negative/non-finite, the PMF is
    /// empty, or the total mass is not within `1e-6` of 1.
    pub fn from_pmf(offset: f64, step: f64, pmf: Vec<f64>) -> Result<Self, String> {
        if pmf.is_empty() {
            return Err("empty pmf".into());
        }
        if !(step > 0.0) || !step.is_finite() || !offset.is_finite() {
            return Err(format!("bad grid offset {offset} / step {step}"));
        }
        if pmf.iter().any(|&m| !m.is_finite() || m < 0.0) {
            return Err("pmf masses must be finite and ≥ 0".into());
        }
        let total: f64 = pmf.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!("pmf mass {total} is not 1"));
        }
        Ok(DiscreteDist { offset, step, pmf })
    }

    /// Grid origin (seconds).
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Grid step (seconds).
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The probability masses.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// `P(X ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t < self.offset {
            return 0.0;
        }
        // Nudge before flooring so exact grid points land in their own bin
        // despite floating-point rounding of (t − offset)/step.
        let k = ((t - self.offset) / self.step + 1e-6).floor() as usize;
        if k + 1 >= self.pmf.len() {
            return 1.0;
        }
        self.pmf[..=k].iter().sum::<f64>().min(1.0)
    }

    /// Mean of the gridded distribution (seconds).
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(k, &m)| m * (self.offset + k as f64 * self.step))
            .sum()
    }

    /// Distribution of the sum of two independent gridded variables.
    ///
    /// Both inputs must share the same `step`.
    ///
    /// # Panics
    ///
    /// Panics if the steps differ by more than one part in 10⁹.
    pub fn convolve(&self, other: &DiscreteDist) -> DiscreteDist {
        assert!(
            (self.step - other.step).abs() <= 1e-9 * self.step,
            "grid steps differ: {} vs {}",
            self.step,
            other.step
        );
        let n = self.pmf.len() + other.pmf.len() - 1;
        let mut pmf = vec![0.0; n];
        for (i, &a) in self.pmf.iter().enumerate() {
            // A PMF bin with exactly zero mass is structurally empty; skipping
            // it is lossless.
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pmf.iter().enumerate() {
                pmf[i + j] += a * b;
            }
        }
        DiscreteDist {
            offset: self.offset + other.offset,
            step: self.step,
            pmf,
        }
    }

    /// Precomputes the running CDF over the grid for repeated queries.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.pmf
            .iter()
            .map(|&m| {
                acc += m;
                acc.min(1.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ConstantDelay, ShiftedGamma, UniformDelay};

    #[test]
    fn constant_discretizes_to_point_mass() {
        let d = DiscreteDist::from_delay(&ConstantDelay::new(0.25), 0.001);
        let total: f64 = d.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.cdf(0.24), 0.0);
        assert_eq!(d.cdf(0.26), 1.0);
        assert!((d.mean() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn gamma_discretization_tracks_cdf() {
        let g = ShiftedGamma::new(10.0, 0.004, 0.400).unwrap();
        let d = DiscreteDist::from_delay(&g, 0.0005);
        for &t in &[0.42, 0.44, 0.46, 0.48] {
            assert!(
                (d.cdf(t) - g.cdf(t)).abs() < 0.02,
                "at {t}: grid {} exact {}",
                d.cdf(t),
                g.cdf(t)
            );
        }
        let total: f64 = d.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_of_constants_is_constant_sum() {
        let a = DiscreteDist::from_delay(&ConstantDelay::new(0.1), 0.001);
        let b = DiscreteDist::from_delay(&ConstantDelay::new(0.2), 0.001);
        let s = a.convolve(&b);
        assert!((s.mean() - 0.3).abs() < 1e-9);
        assert_eq!(s.cdf(0.29), 0.0);
        assert_eq!(s.cdf(0.31), 1.0);
    }

    #[test]
    fn convolution_preserves_mass_and_mean() {
        let a = DiscreteDist::from_delay(&UniformDelay::new(0.0, 0.1), 0.001);
        let g = ShiftedGamma::new(5.0, 0.002, 0.1).unwrap();
        let b = DiscreteDist::from_delay(&g, 0.001);
        let s = a.convolve(&b);
        let total: f64 = s.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        let want_mean = 0.05 + g.mean();
        assert!(
            (s.mean() - want_mean).abs() < 2e-3,
            "mean {} want {want_mean}",
            s.mean()
        );
    }

    #[test]
    fn convolution_against_analytic_gamma_sum() {
        // Gamma(a1, β) + Gamma(a2, β) = Gamma(a1+a2, β) for equal scales.
        let g1 = ShiftedGamma::new(3.0, 0.002, 0.0).unwrap();
        let g2 = ShiftedGamma::new(4.0, 0.002, 0.0).unwrap();
        let sum_exact = ShiftedGamma::new(7.0, 0.002, 0.0).unwrap();
        let d1 = DiscreteDist::from_delay(&g1, 0.0002);
        let d2 = DiscreteDist::from_delay(&g2, 0.0002);
        let conv = d1.convolve(&d2);
        for &t in &[0.008, 0.012, 0.016, 0.020] {
            assert!(
                (conv.cdf(t) - sum_exact.cdf(t)).abs() < 0.02,
                "at {t}: conv {} exact {}",
                conv.cdf(t),
                sum_exact.cdf(t)
            );
        }
    }

    #[test]
    fn from_pmf_validation() {
        assert!(DiscreteDist::from_pmf(0.0, 0.001, vec![]).is_err());
        assert!(DiscreteDist::from_pmf(0.0, 0.001, vec![0.5, 0.4]).is_err());
        assert!(DiscreteDist::from_pmf(0.0, -1.0, vec![1.0]).is_err());
        assert!(DiscreteDist::from_pmf(0.0, 0.001, vec![0.5, 0.5]).is_ok());
    }

    #[test]
    fn cumulative_matches_cdf() {
        let g = ShiftedGamma::new(5.0, 0.002, 0.1).unwrap();
        let d = DiscreteDist::from_delay(&g, 0.001);
        let cum = d.cumulative();
        for (k, &c) in cum.iter().enumerate() {
            let t = d.offset() + k as f64 * d.step();
            assert!((c - d.cdf(t)).abs() < 1e-9, "bin {k}");
        }
    }
}
