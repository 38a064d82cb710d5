//! Method-of-moments fitting of a shifted gamma distribution
//! (paper §VIII-A: "its parameters can be estimated through regression
//! analysis"; we use the simpler and robust moment matching the paper's
//! reference [26] also evaluates).

use crate::dist::ShiftedGamma;
use crate::moments::OnlineMoments;

/// Result of fitting a shifted gamma to delay samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaFit {
    /// Fitted distribution.
    pub dist: ShiftedGamma,
    /// Number of samples used.
    pub samples: u64,
}

/// Fits `d = η + Gamma(α, β)` to observed delays by method of moments.
///
/// The shift is estimated as the sample minimum deflated by a small margin
/// (the true shift can never exceed the minimum observation), then
/// `α = m²/v`, `β = v/m` with `m`, `v` the mean and variance of the excess
/// delay above the shift.
///
/// # Errors
///
/// Returns `None` when fewer than 8 samples are available or the excess
/// variance is degenerate (all samples equal — use a constant delay
/// instead).
pub fn fit_shifted_gamma(moments: &OnlineMoments) -> Option<GammaFit> {
    if moments.count() < 8 {
        return None;
    }
    // Deflate the observed minimum slightly so the smallest sample keeps a
    // nonzero excess; 1% of the spread is a pragmatic margin.
    let spread = (moments.max() - moments.min()).max(1e-9);
    let shift = (moments.min() - 0.01 * spread).max(0.0);
    let m = moments.mean() - shift;
    let v = moments.population_variance();
    if m <= 0.0 || v <= 0.0 {
        return None;
    }
    let shape = m * m / v;
    let scale = v / m;
    let dist = ShiftedGamma::new(shape, scale, shift).ok()?;
    Some(GammaFit {
        dist,
        samples: moments.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Delay;
    use crate::rng::Xoshiro256;

    #[test]
    fn too_few_samples_is_none() {
        let mut m = OnlineMoments::new();
        for x in [0.1, 0.2, 0.3] {
            m.push(x);
        }
        assert!(fit_shifted_gamma(&m).is_none());
    }

    #[test]
    fn degenerate_samples_is_none() {
        let mut m = OnlineMoments::new();
        for _ in 0..100 {
            m.push(0.25);
        }
        assert!(fit_shifted_gamma(&m).is_none());
    }

    #[test]
    fn round_trip_recovers_parameters() {
        // Sample from a known shifted gamma and re-fit; moments should
        // match well even if (α, β) individually trade off against η.
        let truth = ShiftedGamma::new(10.0, 0.004, 0.400).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(99);
        let mut m = OnlineMoments::new();
        for _ in 0..100_000 {
            m.push(truth.sample(&mut rng));
        }
        let fit = fit_shifted_gamma(&m).expect("fit");
        assert!(
            (fit.dist.mean() - truth.mean()).abs() < 1e-3,
            "mean {} vs {}",
            fit.dist.mean(),
            truth.mean()
        );
        assert!(
            (fit.dist.variance() - truth.variance()).abs() < truth.variance() * 0.1,
            "var {} vs {}",
            fit.dist.variance(),
            truth.variance()
        );
        // CDF agreement at operating points (what the timeout optimizer
        // actually consumes).
        for &t in &[0.42, 0.44, 0.46] {
            assert!(
                (fit.dist.cdf(t) - truth.cdf(t)).abs() < 0.05,
                "cdf({t}): {} vs {}",
                fit.dist.cdf(t),
                truth.cdf(t)
            );
        }
    }
}
