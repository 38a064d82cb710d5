//! Property-based tests for the statistics substrate.

use dmc_stats::rng::Xoshiro256;
use dmc_stats::{
    fit_shifted_gamma, reg_gamma_lower, reg_gamma_upper, ConstantDelay, Delay, DiscreteDist,
    OnlineMoments, ShiftedGamma, UniformDelay,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// P(a,·) is a CDF: 0 at 0, 1 at ∞, monotone, complementary to Q.
    #[test]
    fn regularized_gamma_is_a_cdf(a in 0.05f64..80.0, x1 in 0.0f64..200.0, x2 in 0.0f64..200.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let p_lo = reg_gamma_lower(a, lo);
        let p_hi = reg_gamma_lower(a, hi);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!(p_hi >= p_lo - 1e-12, "not monotone: P({a},{lo})={p_lo} > P({a},{hi})={p_hi}");
        prop_assert!((reg_gamma_lower(a, x1) + reg_gamma_upper(a, x1) - 1.0).abs() < 1e-10);
    }

    /// Gamma recurrence P(a+1, x) = P(a, x) − xᵃe⁻ˣ/Γ(a+1).
    #[test]
    fn gamma_recurrence(a in 0.2f64..40.0, x in 0.01f64..80.0) {
        let lhs = reg_gamma_lower(a + 1.0, x);
        let correction = (a * x.ln() - x - dmc_stats::ln_gamma(a + 1.0)).exp();
        let rhs = reg_gamma_lower(a, x) - correction;
        prop_assert!((lhs - rhs).abs() < 1e-9, "a={a} x={x}: {lhs} vs {rhs}");
    }

    /// Every Delay implementation: CDF bounded, monotone, respects
    /// min_delay, and samples land in the support.
    #[test]
    fn delay_contract(shape in 0.5f64..30.0, scale in 0.0005f64..0.05, shift in 0.0f64..0.5,
                      seed in any::<u64>()) {
        let dists: Vec<Box<dyn Delay>> = vec![
            Box::new(ShiftedGamma::new(shape, scale, shift).expect("valid")),
            Box::new(ConstantDelay::new(shift)),
            Box::new(UniformDelay::new(shift, shift + scale * 10.0)),
        ];
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for d in &dists {
            prop_assert!(d.cdf(d.min_delay() - 1e-9) < 1e-9);
            prop_assert!(d.cdf(d.max_delay() + 1.0) > 0.999);
            let mut prev = 0.0;
            for k in 0..=20 {
                let t = d.min_delay() + (d.max_delay() - d.min_delay()) * k as f64 / 20.0;
                let c = d.cdf(t);
                prop_assert!((0.0..=1.0).contains(&c));
                prop_assert!(c >= prev - 1e-12);
                prev = c;
            }
            for _ in 0..50 {
                let s = d.sample(&mut rng);
                prop_assert!(s >= d.min_delay() - 1e-12, "sample {s} below support");
            }
        }
    }

    /// Discretization conserves mass and approximates the mean.
    #[test]
    fn discretization_conserves_mass(shape in 1.0f64..20.0, scale in 0.001f64..0.02,
                                     shift in 0.0f64..0.5) {
        let g = ShiftedGamma::new(shape, scale, shift).expect("valid");
        let d = DiscreteDist::from_delay(&g, 0.0005);
        let mass: f64 = d.pmf().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!((d.mean() - g.mean()).abs() < 0.002,
            "grid mean {} vs exact {}", d.mean(), g.mean());
    }

    /// Convolution: mass 1, mean additive, support additive.
    #[test]
    fn convolution_linearity(s1 in 1.0f64..10.0, s2 in 1.0f64..10.0,
                             sh1 in 0.0f64..0.3, sh2 in 0.0f64..0.3) {
        let a = ShiftedGamma::new(s1, 0.002, sh1).expect("valid");
        let b = ShiftedGamma::new(s2, 0.002, sh2).expect("valid");
        let da = DiscreteDist::from_delay(&a, 0.001);
        let db = DiscreteDist::from_delay(&b, 0.001);
        let conv = da.convolve(&db);
        let mass: f64 = conv.pmf().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!((conv.mean() - (a.mean() + b.mean())).abs() < 0.005);
        prop_assert!((conv.offset() - (sh1 + sh2)).abs() < 1e-9);
    }

    /// Welford matches the two-pass computation on arbitrary data.
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut m = OnlineMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((m.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((m.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// Fitting recovers the first two moments of the sampled data.
    #[test]
    fn moment_fit_recovers_moments(shape in 2.0f64..20.0, scale in 0.001f64..0.01,
                                   shift in 0.05f64..0.5, seed in any::<u64>()) {
        let truth = ShiftedGamma::new(shape, scale, shift).expect("valid");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut m = OnlineMoments::new();
        for _ in 0..20_000 {
            m.push(truth.sample(&mut rng));
        }
        let fit = fit_shifted_gamma(&m).expect("enough samples");
        prop_assert!((fit.dist.mean() - m.mean()).abs() < 1e-3);
        prop_assert!((fit.dist.variance() - m.population_variance()).abs()
            < 0.25 * m.population_variance() + 1e-9);
    }
}
