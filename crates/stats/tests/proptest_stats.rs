//! Property-based tests for the statistics substrate.

use dmc_obs::fnv1a;
use dmc_stats::rng::run_cases;
use dmc_stats::rng::Xoshiro256;
use dmc_stats::{
    fit_shifted_gamma, reg_gamma_lower, reg_gamma_upper, ConstantDelay, Delay, DiscreteDist,
    OnlineMoments, ShiftedGamma, UniformDelay,
};

/// P(a,·) is a CDF: 0 at 0, 1 at ∞, monotone, complementary to Q.
#[test]
fn regularized_gamma_is_a_cdf() {
    run_cases(fnv1a(b"regularized_gamma_is_a_cdf"), 64, |rng| {
        let a = rng.f64(0.05..80.0);
        let x1 = rng.f64(0.0..200.0);
        let x2 = rng.f64(0.0..200.0);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let p_lo = reg_gamma_lower(a, lo);
        let p_hi = reg_gamma_lower(a, hi);
        assert!((0.0..=1.0).contains(&p_lo));
        assert!(
            p_hi >= p_lo - 1e-12,
            "not monotone: P({a},{lo})={p_lo} > P({a},{hi})={p_hi}"
        );
        assert!((reg_gamma_lower(a, x1) + reg_gamma_upper(a, x1) - 1.0).abs() < 1e-10);
    });
}

/// Gamma recurrence P(a+1, x) = P(a, x) − xᵃe⁻ˣ/Γ(a+1).
#[test]
fn gamma_recurrence() {
    run_cases(fnv1a(b"gamma_recurrence"), 64, |rng| {
        let a = rng.f64(0.2..40.0);
        let x = rng.f64(0.01..80.0);
        let lhs = reg_gamma_lower(a + 1.0, x);
        let correction = (a * x.ln() - x - dmc_stats::ln_gamma(a + 1.0)).exp();
        let rhs = reg_gamma_lower(a, x) - correction;
        assert!((lhs - rhs).abs() < 1e-9, "a={a} x={x}: {lhs} vs {rhs}");
    });
}

/// Every Delay implementation: CDF bounded, monotone, respects
/// min_delay, and samples land in the support.
#[test]
fn delay_contract() {
    run_cases(fnv1a(b"delay_contract"), 64, |rng| {
        let shape = rng.f64(0.5..30.0);
        let scale = rng.f64(0.0005..0.05);
        let shift = rng.f64(0.0..0.5);
        let seed = rng.next_u64();
        let dists: Vec<Box<dyn Delay>> = vec![
            Box::new(ShiftedGamma::new(shape, scale, shift).expect("valid")),
            Box::new(ConstantDelay::new(shift)),
            Box::new(UniformDelay::new(shift, shift + scale * 10.0)),
        ];
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for d in &dists {
            assert!(d.cdf(d.min_delay() - 1e-9) < 1e-9);
            assert!(d.cdf(d.max_delay() + 1.0) > 0.999);
            let mut prev = 0.0;
            for k in 0..=20 {
                let t = d.min_delay() + (d.max_delay() - d.min_delay()) * k as f64 / 20.0;
                let c = d.cdf(t);
                assert!((0.0..=1.0).contains(&c));
                assert!(c >= prev - 1e-12);
                prev = c;
            }
            for _ in 0..50 {
                let s = d.sample(&mut rng);
                assert!(s >= d.min_delay() - 1e-12, "sample {s} below support");
            }
        }
    });
}

/// Discretization conserves mass and approximates the mean.
#[test]
fn discretization_conserves_mass() {
    run_cases(fnv1a(b"discretization_conserves_mass"), 64, |rng| {
        let shape = rng.f64(1.0..20.0);
        let scale = rng.f64(0.001..0.02);
        let shift = rng.f64(0.0..0.5);
        let g = ShiftedGamma::new(shape, scale, shift).expect("valid");
        let d = DiscreteDist::from_delay(&g, 0.0005);
        let mass: f64 = d.pmf().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
        assert!(
            (d.mean() - g.mean()).abs() < 0.002,
            "grid mean {} vs exact {}",
            d.mean(),
            g.mean()
        );
    });
}

/// Convolution: mass 1, mean additive, support additive.
#[test]
fn convolution_linearity() {
    run_cases(fnv1a(b"convolution_linearity"), 64, |rng| {
        let s1 = rng.f64(1.0..10.0);
        let s2 = rng.f64(1.0..10.0);
        let sh1 = rng.f64(0.0..0.3);
        let sh2 = rng.f64(0.0..0.3);
        let a = ShiftedGamma::new(s1, 0.002, sh1).expect("valid");
        let b = ShiftedGamma::new(s2, 0.002, sh2).expect("valid");
        let da = DiscreteDist::from_delay(&a, 0.001);
        let db = DiscreteDist::from_delay(&b, 0.001);
        let conv = da.convolve(&db);
        let mass: f64 = conv.pmf().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
        assert!((conv.mean() - (a.mean() + b.mean())).abs() < 0.005);
        assert!((conv.offset() - (sh1 + sh2)).abs() < 1e-9);
    });
}

/// Welford matches the two-pass computation on arbitrary data.
#[test]
fn welford_matches_two_pass() {
    run_cases(fnv1a(b"welford_matches_two_pass"), 64, |rng| {
        let xs = (0..rng.int(2usize..300))
            .map(|_| rng.f64(-1e6..1e6))
            .collect::<Vec<_>>();
        let mut m = OnlineMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!((m.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((m.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    });
}

/// Fitting recovers the first two moments of the sampled data.
#[test]
fn moment_fit_recovers_moments() {
    run_cases(fnv1a(b"moment_fit_recovers_moments"), 64, |rng| {
        let shape = rng.f64(2.0..20.0);
        let scale = rng.f64(0.001..0.01);
        let shift = rng.f64(0.05..0.5);
        let seed = rng.next_u64();
        let truth = ShiftedGamma::new(shape, scale, shift).expect("valid");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut m = OnlineMoments::new();
        for _ in 0..20_000 {
            m.push(truth.sample(&mut rng));
        }
        let fit = fit_shifted_gamma(&m).expect("enough samples");
        assert!((fit.dist.mean() - m.mean()).abs() < 1e-3);
        assert!(
            (fit.dist.variance() - m.population_variance()).abs()
                < 0.25 * m.population_variance() + 1e-9
        );
    });
}
