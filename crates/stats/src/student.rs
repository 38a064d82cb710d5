//! Student-t special functions for trial-level confidence intervals.
//!
//! The Monte-Carlo engine reports `mean ± t_{1−α/2, ν} · s/√n` intervals
//! over independent trials; no offline crate provides the t quantile, so
//! the regularized incomplete beta function is implemented here (Lentz
//! continued fraction, the classic numerical-recipes formulation) and the
//! quantile is obtained by monotone bisection on the exact CDF.

use crate::gamma::ln_gamma;

/// Natural log of the complete beta function `B(a, b)`.
fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Continued-fraction kernel for the incomplete beta (NR `betacf`).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x ∈ [0, 1]`.
///
/// # Panics
///
/// Panics if `a` or `b` is not positive, or `x` is outside `[0, 1]`.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must be in [0, 1], got {x}");
    // Regularized incomplete beta: the exact endpoint x == 0 short-circuits
    // to the exact value 0.
    if x == 0.0 {
        return 0.0;
    }
    #[expect(
        clippy::float_cmp,
        reason = "regularized incomplete beta: the exact endpoint x == 1 short-circuits to the exact value 1"
    )]
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = -ln_beta(a, b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // The continued fraction converges fast only on one side of the mean;
    // use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// CDF of the Student-t distribution with `df` degrees of freedom.
///
/// # Panics
///
/// Panics if `df` is not positive or `t` is NaN.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    assert!(!t.is_nan(), "t is NaN");
    if t.is_infinite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let half_tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, df / (df + t * t));
    if t >= 0.0 {
        1.0 - half_tail
    } else {
        half_tail
    }
}

/// Quantile (inverse CDF) of the Student-t distribution: the `t` with
/// `P(T ≤ t) = p`, found by bisection on the exact CDF (the CDF is
/// strictly monotone, so 200 halvings pin ~16 significant digits).
///
/// # Panics
///
/// Panics if `df` is not positive or `p` is outside `(0, 1)`.
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");
    if (p - 0.5).abs() < 1e-16 {
        return 0.0;
    }
    // Symmetry: solve in the upper half only.
    if p < 0.5 {
        return -student_t_quantile(1.0 - p, df);
    }
    // Bracket: double until the CDF crosses p (df = 1 needs hundreds for
    // far tails; cap well beyond any confidence level in practical use).
    let mut hi = 1.0f64;
    while student_t_cdf(hi, df) < p && hi < 1e12 {
        hi *= 2.0;
    }
    let mut lo = 0.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_identities() {
        // I_x(1, 1) = x (uniform CDF).
        for x in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert!((reg_inc_beta(1.0, 1.0, x) - x).abs() < 1e-12, "x = {x}");
        }
        // I_x(a, b) + I_{1−x}(b, a) = 1.
        for (a, b, x) in [(2.5, 0.5, 0.3), (10.0, 0.5, 0.9), (0.5, 0.5, 0.2)] {
            let s = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x);
            assert!((s - 1.0).abs() < 1e-12, "a={a} b={b} x={x}: {s}");
        }
        // I_x(1/2, 1/2) = (2/π)·asin(√x) (arcsine law).
        for x in [0.1f64, 0.25, 0.8] {
            let want = 2.0 / std::f64::consts::PI * x.sqrt().asin();
            assert!((reg_inc_beta(0.5, 0.5, x) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn t_cdf_matches_closed_forms() {
        // df = 1 is Cauchy: F(t) = 1/2 + atan(t)/π.
        for t in [-5.0f64, -1.0, 0.0, 0.5, 3.0] {
            let want = 0.5 + t.atan() / std::f64::consts::PI;
            assert!(
                (student_t_cdf(t, 1.0) - want).abs() < 1e-12,
                "t = {t}: {} vs {want}",
                student_t_cdf(t, 1.0)
            );
        }
        // df = 2: F(t) = 1/2 (1 + t/√(t²+2)).
        for t in [-3.0f64, 0.0, 1.0, 4.0] {
            let want = 0.5 * (1.0 + t / (t * t + 2.0).sqrt());
            assert!((student_t_cdf(t, 2.0) - want).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn quantiles_match_standard_tables() {
        // Two-sided 95 % critical values t_{0.975, ν}.
        for (df, want) in [
            (1.0, 12.7062),
            (2.0, 4.3027),
            (5.0, 2.5706),
            (10.0, 2.2281),
            (30.0, 2.0423),
            (100.0, 1.9840),
        ] {
            let got = student_t_quantile(0.975, df);
            assert!((got - want).abs() < 5e-4, "ν = {df}: {got} vs {want}");
        }
        // Approaches the normal quantile for large ν.
        assert!((student_t_quantile(0.975, 1e6) - 1.959_96).abs() < 1e-3);
        // 99 % one-sided, ν = 5: 3.3649.
        assert!((student_t_quantile(0.99, 5.0) - 3.3649).abs() < 5e-4);
    }

    #[test]
    fn quantile_inverts_cdf_and_is_symmetric() {
        for df in [1.0, 3.0, 7.0, 29.0] {
            for p in [0.05, 0.25, 0.5, 0.9, 0.995] {
                let t = student_t_quantile(p, df);
                assert!(
                    (student_t_cdf(t, df) - p).abs() < 1e-10,
                    "df={df} p={p}: cdf(q) = {}",
                    student_t_cdf(t, df)
                );
            }
            let a = student_t_quantile(0.9, df);
            let b = student_t_quantile(0.1, df);
            assert!((a + b).abs() < 1e-10, "asymmetric quantiles at df={df}");
        }
    }
}
