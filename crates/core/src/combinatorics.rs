//! Exact and log-space combinatorics used by the PBS closed forms.
//!
//! The quorum formulas divide binomial coefficients whose magnitudes explode
//! well before `N = 100` (the paper's §2.1 example uses `N=100, R=W=30`).
//! We therefore compute ratios in log space via a Lanczos `ln Γ`
//! approximation; the exact `u128` [`choose_exact`] is the reference the
//! log-space path is tested against.

/// Lanczos coefficients for `g = 7`, giving ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the Gamma function for `x ≥ 0.5`, by the Lanczos
/// approximation. Its one caller, [`ln_factorial`], passes `x ≥ 22`, so
/// the reflection formula for smaller `x` is not needed.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x >= 0.5, "ln_gamma requires x >= 0.5, got {x}");
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(n!)` for non-negative `n`.
pub fn ln_factorial(n: u64) -> f64 {
    // Small values come from an exact table so unit tests can rely on
    // bit-exact results for the common quorum sizes.
    const TABLE: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5_040.0,
        40_320.0,
        362_880.0,
        3_628_800.0,
        39_916_800.0,
        479_001_600.0,
        6_227_020_800.0,
        87_178_291_200.0,
        1_307_674_368_000.0,
        20_922_789_888_000.0,
        355_687_428_096_000.0,
        6_402_373_705_728_000.0,
        121_645_100_408_832_000.0,
        2_432_902_008_176_640_000.0,
    ];
    if (n as usize) < TABLE.len() {
        TABLE[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// `ln C(n, k)`; returns `f64::NEG_INFINITY` when the coefficient is zero
/// (`k > n`).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Exact binomial coefficient in `u128`, or `None` on overflow.
///
/// Uses the multiplicative formula with interleaved division so intermediate
/// values stay minimal; exact for every coefficient that fits in `u128`.
pub fn choose_exact(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // acc * (n - i) is exact before division because acc already contains
        // C(n, i) and C(n, i) * (n - i) = C(n, i + 1) * (i + 1).
        acc = acc.checked_mul((n - i) as u128)? / (i as u128 + 1);
    }
    Some(acc)
}

/// Ratio `C(a, k) / C(b, k)` computed in log space.
///
/// This is the building block of every PBS closed form: Eq. 1 is
/// `choose_ratio(N − W, N, R)`. Returns `0.0` when the numerator vanishes
/// (`k > a`), and panics in debug builds if the denominator vanishes.
pub fn choose_ratio(a: u64, b: u64, k: u64) -> f64 {
    debug_assert!(k <= b, "denominator C({b},{k}) must be nonzero");
    if k > a {
        return 0.0;
    }
    if a == b {
        return 1.0;
    }
    (ln_choose(a, k) - ln_choose(b, k)).exp()
}

/// Binomial pmf `C(n, k) p^k (1-p)^(n-k)` evaluated stably in log space.
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..=20 {
            let exact = ln_factorial(n);
            let lg = ln_gamma(n as f64 + 1.0);
            assert!(
                (exact - lg).abs() < 1e-9,
                "n={n}: table {exact} vs lanczos {lg}"
            );
        }
    }

    #[test]
    fn choose_small_values() {
        assert_eq!(choose_exact(0, 0), Some(1));
        assert_eq!(choose_exact(5, 0), Some(1));
        assert_eq!(choose_exact(5, 5), Some(1));
        assert_eq!(choose_exact(5, 2), Some(10));
        assert_eq!(choose_exact(10, 3), Some(120));
        assert_eq!(choose_exact(52, 5), Some(2_598_960));
        assert_eq!(choose_exact(3, 7), Some(0));
    }

    #[test]
    fn choose_exact_vs_log_space() {
        for n in 0u64..=60 {
            for k in 0..=n {
                let exact = choose_exact(n, k).unwrap() as f64;
                let approx = ln_choose(n, k).exp();
                let rel = (exact - approx).abs() / exact.max(1.0);
                assert!(rel < 1e-9, "C({n},{k}): {exact} vs {approx}");
            }
        }
    }

    #[test]
    fn choose_exact_large_overflow_is_none() {
        // C(200, 100) ≈ 9e58 > u128::MAX? u128 max ≈ 3.4e38, so this must
        // overflow.
        assert_eq!(choose_exact(200, 100), None);
        // …but the log-space path still produces a finite value.
        let ln = ln_choose(200, 100);
        assert!(ln.is_finite() && ln > 58.0 * std::f64::consts::LN_10);
    }

    #[test]
    fn choose_ratio_paper_example() {
        // §2.1: N=100, R=W=30 → p_s = C(70,30)/C(100,30) ≈ 1.88e-6.
        let ps = choose_ratio(70, 100, 30);
        assert!((ps / 1.88e-6 - 1.0).abs() < 0.01, "got {ps}");
        // §2.1: N=3, R=W=1 → p_s = C(2,1)/C(3,1) = 2/3. (The paper prints
        // "0.6" with an overline — the repeating decimal 0.666…)
        assert!((choose_ratio(2, 3, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((choose_ratio(1, 3, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &p in &[0.0, 0.3, 0.5, 0.99, 1.0] {
            let sum: f64 = (0..=25).map(|k| binomial_pmf(25, k, p)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "p={p}: sum={sum}");
        }
    }

    #[test]
    fn binomial_pmf_degenerate() {
        assert_eq!(binomial_pmf(10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(10, 10, 1.0), 1.0);
        assert_eq!(binomial_pmf(10, 3, 0.0), 0.0);
    }
}
