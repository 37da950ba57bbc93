//! Order statistics and ratios, each reported with the counts behind it.
//!
//! Latency distributions use the Harrell–Davis quantile estimator: a
//! Beta-weighted average of every order statistic. Served latencies
//! come in timer-sized steps, and a plain sample median jumps a whole
//! step whenever the 50% point crosses one; the Harrell–Davis estimate
//! moves with the share of samples on each step instead.

use tigr_server::json::{obj, Json};

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for even counts), or
/// `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Harrell–Davis estimate of the `p` quantile (`0 < p < 1`) of
/// `samples`, or `None` when there are none.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= 1 {
        return sorted.first().copied();
    }
    let (a, b) = (p * (n as f64 + 1.0), (1.0 - p) * (n as f64 + 1.0));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n as f64);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// Regularized incomplete beta function `I_x(a, b)` (continued fraction,
/// modified Lentz).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - inc_beta(b, a, 1.0 - x);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    let tiny = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < tiny { tiny } else { d };
    let mut f = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < tiny { tiny } else { d };
            c = 1.0 + num / c;
            c = if c.abs() < tiny { tiny } else { c };
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * f / a
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
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
    if x < 0.5 {
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// A tail percentile together with the sample counts that support it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile reached, in `(0, max_pct]`.
    pub pct: f64,
    /// Harrell–Davis estimate at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's nearest rank (at least
    /// [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

impl Tail {
    /// The tail as a record entry.
    pub fn to_json(self) -> Json {
        obj([
            ("pct", self.pct.into()),
            ("value", self.value.into()),
            ("beyond", self.beyond.into()),
            ("n", self.n.into()),
        ])
    }
}

/// The highest percentile, at most `max_pct`, that has at least
/// [`TAIL_BEYOND`] samples beyond its nearest rank (`ceil(p·n/100)`),
/// with its Harrell–Davis estimate. `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist.
pub fn tail(samples: &[f64], max_pct: f64) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let capped = (max_pct * n as f64 / 100.0).ceil() as usize;
    let (rank, pct) = if capped >= 1 && n - capped.min(n) >= TAIL_BEYOND {
        (capped, max_pct)
    } else {
        let rank = n - TAIL_BEYOND;
        (rank, 100.0 * rank as f64 / n as f64)
    };
    Some(Tail {
        pct,
        value: quantile(&sorted, pct / 100.0)?,
        beyond: n - rank,
        n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A ratio that keeps its numerator and denominator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Ratio {
        Ratio {
            num: num.into(),
            den: den.into(),
        }
    }

    /// The quotient, or 0 when the denominator is 0 (nothing to divide
    /// means nothing happened, which the record shows through `den`).
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// The ratio as a record entry: value, numerator and denominator.
    pub fn to_json(self) -> Json {
        obj([
            ("value", self.value().into()),
            ("num", self.num.into()),
            ("den", self.den.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_empty_odd_even_and_unsorted_input() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[], 99.0), None);
        assert_eq!(tail(&ramp(10), 99.0), None);
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!((t.beyond, t.n), (10, 11));
        assert!(close(t.pct, 100.0 / 11.0, 1e-12));
        assert!(t.value > 1.0 && t.value < 3.0, "{t:?}");
    }

    #[test]
    fn tail_reaches_the_cap_exactly_when_ten_samples_lie_beyond() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.pct, t.beyond), (99.0, 10));
        assert!(close(t.value, 990.0, 1.5), "{t:?}");
        let t = tail(&ramp(200), 95.0).unwrap();
        assert_eq!((t.pct, t.beyond), (95.0, 10));
        let t = tail(&ramp(5000), 95.0).unwrap();
        assert_eq!((t.pct, t.beyond), (95.0, 250));
        assert!(close(t.value, 4750.0, 1.5), "{t:?}");
    }

    #[test]
    fn tail_falls_back_below_the_cap_when_the_run_is_short() {
        // ceil(0.99 * 999) = 990 leaves only 9 beyond, so the tail drops
        // to rank 989 with exactly ten beyond.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!(t.beyond, 10);
        assert!(t.pct < 99.0 && t.pct > 98.9);
        let t = tail(&ramp(199), 95.0).unwrap();
        assert_eq!(t.beyond, 10);
        assert!(t.pct < 95.0);
    }

    #[test]
    fn tail_counts_ties_by_rank_and_ignores_input_order() {
        let mut samples = vec![5.0; 20];
        samples.extend([1.0; 5]);
        samples.reverse();
        let t = tail(&samples, 99.0).unwrap();
        assert_eq!((t.beyond, t.n), (10, 25));
        assert!(close(t.value, 5.0, 1e-3), "{t:?}");
    }

    #[test]
    fn quantile_is_exact_on_constants_and_symmetric_data() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[4.0], 0.5), Some(4.0));
        assert!(close(quantile(&[7.0; 30], 0.5).unwrap(), 7.0, 1e-9));
        assert!(close(quantile(&ramp(101), 0.5).unwrap(), 51.0, 1e-9));
        let q90 = quantile(&ramp(1000), 0.9).unwrap();
        assert!(close(q90, 900.5, 1.0), "{q90}");
    }

    /// On two-step data the estimate moves with the share of samples on
    /// the upper step instead of jumping from one step to the other.
    #[test]
    fn quantile_is_smooth_across_a_step() {
        let at = |upper: usize| {
            let mut v = vec![56.0; 300 - upper];
            v.extend(vec![60.0; upper]);
            quantile(&v, 0.5).unwrap()
        };
        let (low, mid, high) = (at(145), at(150), at(155));
        assert!(
            56.0 < low && low < mid && mid < high && high < 60.0,
            "{low} {mid} {high}"
        );
        assert!(close(mid, 58.0, 1e-6));
        // A plain median jumps the whole 4 ms step between 149 and 151.
        assert!(high - low < 2.5, "{low} -> {high}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (x, fact) in [(1.0, 1.0f64), (5.0, 24.0), (11.0, 3_628_800.0)] {
            assert!(close(ln_gamma(x), fact.ln(), 1e-10));
        }
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-10
        ));
    }

    #[test]
    fn ratio_keeps_its_base_and_survives_a_zero_denominator() {
        let r = Ratio::new(3u32, 4u32);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_json().to_string(), r#"{"den":4,"num":3,"value":0.75}"#);
        let empty = Ratio::new(0u32, 0u32);
        assert_eq!(empty.value(), 0.0);
        assert_eq!(empty.to_json().get("den").and_then(Json::as_f64), Some(0.0));
    }
}
