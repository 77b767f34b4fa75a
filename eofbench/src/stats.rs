//! Timing statistics: median, quartiles and the highest percentile that
//! still has at least ten samples beyond it, always with the sample
//! count.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave above it to be reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least ten
    /// samples beyond it; 100 (the maximum) when even the median has
    /// fewer than ten samples above it.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            // The tolerance absorbs rounding in `100 - p` (99.9 is not
            // exact in binary).
            .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-6)
            .unwrap_or(100.0);
        Some(Summary {
            n,
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.50),
            p75: quantile(&sorted, 0.75),
            tail: quantile(&sorted, tail_pct / 100.0),
            tail_pct,
        })
    }

    /// Label of the tail percentile, e.g. `p99` or `max`.
    pub fn tail_label(&self) -> String {
        if self.tail_pct >= 100.0 {
            "max".to_string()
        } else {
            format!("p{}", self.tail_pct)
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

/// Quantile `q` of ascending `sorted` by linear interpolation between
/// the closest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn uniform_hundred() {
        // 1..=100 shuffled: order must not matter.
        let v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 100);
        assert!(close(s.p25, 25.75), "{s:?}");
        assert!(close(s.p50, 50.5), "{s:?}");
        assert!(close(s.p75, 75.25), "{s:?}");
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(s.tail_pct, 90.0);
        assert!(close(s.tail, 90.1), "{s:?}");
        assert_eq!(s.tail_label(), "p90");
    }

    #[test]
    fn thousand_samples_reach_p99() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert!(close(s.tail, 990.01), "{s:?}");
        assert!(close(s.p50, 500.5), "{s:?}");
    }

    #[test]
    fn ten_thousand_samples_reach_p99_9() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.tail_pct, 99.9);
        assert!(close(s.tail, 9990.001), "{s:?}");
    }

    #[test]
    fn exponential_tail_sits_far_above_median() {
        // Inverse-CDF samples of Exp(1) at evenly spaced probabilities:
        // median ln 2, p75 ln 4, p99.9 ln 1000 (up to the grid's
        // resolution).
        let n = 10_000;
        let v: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.p50 - 2f64.ln()).abs() < 1e-3, "{s:?}");
        assert!((s.p75 - 4f64.ln()).abs() < 1e-3, "{s:?}");
        assert_eq!(s.tail_pct, 99.9);
        assert!((s.tail - 1000f64.ln()).abs() < 0.05, "{s:?}");
    }

    #[test]
    fn constant_samples_collapse() {
        let s = Summary::of(&[3.5; 40]).unwrap();
        assert_eq!((s.p25, s.p50, s.p75, s.tail), (3.5, 3.5, 3.5, 3.5));
        assert_eq!(s.tail_pct, 75.0);
    }

    #[test]
    fn few_samples_report_the_maximum() {
        let s = Summary::of(&[4.0, 1.0, 9.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.tail, 9.0);
        assert_eq!(s.tail_label(), "max");
        // Twenty samples: the median is the first rung with ten beyond.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&twenty).unwrap().tail_pct, 50.0);
        assert_eq!(Summary::of(&twenty[..19]).unwrap().tail_pct, 100.0);
    }
}
