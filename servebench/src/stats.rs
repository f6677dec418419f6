//! The benchmark's own arithmetic: nearest-rank percentiles, the sample
//! support rule for tail percentiles, the windowed p99, medians, and the
//! `slo_qps` interpolation over the fixed rate ladder.

/// Samples a reported percentile needs strictly beyond it.
pub const TAIL_SUPPORT: usize = 10;

/// The nearest-rank `q`-th percentile (`q` in (0, 100]) of ascending
/// `sorted` samples: the `ceil(q/100 * n)`-th smallest value, so every
/// figure is a value that was observed. `None` when empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether the `q`-th percentile of `n` samples has at least
/// [`TAIL_SUPPORT`] samples above its rank.
pub fn tail_supported(n: usize, q: f64) -> bool {
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    n >= rank + TAIL_SUPPORT
}

/// Sort `samples` and return `(p50, p99)`, or `(0, 0)` when empty.
pub fn p50_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (
        nearest_rank(samples, 50.0).unwrap_or(0),
        nearest_rank(samples, 99.0).unwrap_or(0),
    )
}

/// Arrivals per p99 window where no workload rule says otherwise.
pub const P99_WINDOW: usize = 2000;

/// The nearest-rank p99 of one window of samples, reordering them.
pub fn window_p99(window: &mut [u64]) -> u64 {
    let rank = ((0.99 * window.len() as f64).ceil() as usize).clamp(1, window.len());
    *window.select_nth_unstable(rank - 1).1
}

/// The median, over consecutive windows of about `width` samples (in
/// arrival order; the remainder spreads over the windows), of each
/// window's nearest-rank p99, with the number of windows. A stall of the
/// host then moves the p99 of the windows it hits, not the figure, as
/// long as it hits fewer than half of them. `None` when a window is too
/// small to support a p99.
pub fn windowed_p99(samples: &[u64], width: usize) -> Option<(f64, usize)> {
    let k = (samples.len() / width.max(1)).max(1);
    let width = samples.len() / k;
    let mut p99s = Vec::with_capacity(k);
    for w in 0..k {
        let end = if w + 1 == k {
            samples.len()
        } else {
            (w + 1) * width
        };
        let mut window = samples[w * width..end].to_vec();
        if !tail_supported(window.len(), 99.0) {
            return None;
        }
        p99s.push(window_p99(&mut window) as f64);
    }
    Some((median(&p99s), k))
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One rung of the fixed rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate (queries per second).
    pub qps: f64,
    /// Measured p99 latency (ms).
    pub p99_ms: f64,
    /// Whether completions kept pace with arrivals (no growing backlog).
    pub kept_up: bool,
}

impl Rung {
    fn meets(&self, limit_ms: f64) -> bool {
        self.kept_up && self.p99_ms <= limit_ms
    }
}

/// Where the latency limit falls on the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slo {
    /// Even the lowest rung misses the limit.
    Below,
    /// The limit lies between two rungs; the interpolated rate.
    Between(f64),
    /// Every rung meets the limit; the top rung's rate is a lower bound.
    AtLeast(f64),
}

impl Slo {
    /// The figure reported as `slo_qps`.
    pub fn qps(self) -> f64 {
        match self {
            Slo::Below => 0.0,
            Slo::Between(q) | Slo::AtLeast(q) => q,
        }
    }
}

/// The highest offered rate whose p99 meets `limit_ms` with no growing
/// backlog. `rungs` ascend in rate. Below the first rung that misses,
/// the rate is interpolated between that rung and the one beneath it:
/// linearly in p99 and geometrically in rate, since the ladder's rates
/// span orders of magnitude. A rung that misses only by falling behind
/// (its p99 is within the limit) pins the answer to the rung beneath.
pub fn slo_qps(rungs: &[Rung], limit_ms: f64) -> Slo {
    let Some(fail) = rungs.iter().position(|r| !r.meets(limit_ms)) else {
        return rungs.last().map_or(Slo::Below, |r| Slo::AtLeast(r.qps));
    };
    if fail == 0 {
        return Slo::Below;
    }
    let (lo, hi) = (rungs[fail - 1], rungs[fail]);
    if hi.p99_ms <= lo.p99_ms || hi.p99_ms <= limit_ms {
        return Slo::Between(lo.qps);
    }
    let t = (limit_ms - lo.p99_ms) / (hi.p99_ms - lo.p99_ms);
    Slo::Between(lo.qps * (hi.qps / lo.qps).powf(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
        assert_eq!(nearest_rank(&v, 99.0), Some(99));
        assert_eq!(nearest_rank(&v, 100.0), Some(100));
        assert_eq!(nearest_rank(&[7], 99.0), Some(7));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // 10 samples: the median is the 5th value, not an average.
        let v: Vec<u64> = (1..=10).map(|x| x * 10).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(!tail_supported(100, 99.0));
        // p50 of 20 samples is rank 10: ten beyond.
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
        assert!(!tail_supported(0, 50.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_p99_ignores_a_burst_in_one_window() {
        // 5 windows of 2000; one window's worst 10% are huge.
        let mut v: Vec<u64> = (0..10_000).map(|i| i % 100).collect();
        for x in &mut v[2000..2200] {
            *x = 1_000_000;
        }
        let (p99, windows) = windowed_p99(&v, 2000).expect("supported");
        assert_eq!(windows, 5);
        assert_eq!(p99, 98.0);
        // The plain p99 is taken over by the burst.
        let mut all = v.clone();
        all.sort_unstable();
        assert_eq!(nearest_rank(&all, 99.0), Some(1_000_000));
    }

    #[test]
    fn window_p99_matches_nearest_rank() {
        let mut v: Vec<u64> = (1..=2000).rev().collect();
        assert_eq!(window_p99(&mut v), 1980);
        assert_eq!(window_p99(&mut [5]), 5);
    }

    #[test]
    fn windowed_p99_needs_support_in_every_window() {
        assert!(windowed_p99(&[1; 999], 2000).is_none());
        assert_eq!(windowed_p99(&[3; 1000], 2000), Some((3.0, 1)));
        assert!(windowed_p99(&[3; 2500], 1200).is_some());
        // Two windows of 750: neither supports a p99.
        assert!(windowed_p99(&[3; 1500], 700).is_none());
        // A remainder widens the windows instead of adding a short one.
        assert_eq!(windowed_p99(&[1; 4999], 2000).map(|(_, k)| k), Some(2));
    }

    fn rung(qps: f64, p99_ms: f64) -> Rung {
        Rung {
            qps,
            p99_ms,
            kept_up: true,
        }
    }

    #[test]
    fn slo_interpolates_between_the_bracketing_rungs() {
        let rungs = [rung(1000.0, 1.0), rung(2000.0, 2.0), rung(8000.0, 6.0)];
        // Limit 4 ms lies halfway from 2 ms to 6 ms: halfway from 2000 to
        // 8000 qps on a geometric scale.
        assert_eq!(slo_qps(&rungs, 4.0), Slo::Between(4000.0));
        // Limit exactly at a rung's p99: that rung meets.
        assert_eq!(slo_qps(&rungs, 2.0), Slo::Between(2000.0));
    }

    #[test]
    fn slo_when_no_rung_meets_the_limit() {
        let rungs = [rung(1000.0, 5.0), rung(2000.0, 9.0)];
        assert_eq!(slo_qps(&rungs, 4.0), Slo::Below);
        assert_eq!(slo_qps(&rungs, 4.0).qps(), 0.0);
        assert_eq!(slo_qps(&[], 4.0), Slo::Below);
    }

    #[test]
    fn slo_when_every_rung_meets_the_limit() {
        let rungs = [rung(1000.0, 1.0), rung(2000.0, 2.0)];
        assert_eq!(slo_qps(&rungs, 4.0), Slo::AtLeast(2000.0));
    }

    #[test]
    fn slo_stops_at_a_rung_that_falls_behind() {
        // The middle rung's p99 is within the limit but its backlog grew:
        // it fails, and the answer is the rung beneath it.
        let mut behind = rung(2000.0, 3.0);
        behind.kept_up = false;
        let rungs = [rung(1000.0, 1.0), behind, rung(3000.0, 2.0)];
        assert_eq!(slo_qps(&rungs, 4.0), Slo::Between(1000.0));
    }
}
