//! Timing and table-rendering utilities shared by all experiments, and
//! the open-loop [`load`] harness shared by the serving experiments.

use std::time::{Duration, Instant};

pub mod load;

/// Experiment scale: `Quick` finishes in seconds (CI-friendly); `Full`
/// uses the FT-scale collection the paper's numbers refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs, sub-second runs.
    Quick,
    /// FT-scale inputs (tens of seconds).
    Full,
}

impl Scale {
    /// Parse from a `--full` flag presence.
    pub fn from_full_flag(full: bool) -> Scale {
        if full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}

/// Median wall-clock time of `k` runs of `f` (after one warm-up run).
pub fn time_median(k: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..k.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Interleaved best-of-`k` timing of several alternatives: each round
/// times every routine once back to back, and each routine keeps its
/// fastest round. Interleaving cancels machine drift *between* the
/// alternatives (a slowdown mid-measurement hits all of them), and the
/// minimum is the classic noise-robust statistic on a shared, preemptible
/// host — the fastest observed run is the one least disturbed by
/// scheduling. One untimed warm-up round precedes measurement. Returns
/// one duration per routine, in input order.
pub fn time_best_interleaved(k: usize, routines: &mut [&mut dyn FnMut()]) -> Vec<Duration> {
    for f in routines.iter_mut() {
        f(); // warm-up
    }
    let mut best = vec![Duration::MAX; routines.len()];
    for _ in 0..k.max(1) {
        for (i, f) in routines.iter_mut().enumerate() {
            let t0 = Instant::now();
            f();
            best[i] = best[i].min(t0.elapsed());
        }
    }
    best
}

/// Latency percentiles over a set of samples.
///
/// Nearest-rank on the sorted samples (`⌈p/100 · len⌉`-th value): every
/// reported figure is a latency that actually occurred — no
/// interpolation inventing values between observations — and the p100
/// tail is the true maximum. The convention serving dashboards use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median (p50).
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum observed (p100).
    pub max: Duration,
}

impl Percentiles {
    /// Compute nearest-rank percentiles. Returns `None` on an empty
    /// sample set — there is no latency distribution to summarize, and
    /// zeros would read as measurements.
    pub fn of(samples: &mut [Duration]) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        samples.sort();
        let at = |p: f64| {
            let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        Some(Percentiles {
            p50: at(50.0),
            p95: at(95.0),
            p99: at(99.0),
            max: samples[samples.len() - 1],
        })
    }
}

/// A paper-style result table: fixed headers, aligned text rendering, and
/// free-form claim-check notes underneath.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (e.g. "E1: fragmentation speed/quality trade-off").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
    /// Claim-check notes rendered under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table {:?}",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Append a claim-check note.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Table {
        self.notes.push(s.into());
        self
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("   {n}\n"));
        }
        out
    }

    /// Render as CSV (headers + rows; notes become `# comment` lines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a note"));
        // All rows align on the widest cell.
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines[1].len() == lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_contains_rows_and_notes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("claim ok");
        let csv = t.to_csv();
        assert!(csv.starts_with("# claim ok\n"));
        assert!(csv.contains("a,b\n"));
        assert!(csv.contains("1,2\n"));
    }

    #[test]
    fn median_timer_runs() {
        let mut count = 0;
        let d = time_median(3, || count += 1);
        assert_eq!(count, 4); // 1 warm-up + 3 samples
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500us");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn percentiles_use_nearest_rank_on_observed_samples() {
        // 100 distinct samples: 1us..=100us. Nearest-rank p50 is the
        // 50th value, p95 the 95th, p99 the 99th, max the 100th.
        let mut samples: Vec<Duration> = (1..=100).rev().map(Duration::from_micros).collect();
        let p = Percentiles::of(&mut samples).expect("non-empty");
        assert_eq!(p.p50, Duration::from_micros(50));
        assert_eq!(p.p95, Duration::from_micros(95));
        assert_eq!(p.p99, Duration::from_micros(99));
        assert_eq!(p.max, Duration::from_micros(100));
    }

    #[test]
    fn percentiles_of_one_sample_are_that_sample() {
        let mut samples = vec![Duration::from_micros(7)];
        let p = Percentiles::of(&mut samples).expect("non-empty");
        assert_eq!(p.p50, Duration::from_micros(7));
        assert_eq!(p.p99, Duration::from_micros(7));
        assert_eq!(p.max, Duration::from_micros(7));
    }

    #[test]
    fn percentiles_of_nothing_are_none() {
        assert_eq!(Percentiles::of(&mut []), None);
    }

    #[test]
    fn scale_flag() {
        assert_eq!(Scale::from_full_flag(true), Scale::Full);
        assert_eq!(Scale::from_full_flag(false), Scale::Quick);
    }
}
