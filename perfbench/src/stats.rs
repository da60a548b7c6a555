//! Sample sets, the report printer and the result line.

use std::fmt::Write as _;

/// Timings (or other values) of one kind, in the unit they are reported in.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl From<Vec<f64>> for Samples {
    fn from(v: Vec<f64>) -> Samples {
        Samples(v)
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }
}

/// Latencies in µs, counted in fixed log-spaced buckets 1 % wide from 1 µs
/// to 10 s. Recording never allocates, so a timed phase may record any
/// number of samples without moving the heap figure it also measures.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: usize,
}

const HIST_RATIO: f64 = 1.01;
const HIST_MAX_US: f64 = 1e7;

impl Hist {
    pub fn new() -> Hist {
        let buckets = (HIST_MAX_US.ln() / HIST_RATIO.ln()).ceil() as usize;
        Hist {
            counts: vec![0; buckets],
            n: 0,
        }
    }

    pub fn push(&mut self, us: f64) {
        let i = (us.max(1.0).ln() / HIST_RATIO.ln()) as usize;
        let last = self.counts.len() - 1;
        self.counts[i.min(last)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Fold `other`'s samples into this one.
    pub fn add(&mut self, other: &Hist) {
        self.counts
            .iter_mut()
            .zip(&other.counts)
            .for_each(|(a, b)| *a += b);
        self.n += other.n;
    }

    /// The value `pos` samples up from the bottom (0 ≤ pos ≤ n), read
    /// geometrically inside its bucket; NaN when empty.
    fn at(&self, pos: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && below + c >= pos {
                let within = ((pos - below) / c).clamp(0.0, 1.0);
                return HIST_RATIO.powf(i as f64 + within);
            }
            below += c;
        }
        HIST_MAX_US
    }

    /// Value at quantile `q`, in µs.
    pub fn quantile(&self, q: f64) -> f64 {
        self.at(q * self.n as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p99 and p90 that has at least ten samples beyond it.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        [("p99", 0.99), ("p90", 0.90)]
            .into_iter()
            .find(|&(_, q)| self.n as f64 * (1.0 - q) >= 10.0 - 1e-9)
            .map(|(name, q)| (name, self.quantile(q)))
    }
}

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// What a run found: figures for the result line, plus report-only
/// figures printed for people (per-kind breakdowns, references).
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub report: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.report.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Record a failed output check; any one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 1000 {
            self.errors.push(what());
        }
    }

    /// Print the human-readable report, then the result line (last line
    /// of standard output).
    pub fn print(&self) {
        for m in &self.report {
            println!(
                "report {:<28} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.metrics {
            println!(
                "metric {:<28} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for e in self.errors.iter().take(20) {
            println!("check failed: {e}");
        }
        println!(
            "operations attempted={} failed={} checks_failed={}",
            self.attempted,
            self.failed,
            self.errors.len()
        );
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they also mean the phase
            // measured nothing, which the checks have already flagged.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        let s = Samples::from((1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.median(), 500.5);
    }

    #[test]
    fn hist_reads_within_a_bucket() {
        let mut h = Hist::new();
        assert!(h.median().is_nan());
        (1..=99).for_each(|i| h.push(i as f64));
        assert_eq!(h.tail().map(|t| t.0), None, "p90 needs ten samples beyond");
        h.push(100.0);
        assert_eq!(h.tail().map(|t| t.0), Some("p90"));
        let mut h = Hist::new();
        (1..=1000).for_each(|i| h.push(i as f64 * 10.0));
        let close = |got: f64, want: f64| (got / want - 1.0).abs() < 0.011;
        assert!(close(h.median(), 5000.0), "{}", h.median());
        assert_eq!(h.tail().map(|t| t.0), Some("p99"));
        assert!(close(h.tail().unwrap().1, 9900.0));
        let counts = h.counts.clone();
        let mut twice = h.clone();
        twice.add(&h);
        assert_eq!(twice.len(), 2000);
        assert!(close(twice.median(), 5000.0));
        assert_eq!(h.counts, counts, "add leaves its argument alone");
    }
}
