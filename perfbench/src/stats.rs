//! Timing samples, percentiles, and the named metric list a run prints.

use std::time::Instant;

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`, averaging the two middle values of an even
/// count; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-call durations of one layer's public function, plus the total
/// time spent in it.
#[derive(Default)]
pub struct Samples {
    per_call_ns: Vec<f64>,
    busy_ns: u64,
}

impl Samples {
    /// Runs `f`, recording its duration as one call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(ns_since(start));
        out
    }

    /// Records one call that took `ns`.
    pub fn push(&mut self, ns: u64) {
        self.per_call_ns.push(ns as f64);
        self.busy_ns += ns;
    }

    /// Records `calls` calls timed together as `ns`: one sample of the
    /// mean per-call time (calls too short to time one by one).
    pub fn push_batch(&mut self, ns: u64, calls: usize) {
        if calls > 0 {
            self.per_call_ns.push(ns as f64 / calls as f64);
            self.busy_ns += ns;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> usize {
        self.per_call_ns.len()
    }

    /// Total time recorded, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Percentile `q` of the per-call times, nanoseconds.
    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.per_call_ns, q)
    }
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends `<name>.p50` and `<name>.p99` of `samples`, in ns.
    pub fn timing(&mut self, name: &str, samples: &Samples) {
        self.add(format!("{name}.p50"), samples.p(0.50), "ns");
        self.add(format!("{name}.p99"), samples.p(0.99), "ns");
    }
}

/// Share of `part` in `whole` (0 when `whole` is 0).
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
