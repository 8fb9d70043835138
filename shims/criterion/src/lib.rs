//! Offline stand-in for `criterion`.
//!
//! The build environment cannot reach crates.io, so this shim keeps the
//! workspace's `benches/` targets compiling and runnable without the real
//! criterion. It implements the API subset the benches use — `Criterion`,
//! benchmark groups, `BenchmarkId`, `Bencher::{iter, iter_batched}`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros — as a
//! plain wall-clock harness: each benchmark is calibrated to a short target
//! duration, then timed over a handful of samples, and the median per-call
//! time is printed beside the fastest sample's. As with the real crate, the
//! first argument that is not a flag filters benchmarks by substring of
//! their id (`cargo bench --bench gating -- gating_qwen3_4g_cycling`). On a shared host the
//! minimum is the steadier figure for a before/after: compare minima over
//! alternating runs of the two binaries. No statistics, plots, or
//! baselines; swap the path dependency for the real criterion to get those
//! back.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Batch sizing hints (accepted for API compatibility; batches are always
/// per-iteration here).
#[derive(Copy, Clone, Debug)]
pub enum BatchSize {
    /// Small setup output.
    SmallInput,
    /// Large setup output.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Throughput annotation (accepted and ignored).
#[derive(Copy, Clone, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes, decimal multiple variant.
    BytesDecimal(u64),
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// Identifier carrying only a parameter (group name supplies the rest).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Timing engine handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    target: Duration,
    /// Median and fastest per-call time of the last `iter*` run, for
    /// reporting.
    last_estimate: Option<Estimate>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples: samples.max(3),
            target: Duration::from_millis(20),
            last_estimate: None,
        }
    }

    /// Times `routine`, calibrating the per-sample iteration count to the
    /// target sample duration.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Calibration: one untimed call, then estimate calls per sample.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_sample = (self.target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as usize;

        let mut samples: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            samples.push(start.elapsed() / per_sample as u32);
        }
        self.last_estimate = Some(Estimate::of(samples));
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut samples: Vec<Duration> = Vec::with_capacity(self.samples);
        // Calibrate with one untimed call.
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            samples.push(start.elapsed());
        }
        self.last_estimate = Some(Estimate::of(samples));
    }
}

/// The per-call times a benchmark reports.
#[derive(Copy, Clone, Debug)]
struct Estimate {
    median: Duration,
    min: Duration,
}

impl Estimate {
    fn of(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        Estimate {
            median: samples[samples.len() / 2],
            min: samples[0],
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Runs and reports one benchmark, unless `filter` is set and not a
/// substring of its id.
fn run_one(full_id: &str, filter: Option<&str>, samples: usize, f: impl FnOnce(&mut Bencher)) {
    if filter.is_some_and(|filter| !full_id.contains(filter)) {
        return;
    }
    let mut b = Bencher::new(samples);
    f(&mut b);
    match b.last_estimate {
        Some(est) => println!(
            "bench {full_id:<50} {:>12}/iter (min {})",
            fmt_duration(est.median),
            fmt_duration(est.min)
        ),
        None => println!("bench {full_id:<50} (no measurement)"),
    }
}

/// Top-level benchmark registry/driver.
pub struct Criterion {
    sample_size: usize,
    /// Runs only the benchmarks whose id contains it.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            filter: None,
        }
    }
}

/// The benchmark-id filter in a bench binary's arguments (program name
/// excluded): the first one that is not a flag. Cargo passes `--bench`
/// itself; the shim takes no flag with a value.
fn filter_from(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

impl Criterion {
    /// Sets the per-benchmark sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Reads the benchmark-id filter from the command line; other
    /// criterion flags are ignored.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from(std::env::args().skip(1));
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(id, self.filter.as_deref(), self.sample_size, f);
        self
    }

    /// Runs a named benchmark over an input.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&id.id, self.filter.as_deref(), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            parent: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Annotates throughput (ignored).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        self.run(&id, f);
        self
    }

    /// Runs a benchmark over an input within the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.run(&id, |b| f(b, input));
        self
    }

    /// Runs the group's benchmark `id`.
    fn run(&self, id: &BenchmarkId, f: impl FnOnce(&mut Bencher)) {
        let filter = self.parent.filter.as_deref();
        run_one(
            &format!("{}/{}", self.name, id.id),
            filter,
            self.sample_size,
            f,
        );
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_produces_an_estimate() {
        let mut c = Criterion::default();
        c.sample_size(3);
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u32, |b, &n| {
            b.iter_batched(|| n, |x| x * 2, BatchSize::SmallInput)
        });
        group.finish();
    }

    /// The first argument that is not a flag filters benchmark ids by
    /// substring, in groups too; without one every benchmark runs.
    #[test]
    fn the_first_non_flag_argument_filters_benchmark_ids() {
        let args = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_from(args(&["--bench"])), None);
        assert_eq!(
            filter_from(args(&["--bench", "cycling", "other"])),
            Some("cycling".to_string())
        );
        let ran = |filter: Option<&str>| {
            let mut c = Criterion {
                filter: filter.map(str::to_string),
                ..Criterion::default()
            };
            c.sample_size(3);
            let mut ran = Vec::new();
            c.bench_function("solo", |b| {
                ran.push("solo");
                b.iter(|| 1)
            });
            let mut group = c.benchmark_group("gating");
            for id in ["qwen3_4g", "qwen3_4g_cycling"] {
                group.bench_function(id, |b| {
                    ran.push(id);
                    b.iter(|| 1)
                });
            }
            group.finish();
            ran
        };
        assert_eq!(ran(None), ["solo", "qwen3_4g", "qwen3_4g_cycling"]);
        assert_eq!(ran(Some("cycling")), ["qwen3_4g_cycling"]);
        assert_eq!(
            ran(Some("gating/qwen3_4g")),
            ["qwen3_4g", "qwen3_4g_cycling"]
        );
        assert!(ran(Some("absent")).is_empty());
    }
}
