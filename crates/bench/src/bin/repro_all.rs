//! Runs every table/figure experiment in paper order, saving each report to
//! `results/<id>.json`, writing a combined `results/SUMMARY.md` suitable for
//! pasting into EXPERIMENTS.md, and emitting a machine-readable run manifest
//! to `target/figs/summary.json` (figure id → status, runtime, key metrics)
//! for CI and downstream tooling.
//!
//! Experiments are independent, so they run on a worker pool (`--threads N`,
//! default: available parallelism), and the sweeps spread their own grid
//! points over a pool as wide; outputs merge in paper order, so every
//! artifact is byte-identical to a serial run.
//!
//! With `--measure-speedup` the figure fan-out runs **twice** — once on a
//! single thread (the sweeps included), once on the pool — and the
//! manifest records the true wall-clock ratio (`parallel_speedup`,
//! `speedup_measured: true`) plus the per-figure before/after timings.
//! Without the flag only the pooled pass runs and `parallel_speedup`
//! reports the pool-occupancy proxy (summed concurrent per-figure seconds
//! over fan-out wall, `speedup_measured: false`) — cheap, but inflated by
//! time-slicing when threads exceed cores, which is why the CI gate uses
//! the measured mode.
//!
//! A panicking experiment is recorded as `"status": "failed"` in the
//! manifest and the remaining experiments still run; the process then exits
//! non-zero.
//!
//! Usage: `cargo run --release -p moentwine-bench --bin repro_all --
//! [--quick] [--threads N] [--measure-speedup]`

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use moentwine_bench::figs::Runner;
use moentwine_bench::json::Value;
use moentwine_bench::perf::pool::WorkerPool;
use moentwine_bench::Report;

/// One experiment's manifest entry. `save_error` reports a figure that ran
/// but whose `results/<id>.json` could not be written — `report_path` is
/// only recorded when the file actually exists.
fn manifest_entry(
    id: &str,
    outcome: &Result<Report, String>,
    save_error: Option<&str>,
    seconds: f64,
    serial_seconds: Option<f64>,
) -> Value {
    let mut fields = vec![("id".into(), Value::Str(id.into()))];
    match outcome {
        Ok(report) => {
            fields.push(("status".into(), Value::Str("ok".into())));
            fields.push(("title".into(), Value::Str(report.title.clone())));
            fields.push(("rows".into(), Value::Num(report.rows.len() as f64)));
            // The notes carry each figure's paper-vs-measured observations —
            // the key metrics a reader checks first.
            fields.push(("key_metrics".into(), Value::strings(report.notes.clone())));
            match save_error {
                None => fields.push((
                    "report_path".into(),
                    Value::Str(format!("results/{id}.json")),
                )),
                Some(e) => fields.push(("save_error".into(), Value::Str(e.into()))),
            }
        }
        Err(message) => {
            fields.push(("status".into(), Value::Str("failed".into())));
            fields.push(("error".into(), Value::Str(message.clone())));
        }
    }
    fields.push(("seconds".into(), Value::Num(seconds)));
    if let Some(serial) = serial_seconds {
        fields.push(("serial_seconds".into(), Value::Num(serial)));
    }
    Value::Obj(fields)
}

/// One figure's result: the report (or panic message) and its wall-clock
/// seconds as timed inside the fan-out.
type FigureOutcome = (Result<Report, String>, f64);

/// Runs every experiment on a pool of `threads` workers, each sweep also
/// spreading its grid points over `threads` workers, returning the
/// per-figure outcomes in paper order plus the fan-out's wall clock. Each
/// job is self-contained (figures build their own platforms and write
/// distinct files), so results are byte-identical for any `threads`.
fn run_fanout(
    experiments: &[(&'static str, Runner)],
    quick: bool,
    threads: usize,
    label: &str,
) -> (Vec<FigureOutcome>, f64) {
    let pool = WorkerPool::new(threads);
    eprintln!(
        "[repro] running {} experiments on {} thread(s){label} ...",
        experiments.len(),
        pool.threads()
    );
    let t0 = Instant::now();
    let jobs: Vec<_> = experiments
        .iter()
        .map(|&(id, runner)| {
            move || {
                let t0 = Instant::now();
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| runner(quick, threads)))
                    .map_err(|cause| {
                        cause
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "experiment panicked".into())
                    });
                let seconds = t0.elapsed().as_secs_f64();
                match &outcome {
                    Ok(_) => eprintln!("[repro] {id} finished in {seconds:.1}s"),
                    Err(message) => {
                        eprintln!("[repro] {id} FAILED after {seconds:.1}s: {message}")
                    }
                }
                (outcome, seconds)
            }
        })
        .collect();
    let outcomes = pool.run(jobs);
    (outcomes, t0.elapsed().as_secs_f64())
}

fn main() {
    let quick = moentwine_bench::quick_from_args();
    let threads = moentwine_bench::threads_from_args();
    let measure = std::env::args().any(|a| a == "--measure-speedup");
    let mut summary = String::from("# MoEntwine reproduction results\n\n");
    if quick {
        summary.push_str("> Generated with `--quick` (reduced iterations).\n\n");
    }
    let start = Instant::now();
    let experiments = moentwine_bench::figs::all();

    // Optional serial baseline (the honest denominator for the speedup the
    // CI gate asserts), then the pooled pass whose outputs are kept.
    let serial_pass = measure.then(|| run_fanout(&experiments, quick, 1, " [serial baseline]"));
    let (outcomes, figures_wall_seconds) = run_fanout(&experiments, quick, threads, "");
    let figures_cpu_seconds: f64 = outcomes.iter().map(|(_, s)| s).sum();
    let (parallel_speedup, serial_wall) = match &serial_pass {
        // Measured: wall over wall, immune to time-slicing inflation.
        Some((_, serial_wall)) => (
            serial_wall / figures_wall_seconds.max(1e-9),
            Some(*serial_wall),
        ),
        // Proxy: pool occupancy (concurrent per-figure seconds sum / wall).
        None => (figures_cpu_seconds / figures_wall_seconds.max(1e-9), None),
    };
    match serial_wall {
        Some(serial_wall) => eprintln!(
            "[repro] figure wall-clock: {serial_wall:.1}s serial -> \
             {figures_wall_seconds:.1}s on {threads} thread(s) \
             (measured speedup {parallel_speedup:.2}x)"
        ),
        None => eprintln!(
            "[repro] figure wall-clock: {figures_cpu_seconds:.1}s summed concurrent \
             -> {figures_wall_seconds:.1}s on {threads} thread(s) \
             (occupancy {parallel_speedup:.2}x; run with --measure-speedup \
             for a true serial-baseline ratio)"
        ),
    }

    // Merge in paper order: print, save, and summarize serially.
    let mut entries: Vec<Value> = Vec::new();
    let mut failures = 0usize;
    for (i, (&(id, _), (outcome, seconds))) in experiments.iter().zip(&outcomes).enumerate() {
        let serial_seconds = serial_pass.as_ref().map(|(serial, _)| serial[i].1);
        let mut save_error = None;
        match outcome {
            Ok(report) => {
                report.print();
                if let Err(e) = report.save("results") {
                    eprintln!("[repro] warning: could not save {id}: {e}");
                    save_error = Some(e.to_string());
                }
                summary.push_str(&report.to_markdown());
                summary.push('\n');
            }
            Err(message) => {
                failures += 1;
                summary.push_str(&format!("## {id} — FAILED\n\n- {message}\n\n"));
            }
        }
        entries.push(manifest_entry(
            id,
            outcome,
            save_error.as_deref(),
            *seconds,
            serial_seconds,
        ));
    }
    summary.push_str(&format!(
        "\n_Total generation time: {:.1}s ({threads} thread(s), figure speedup {:.2}x{})_\n",
        start.elapsed().as_secs_f64(),
        parallel_speedup,
        if measure { " measured" } else { " occupancy" },
    ));
    if let Err(e) =
        fs::create_dir_all("results").and_then(|_| fs::write("results/SUMMARY.md", &summary))
    {
        eprintln!("[repro] warning: could not write summary: {e}");
    }

    // Backend-pricing perf snapshot: the incremental-DES and schedule-cache
    // speedups tracked across PRs (see DESIGN.md §5 and bin/bench_backend).
    // Runs after the pool has drained so the timings are uncontended.
    eprintln!("[repro] measuring backend pricing perf ...");
    let perf = moentwine_bench::perf::measure_backend_perf(quick);
    eprintln!("{}", perf.summary());
    match perf.save("target/figs/bench_backend.json", quick) {
        Ok(()) => eprintln!("[repro] backend perf manifest: target/figs/bench_backend.json"),
        Err(e) => eprintln!("[repro] warning: could not write backend perf manifest: {e}"),
    }

    let mut manifest_fields = vec![
        ("quick".into(), Value::Bool(quick)),
        ("threads".into(), Value::Num(threads as f64)),
        (
            "available_parallelism".into(),
            Value::Num(WorkerPool::available() as f64),
        ),
        (
            "figures_cpu_seconds".into(),
            Value::Num(figures_cpu_seconds),
        ),
        (
            "figures_wall_seconds".into(),
            Value::Num(figures_wall_seconds),
        ),
        ("speedup_measured".into(), Value::Bool(measure)),
        ("parallel_speedup".into(), Value::Num(parallel_speedup)),
    ];
    if let Some(serial_wall) = serial_wall {
        manifest_fields.push((
            "figures_serial_wall_seconds".into(),
            Value::Num(serial_wall),
        ));
    }
    manifest_fields.extend([
        (
            "backend_incremental_speedup".into(),
            Value::Num(perf.incremental_speedup),
        ),
        (
            "backend_cached_speedup".into(),
            Value::Num(perf.cached_speedup),
        ),
        (
            "total_seconds".into(),
            Value::Num(start.elapsed().as_secs_f64()),
        ),
        ("failures".into(), Value::Num(failures as f64)),
        ("figures".into(), Value::Arr(entries)),
    ]);
    let manifest = Value::Obj(manifest_fields);
    match fs::create_dir_all("target/figs")
        .and_then(|_| fs::write("target/figs/summary.json", manifest.pretty()))
    {
        Ok(()) => eprintln!("[repro] machine-readable manifest: target/figs/summary.json"),
        Err(e) => eprintln!("[repro] warning: could not write manifest: {e}"),
    }
    eprintln!(
        "[repro] all experiments done in {:.1}s ({failures} failed); see results/SUMMARY.md",
        start.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
