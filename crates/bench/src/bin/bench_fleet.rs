//! Measures the fleet's event loop and enforces the perf contract:
//! `Fleet::run_until` must reach a simulated-time horizon at least 2×
//! faster than the lock-step reference (a `Fleet::run(1)` loop to the same
//! horizon) on the wide, partially idle quick grid (it is expected far
//! higher on production shapes), with streaming summaries retaining only
//! O(replicas) request records.
//!
//! Writes `target/figs/BENCH_fleet.json` (schema `moentwine/bench_fleet/v1`)
//! so the perf trajectory is tracked across PRs, and exits non-zero when
//! the gate fails — the CI bench-smoke step runs this with `--quick`.
//!
//! Usage: `cargo run --release -p moentwine-bench --bin bench_fleet [--quick]`

use moentwine_bench::perf::fleet::{measure_fleet_perf, validate, MANIFEST_PATH};

/// Minimum accepted `heap_speedup` (CI gate).
const MIN_HEAP_SPEEDUP: f64 = 2.0;

fn main() {
    let quick = moentwine_bench::quick_from_args();
    let perf = measure_fleet_perf(quick);
    println!("{}", perf.summary());
    let manifest = perf.to_json(quick);
    if let Err(e) = validate(&manifest) {
        eprintln!("[bench_fleet] FAIL: manifest invalid: {e}");
        std::process::exit(1);
    }
    match perf.save(MANIFEST_PATH, quick) {
        Ok(()) => eprintln!("[bench_fleet] manifest: {MANIFEST_PATH}"),
        Err(e) => eprintln!("[bench_fleet] warning: could not write manifest: {e}"),
    }
    if perf.heap_speedup < MIN_HEAP_SPEEDUP {
        eprintln!(
            "[bench_fleet] FAIL: event-heap only {:.1}x faster than lock-step to the \
             same horizon (gate: ≥ {MIN_HEAP_SPEEDUP}x)",
            perf.heap_speedup
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_fleet] OK: event-heap {:.1}x (gate ≥ {MIN_HEAP_SPEEDUP}x), \
         {} records retained on {} replicas",
        perf.heap_speedup, perf.retained_records_streaming, perf.replicas
    );
}
