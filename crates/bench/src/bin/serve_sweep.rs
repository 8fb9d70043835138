//! Request-level serving sweep: arrival rate × scenario mix × backend →
//! SLO percentiles (p50/p95/p99 TTFT + TPOT), goodput, queue depth, and
//! admission rejects per point.
//!
//! Prints the report, saves `results/serve_sweep.json`, writes the
//! machine-readable manifest to `target/figs/serve_sweep.json`, then
//! **re-reads and schema-validates the emitted manifest**, exiting
//! non-zero if it is malformed (the CI smoke gate).
//!
//! Usage: `cargo run --release -p moentwine-bench --bin serve_sweep --
//! [--quick] [--threads N]`
//!
//! `--threads` (default: available parallelism) spreads grid points over a
//! worker pool; the manifest is byte-identical for every thread count.

use std::process::ExitCode;

use moentwine_bench::figs::serve_sweep;

fn main() -> ExitCode {
    moentwine_bench::fig_main(
        "serve_sweep",
        serve_sweep::run_with_threads,
        serve_sweep::MANIFEST_PATH,
        serve_sweep::SCHEMA,
        serve_sweep::validate,
    )
}
