//! Router policy comparison: the four snapshot policies vs the EWMA
//! feedback policies vs speculative dispatch, under a heterogeneous
//! bursty fleet and a disaggregated prefill/decode fleet.
//!
//! Prints the report, saves `results/router_compare.json`, writes the
//! machine-readable manifest to `target/figs/router_compare.json`, then
//! **re-reads and schema-validates the emitted manifest** — including the
//! headline claim that an adaptive policy beats the best snapshot policy
//! on bursty p99 TTFT — exiting non-zero on any violation (the CI smoke
//! gate).
//!
//! Usage: `cargo run --release -p moentwine-bench --bin router_compare --
//! [--quick] [--threads N]`
//!
//! `--threads` (default: available parallelism) spreads grid points over
//! the hand-rolled worker pool; the manifest is byte-identical for every
//! thread count (CI `cmp`s `--threads 1` against `--threads 4`).

use std::process::ExitCode;

use moentwine_bench::figs::router_compare;

fn main() -> ExitCode {
    moentwine_bench::fig_main(
        "router_compare",
        router_compare::run_with_threads,
        router_compare::MANIFEST_PATH,
        router_compare::SCHEMA,
        router_compare::validate,
    )
}
