//! Fleet-level serving sweep: replica count × router policy × arrival rate
//! → fleet-aggregate SLO percentiles, goodput, rejects, and cross-replica
//! load-imbalance per point.
//!
//! Prints the report, saves `results/fleet_sweep.json`, writes the
//! machine-readable manifest to `target/figs/fleet_sweep.json`, then
//! **re-reads and schema-validates the emitted manifest**, exiting non-zero
//! if it is malformed (the CI smoke gate).
//!
//! Usage: `cargo run --release -p moentwine-bench --bin fleet_sweep --
//! [--quick] [--threads N]`
//!
//! `--threads` (default: available parallelism) spreads grid points over
//! the hand-rolled worker pool; the manifest is byte-identical for every
//! thread count (CI `cmp`s `--threads 1` against `--threads 4`).

use std::process::ExitCode;

use moentwine_bench::figs::fleet_sweep;

fn main() -> ExitCode {
    moentwine_bench::fig_main(
        "fleet_sweep",
        fleet_sweep::run_with_threads,
        fleet_sweep::MANIFEST_PATH,
        fleet_sweep::SCHEMA,
        fleet_sweep::validate,
    )
}
