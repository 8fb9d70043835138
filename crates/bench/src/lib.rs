//! Benchmark harness reproducing every table and figure of the MoEntwine
//! paper.
//!
//! Each `figs::*` module computes one table/figure and returns a
//! [`Report`]; the `src/bin/*` binaries are thin wrappers so that any
//! experiment can be regenerated with
//! `cargo run --release -p moentwine-bench --bin <exp>`. The `repro_all`
//! binary runs the whole suite and writes `results/*.json` plus a combined
//! markdown summary for EXPERIMENTS.md.
//!
//! Pass `--quick` to any binary for a reduced-iteration smoke run.

pub mod figs;
pub mod golden;
pub mod perf;
pub mod platforms;
pub mod report;
pub mod scenario_run;

/// The hand-rolled JSON layer, hoisted into the `moentwine-json` leaf
/// crate so the spec layer and core can use it too; re-exported here
/// unchanged (`moentwine_bench::json::Value` keeps working).
pub use moentwine_json as json;

pub use report::Report;

/// Parses the common `--quick` flag.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses the common `--threads N` flag (also `--threads=N`), defaulting to
/// the machine's available parallelism. The parallel binaries guarantee
/// byte-identical output for every thread count — `--threads 1` is the
/// serial program, more threads only shorten the wall clock.
///
/// # Panics
///
/// Panics on a malformed or zero thread count (a CLI usage error).
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--threads" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            continue;
        };
        let value = value.expect("--threads requires a count");
        let n: usize = value
            .parse()
            .unwrap_or_else(|_| panic!("invalid --threads value {value:?}"));
        assert!(n > 0, "--threads must be at least 1");
        return n;
    }
    perf::pool::WorkerPool::available()
}

/// Runs a figure function as a binary entry point: print and save.
pub fn run_binary(f: impl FnOnce(bool) -> Report) {
    let quick = quick_from_args();
    let report = f(quick);
    report.print();
    if let Err(e) = report.save("results") {
        eprintln!("warning: could not save report: {e}");
    }
}

/// Entry point shared by the sweep binaries (`router_compare`,
/// `fleet_sweep`, `serve_sweep`, `disagg_sweep`, `workload_mix`): runs the
/// figure under the `--quick` / `--threads` flags, prints the report and
/// saves it to `results/`, then re-reads the manifest the figure wrote to
/// `manifest_path` and checks it with `validate` against `schema`.
/// Validating the file on disk, not the in-memory tree, lets the gate
/// catch serialization problems too. Every failure is reported on stderr
/// under `name` and exits non-zero (the CI smoke gate).
pub fn fig_main(
    name: &str,
    run_with_threads: impl FnOnce(bool, usize) -> Report,
    manifest_path: &str,
    schema: &str,
    validate: impl FnOnce(&json::Value) -> Result<(), String>,
) -> std::process::ExitCode {
    use std::process::ExitCode;
    let report = run_with_threads(quick_from_args(), threads_from_args());
    report.print();
    if let Err(e) = report.save("results") {
        eprintln!("warning: could not save report: {e}");
    }
    let text = match std::fs::read_to_string(manifest_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{name}: cannot read {manifest_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match json::Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{name}: {manifest_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate(&manifest) {
        eprintln!("{name}: {manifest_path} violates {schema}: {e}");
        return ExitCode::FAILURE;
    }
    let points = manifest
        .get("points")
        .and_then(json::Value::as_array)
        .map_or(0, <[json::Value]>::len);
    eprintln!("{name}: {manifest_path} OK ({points} points, schema {schema})");
    ExitCode::SUCCESS
}
