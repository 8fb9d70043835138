//! Runs the chaos fleet (crash → drain → scale-up → recover under load)
//! and writes the SLO-under-failure figure
//! `target/figs/fleet_availability.json` (schema
//! `moentwine/fleet_availability/v2`): TTFT/goodput degradation and
//! recovery checkpoints plus the final availability accounting.
//!
//! The manifest contains only simulated quantities, so its bytes are
//! deterministic per seed. The run fails (exit non-zero) if the crash
//! interrupted nothing or if the manifest violates its schema — the CI
//! chaos-smoke step runs this with `--quick`.
//!
//! Usage: `cargo run --release -p moentwine-bench --bin fleet_availability [--quick]`

use moentwine_bench::perf::availability::{measure_availability, validate, MANIFEST_PATH};

fn main() {
    let quick = moentwine_bench::quick_from_args();
    let fig = measure_availability(quick);
    println!("{}", fig.summary());
    let manifest = fig.to_json(quick);
    if let Err(e) = validate(&manifest) {
        eprintln!("[fleet_availability] FAIL: manifest invalid: {e}");
        std::process::exit(1);
    }
    match fig.save(MANIFEST_PATH, quick) {
        Ok(()) => eprintln!("[fleet_availability] manifest: {MANIFEST_PATH}"),
        Err(e) => eprintln!("[fleet_availability] warning: could not write manifest: {e}"),
    }
    eprintln!(
        "[fleet_availability] OK: {} events applied, {} in-flight interruptions, \
         available fraction {:.4}",
        fig.final_summary.availability.events_applied,
        fig.final_summary.availability.crash_interruptions,
        fig.final_summary.availability.available_fraction
    );
}
