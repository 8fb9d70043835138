//! Request-level serving sweep: latency–throughput curves under load.
//!
//! Sweeps arrival rate × scenario mix × pricing backend through the
//! engine's continuous-batching serving layer and reports the SLO
//! percentiles of paper Fig. 11(e) / §VI-C — p50/p95/p99 TTFT and TPOT,
//! end-to-end latency, goodput, queue depth, and admission rejects — per
//! sweep point. Besides the usual [`Report`], the sweep emits a
//! machine-readable manifest to `target/figs/serve_sweep.json`
//! (schema `moentwine/serve_sweep/v1`, validated by [`validate`]).
//!
//! Everything is seeded: the same seed reproduces a byte-identical
//! manifest across runs (pinned by a unit test and the CI smoke step).

use std::fs;

use moe_model::ModelConfig;
use moe_workload::{Scenario, WorkloadMix};
use moentwine_core::engine::{InferenceEngine, ServingSummary};
use moentwine_spec::{BatchSpec, EngineSpec, ModelSpec, ServingSpec};
use wsc_sim::CongestionBackend;

use crate::json::Value;
use crate::platforms::Platform;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/serve_sweep/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/serve_sweep.json";

/// Master seed of the sweep (every engine run derives from it).
const SEED: u64 = 97;

/// A scaled-down model so the sweep prices hundreds of serving iterations
/// per point quickly; serving dynamics (admission, chunked prefill,
/// continuous batching) are model-size independent. Resolved through the
/// spec layer's preset registry, like every scenario file.
fn sweep_model() -> ModelConfig {
    ModelSpec::preset("tiny").resolve().expect("tiny preset")
}

/// The swept scenario mixes: `(name, gating + request-length blend)`.
fn mixes() -> Vec<(&'static str, WorkloadMix)> {
    vec![
        (
            "balanced",
            WorkloadMix::Blend(Scenario::all().map(|s| (s, 1.0)).to_vec()),
        ),
        (
            // Short prompts and outputs: chat / privacy traffic.
            "interactive",
            WorkloadMix::Blend(vec![
                (Scenario::Chat, 6.0),
                (Scenario::Coding, 1.0),
                (Scenario::Math, 1.0),
                (Scenario::Privacy, 4.0),
            ]),
        ),
        (
            // Long prompts (coding) and long chains of thought (math).
            "reasoning",
            WorkloadMix::Blend(vec![
                (Scenario::Chat, 1.0),
                (Scenario::Coding, 4.0),
                (Scenario::Math, 6.0),
                (Scenario::Privacy, 1.0),
            ]),
        ),
    ]
}

/// Runs one sweep point and returns its serving summary. The engine
/// config is constructed through the declarative spec layer, so every
/// point is exactly what a scenario file with these knobs would run.
fn run_point(
    platform: &Platform,
    plan: &moentwine_core::MappingPlan,
    rate: f64,
    mix: &WorkloadMix,
    backend: CongestionBackend,
    iterations: usize,
) -> ServingSummary {
    let spec = EngineSpec::default()
        .with_seed(SEED)
        .with_backend(backend)
        .with_workload(mix.clone())
        .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 256, rate)))
        // A thin KV share (~700k tokens on this platform) so the admission
        // budget — not just the concurrency cap — shapes the queueing curve.
        .with_kv_hbm_fraction(1.0e-3);
    let config = spec.engine_config(sweep_model()).expect("valid sweep spec");
    let mut engine = InferenceEngine::new(&platform.topo, &platform.table, plan, config);
    engine.run(iterations);
    engine.serving_summary()
}

fn point_json(rate: f64, mix_name: &str, backend: CongestionBackend, s: &ServingSummary) -> Value {
    Value::Obj(vec![
        ("arrival_rate".into(), Value::Num(rate)),
        ("mix".into(), Value::Str(mix_name.into())),
        ("backend".into(), Value::Str(backend.name().into())),
        ("ttft_p50".into(), Value::Num(s.ttft_p50)),
        ("ttft_p95".into(), Value::Num(s.ttft_p95)),
        ("ttft_p99".into(), Value::Num(s.ttft_p99)),
        ("tpot_p50".into(), Value::Num(s.tpot_p50)),
        ("tpot_p95".into(), Value::Num(s.tpot_p95)),
        ("tpot_p99".into(), Value::Num(s.tpot_p99)),
        ("e2e_p50".into(), Value::Num(s.e2e_p50)),
        ("e2e_p99".into(), Value::Num(s.e2e_p99)),
        ("goodput_rps".into(), Value::Num(s.goodput_rps)),
        (
            "goodput_tokens_per_s".into(),
            Value::Num(s.goodput_tokens_per_s),
        ),
        ("completed".into(), Value::Num(s.completed as f64)),
        (
            "admission_rejects".into(),
            Value::Num(s.admission_rejects as f64),
        ),
        ("mean_queue_depth".into(), Value::Num(s.mean_queue_depth)),
        ("sim_seconds".into(), Value::Num(s.sim_seconds)),
    ])
}

/// Builds the sweep manifest over explicit axes (the unit tests use a
/// reduced grid; [`run`] uses the full/quick grids). Grid points are
/// independent engine runs, so they execute on a `threads`-wide
/// [`WorkerPool`](crate::perf::pool::WorkerPool); results merge in grid
/// order, so the manifest is byte-identical for every thread count.
fn sweep_manifest(
    quick: bool,
    rates: &[f64],
    mixes: &[(&'static str, WorkloadMix)],
    backends: &[CongestionBackend],
    iterations: usize,
    threads: usize,
    report: &mut Report,
) -> Value {
    let platform = Platform::wsc(4);
    let plan = crate::platforms::wsc_plan(&platform, 4, crate::platforms::WscMapping::Er);
    let mut grid: Vec<(f64, &'static str, &WorkloadMix, CongestionBackend)> = Vec::new();
    for &rate in rates {
        for (mix_name, mix) in mixes {
            for &backend in backends {
                grid.push((rate, mix_name, mix, backend));
            }
        }
    }
    let pool = crate::perf::pool::WorkerPool::new(threads);
    let jobs: Vec<_> = grid
        .iter()
        .map(|&(rate, _, mix, backend)| {
            let (platform, plan) = (&platform, &plan);
            move || run_point(platform, plan, rate, mix, backend, iterations)
        })
        .collect();
    let summaries = pool.run(jobs);
    let mut points: Vec<Value> = Vec::new();
    for (&(rate, mix_name, _, backend), s) in grid.iter().zip(&summaries) {
        report.row([
            format!("{rate}"),
            mix_name.into(),
            backend.name().into(),
            fmt_time(s.ttft_p50),
            fmt_time(s.ttft_p99),
            fmt_time(s.tpot_p50),
            fmt_time(s.e2e_p99),
            format!("{:.1}", s.goodput_rps),
            format!("{}", s.completed),
            format!("{}", s.admission_rejects),
        ]);
        points.push(point_json(rate, mix_name, backend, s));
    }
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::Num(SEED as f64)),
        ("iterations".into(), Value::Num(iterations as f64)),
        ("points".into(), Value::Arr(points)),
    ])
}

/// Validates a manifest against the `moentwine/serve_sweep/v1` schema:
/// schema tag, non-empty point list, required fields with the right types,
/// non-decreasing percentile ladders, and non-negative throughput.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(manifest, &["seed", "iterations"])?;
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        for key in ["mix", "backend"] {
            v::point_str(point, i, key)?;
        }
        v::check_point_common(
            point,
            i,
            &[
                "arrival_rate",
                "completed",
                "admission_rejects",
                "mean_queue_depth",
                "sim_seconds",
            ],
        )?;
    }
    Ok(())
}

/// Runs the serving sweep with grid points spread over `threads` workers,
/// writes `target/figs/serve_sweep.json` (byte-identical for any thread
/// count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    // Decode advances one token per sequence per iteration, so completing
    // median chat/math outputs (256 / 2048 tokens) needs iteration counts
    // of the same order. Arrival rates are sized to this platform's
    // measured capacity (tiny-model iterations price in tens of
    // microseconds; sustained goodput saturates around ~9k requests per
    // simulated second): the sweep spans clearly-underloaded through
    // saturated, which is where the latency-throughput knee lives.
    let iterations = if quick { 1000 } else { 4000 };
    let rates: Vec<f64> = if quick {
        vec![4.0e3, 16.0e3]
    } else {
        vec![2.0e3, 8.0e3, 32.0e3]
    };
    let mixes = mixes();
    let backends = [
        CongestionBackend::Analytic,
        CongestionBackend::FlowSimCached,
        CongestionBackend::FlowSim,
    ];
    let mut report = Report::new(
        "serve_sweep",
        "Request-level serving: latency-throughput sweep",
    )
    .columns([
        "Rate (req/s)",
        "Mix",
        "Backend",
        "TTFT p50",
        "TTFT p99",
        "TPOT p50",
        "E2E p99",
        "Goodput (req/s)",
        "Completed",
        "Rejects",
    ]);
    let manifest = sweep_manifest(
        quick,
        &rates,
        &mixes,
        &backends,
        iterations,
        threads,
        &mut report,
    );
    match fs::create_dir_all("target/figs")
        .and_then(|_| fs::write(MANIFEST_PATH, manifest.pretty()))
    {
        Ok(()) => report.note(format!("machine-readable manifest: {MANIFEST_PATH}")),
        Err(e) => report.note(format!("WARNING: could not write {MANIFEST_PATH}: {e}")),
    }
    report.note(
        "deterministic: the same seed reproduces a byte-identical manifest \
         (schema moentwine/serve_sweep/v1)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest_with_threads(threads: usize) -> (Value, Report) {
        let mut report = Report::new("serve_sweep_test", "t");
        let manifest = sweep_manifest(
            true,
            &[50.0e3, 100.0e3],
            &[(
                "privacy",
                WorkloadMix::Blend(vec![(Scenario::Privacy, 1.0)]),
            )],
            &[CongestionBackend::Analytic],
            400,
            threads,
            &mut report,
        );
        (manifest, report)
    }

    fn tiny_manifest() -> (Value, Report) {
        tiny_manifest_with_threads(1)
    }

    #[test]
    fn manifest_is_byte_identical_across_runs_and_validates() {
        let (a, _) = tiny_manifest();
        let (b, _) = tiny_manifest();
        assert_eq!(a.pretty(), b.pretty(), "sweep must be deterministic");
        validate(&a).expect("schema");
        // And the parser round-trips what the printer emits.
        let reparsed = Value::parse(&a.pretty()).expect("parse");
        validate(&reparsed).expect("schema after round-trip");
    }

    #[test]
    fn parallel_grid_matches_serial_byte_for_byte() {
        let (serial, serial_report) = tiny_manifest_with_threads(1);
        let (parallel, parallel_report) = tiny_manifest_with_threads(3);
        assert_eq!(serial.pretty(), parallel.pretty());
        assert_eq!(serial_report.to_markdown(), parallel_report.to_markdown());
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        let (mut manifest, _) = tiny_manifest();
        assert!(validate(&Value::Obj(vec![])).is_err());
        assert!(validate(&Value::Obj(vec![(
            "schema".into(),
            Value::Str("other/v9".into())
        )]))
        .is_err());
        // Empty point list is a schema violation.
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    *v = Value::Arr(vec![]);
                }
            }
        }
        assert!(validate(&manifest).unwrap_err().contains("empty points"));
    }
}
