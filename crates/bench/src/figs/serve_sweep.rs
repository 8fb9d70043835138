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

use moe_workload::{Scenario, WorkloadMix};
use moentwine_core::engine::ServingSummary;
use moentwine_spec::{BatchSpec, EngineSpec, MappingSpec, PlatformSpec, ScenarioSpec, ServingSpec};
use wsc_sim::CongestionBackend;

use crate::figs::manifest;
use crate::json::Value;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/serve_sweep/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/serve_sweep.json";

/// Master seed of the sweep (every engine run derives from it).
const SEED: u64 = 97;

/// The pricing backends on the backend axis.
const BACKENDS: [CongestionBackend; 3] = [
    CongestionBackend::Analytic,
    CongestionBackend::FlowSimCached,
    CongestionBackend::FlowSim,
];

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

/// One grid point: its `(arrival rate, mix name, backend)` key and the
/// scenario that runs it.
type Point = ((f64, &'static str, CongestionBackend), ScenarioSpec);

/// The grid over explicit axes, rate slowest and backend fastest. Each
/// point is a single-engine scenario on a 4×4 wafer with ER mapping at
/// TP=4 serving the tiny preset — a scaled-down model so the sweep prices
/// hundreds of serving iterations per point quickly (serving dynamics are
/// model-size independent) — exactly what a scenario file with these
/// knobs runs.
fn grid(
    rates: &[f64],
    mixes: &[(&'static str, WorkloadMix)],
    backends: &[CongestionBackend],
    iterations: usize,
) -> Vec<Point> {
    let mut grid = Vec::new();
    for &rate in rates {
        for (mix_name, mix) in mixes {
            for &backend in backends {
                let engine = EngineSpec::default()
                    .with_seed(SEED)
                    .with_backend(backend)
                    .with_workload(mix.clone())
                    .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 256, rate)))
                    // A thin KV share (~700k tokens on this platform) so the
                    // admission budget — not just the concurrency cap —
                    // shapes the queueing curve.
                    .with_kv_hbm_fraction(1.0e-3);
                let name = format!(
                    "serve_sweep/rate={rate}/mix={mix_name}/backend={}",
                    backend.name()
                );
                let spec = ScenarioSpec::new(name, PlatformSpec::wsc(4))
                    .with_mapping(MappingSpec::er(4))
                    .with_engine(engine)
                    .with_iterations(iterations);
                grid.push(((rate, *mix_name, backend), spec));
            }
        }
    }
    grid
}

/// The `--quick` or full grid: `(iterations, points)`.
///
/// Decode advances one token per sequence per iteration, so completing
/// median chat/math outputs (256 / 2048 tokens) needs iteration counts of
/// the same order. Arrival rates are sized to this platform's measured
/// capacity (tiny-model iterations price in tens of microseconds;
/// sustained goodput saturates around ~9k requests per simulated second):
/// the sweep spans clearly-underloaded through saturated, which is where
/// the latency-throughput knee lives.
pub(super) fn sweep_grid(quick: bool) -> (usize, Vec<Point>) {
    let iterations = if quick { 1000 } else { 4000 };
    let rates: Vec<f64> = if quick {
        vec![4.0e3, 16.0e3]
    } else {
        vec![2.0e3, 8.0e3, 32.0e3]
    };
    (iterations, grid(&rates, &mixes(), &BACKENDS, iterations))
}

fn point_json(rate: f64, mix_name: &str, backend: CongestionBackend, s: &ServingSummary) -> Value {
    let mut fields = vec![
        ("arrival_rate".into(), Value::Num(rate)),
        ("mix".into(), Value::Str(mix_name.into())),
        ("backend".into(), Value::Str(backend.name().into())),
    ];
    fields.extend(manifest::slo_fields(s));
    fields.extend([
        ("completed".into(), Value::Num(s.completed as f64)),
        (
            "admission_rejects".into(),
            Value::Num(s.admission_rejects as f64),
        ),
        ("mean_queue_depth".into(), Value::Num(s.mean_queue_depth)),
        ("sim_seconds".into(), Value::Num(s.sim_seconds)),
    ]);
    Value::Obj(fields)
}

/// Builds the sweep manifest over `grid` (the unit tests use a reduced
/// grid; [`run_with_threads`] the full/quick one). Grid points are
/// independent scenario runs, so they execute on a `threads`-wide worker
/// pool ([`run_points`](crate::scenario_run::run_points)); results merge
/// in grid order, so the manifest is byte-identical for every thread
/// count.
fn sweep_manifest(
    quick: bool,
    iterations: usize,
    grid: Vec<Point>,
    threads: usize,
    report: &mut Report,
) -> Value {
    let (keys, specs): (Vec<_>, Vec<_>) = grid.into_iter().unzip();
    let outcomes = crate::scenario_run::run_points(&specs, threads).expect("valid sweep point");
    let mut points: Vec<Value> = Vec::new();
    for ((rate, mix_name, backend), outcome) in keys.into_iter().zip(&outcomes) {
        let (_, s) = outcome
            .as_engine()
            .expect("serve_sweep points are single engines");
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
    let (iterations, grid) = sweep_grid(quick);
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
    let manifest = sweep_manifest(quick, iterations, grid, threads, &mut report);
    manifest::write(&mut report, MANIFEST_PATH, &manifest);
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
        let grid = grid(
            &[50.0e3, 100.0e3],
            &[(
                "privacy",
                WorkloadMix::Blend(vec![(Scenario::Privacy, 1.0)]),
            )],
            &[CongestionBackend::Analytic],
            400,
        );
        let manifest = sweep_manifest(true, 400, grid, threads, &mut report);
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
