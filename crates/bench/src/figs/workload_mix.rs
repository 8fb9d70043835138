//! Multi-tenant workload mix sweep: SLO attainment per tenant class under
//! bursty traffic.
//!
//! Sweeps **interactive:batch traffic mix × arrival rate** through the
//! declarative spec layer: every mix is a [`ScenarioSpec`] whose serving
//! batch carries a bursty two-tenant [`WorkloadSpec`] (interactive requests
//! shed past a deadline, batch requests patient), and the rate axis rides
//! the existing [`SweepSpec`] grid expansion. Each point reports per-class
//! TTFT/TPOT percentiles and SLO attainment plus the shed count — enough to
//! read off how much batch traffic an interactive SLO survives, and at what
//! rate the shedder starts firing.
//!
//! Besides the usual [`Report`], the sweep emits a machine-readable
//! manifest to `target/figs/workload_mix.json` (schema
//! `moentwine/workload_mix/v1`, validated by [`validate`]). Everything is
//! seeded and grid points merge by index, so the manifest is byte-identical
//! across runs *and* across `--threads` settings.

use moe_workload::ClassSpec;
use moentwine_core::engine::ServingSummary;
use moentwine_spec::{
    ArrivalSourceSpec, BatchSpec, EngineSpec, PlatformSpec, ScenarioSpec, ServingSpec, SweepSpec,
    WorkloadSpec,
};

use crate::figs::manifest;
use crate::json::Value;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/workload_mix/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/workload_mix.json";

/// Master seed of the sweep.
const SEED: u64 = 173;

/// The interactive:batch weight pairs swept as the tenant-mix axis.
const MIXES: [(f64, f64); 3] = [(3.0, 1.0), (1.0, 1.0), (1.0, 3.0)];

/// One mix's scenario: bursty arrivals (4× bursts a quarter of the time),
/// an impatient interactive tenant (tight SLOs, 100 ms shed deadline) and a
/// patient batch tenant, over the tiny preset with a thin KV share so the
/// bursts actually contend.
fn mix_spec(interactive_weight: f64, batch_weight: f64, rates: &[f64]) -> ScenarioSpec {
    let workload = WorkloadSpec::new(ArrivalSourceSpec::Burst {
        period: 0.002,
        burst_duration: 0.0005,
        quiet_factor: 0.5,
        burst_factor: 4.0,
    })
    .with_classes(vec![
        ClassSpec::interactive()
            .with_weight(interactive_weight)
            .with_shed_after(0.1),
        ClassSpec::batch().with_weight(batch_weight),
    ]);
    ScenarioSpec::new(
        format!("mix_{interactive_weight}_{batch_weight}"),
        PlatformSpec::wsc(4),
    )
    .with_engine(
        EngineSpec::default()
            .with_seed(SEED)
            .with_batch(BatchSpec::Serving(
                ServingSpec::hybrid(2048, 128, 0.0).with_workload(workload),
            ))
            .with_kv_hbm_fraction(1.0e-3),
    )
    .with_sweep(SweepSpec::default().with_rates(rates.to_vec()))
}

fn point_json(mix: (f64, f64), rate: f64, s: &ServingSummary) -> Value {
    let mut fields = vec![
        ("interactive_weight".into(), Value::Num(mix.0)),
        ("batch_weight".into(), Value::Num(mix.1)),
        ("arrival_rate".into(), Value::Num(rate)),
        ("completed".into(), Value::Num(s.completed as f64)),
        (
            "admission_rejects".into(),
            Value::Num(s.admission_rejects as f64),
        ),
        ("shed".into(), Value::Num(s.shed as f64)),
    ];
    fields.extend(manifest::slo_fields(s));
    fields.extend([
        ("mean_queue_depth".into(), Value::Num(s.mean_queue_depth)),
        ("sim_seconds".into(), Value::Num(s.sim_seconds)),
        (
            "classes".into(),
            Value::Arr(s.classes.iter().map(manifest::class_json).collect()),
        ),
    ]);
    Value::Obj(fields)
}

/// One grid point: its `(mix, arrival rate)` key and the scenario that
/// runs it.
type Point = (((f64, f64), f64), ScenarioSpec);

/// The grid over `rates`, mix slowest: the tenant-mix axis is a spec per
/// mix; the rate axis expands through [`SweepSpec`].
fn grid(rates: &[f64], iterations: usize) -> Vec<Point> {
    let mut grid = Vec::new();
    for &(iw, bw) in &MIXES {
        let points = mix_spec(iw, bw, rates)
            .expand_sweep()
            .expect("mix sweep expands");
        for (&rate, (_, point)) in rates.iter().zip(points) {
            grid.push((((iw, bw), rate), point.with_iterations(iterations)));
        }
    }
    grid
}

/// The `--quick` or full grid: `(iterations, points)`.
///
/// Iterations are sized like the serving sweeps: interactive outputs
/// complete within a few hundred decode steps. Rates span underload
/// through the shedding regime.
pub(super) fn sweep_grid(quick: bool) -> (usize, Vec<Point>) {
    let iterations = if quick { 400 } else { 1500 };
    let rates: Vec<f64> = if quick {
        vec![4.0e3, 12.0e3]
    } else {
        vec![2.0e3, 6.0e3, 18.0e3]
    };
    (iterations, grid(&rates, iterations))
}

/// Builds the sweep manifest over `grid` on a `threads`-wide worker pool.
/// Results merge by grid index, so the manifest is byte-identical for
/// every thread count.
fn sweep_manifest(
    quick: bool,
    iterations: usize,
    grid: Vec<Point>,
    threads: usize,
    report: &mut Report,
) -> Value {
    let (keys, specs): (Vec<_>, Vec<_>) = grid.into_iter().unzip();
    let outcomes = crate::scenario_run::run_points(&specs, threads).expect("valid mix spec");
    let mut points: Vec<Value> = Vec::new();
    for ((mix, rate), outcome) in keys.into_iter().zip(&outcomes) {
        let (_, s) = outcome.as_engine().expect("mix scenarios are fleet-less");
        let interactive = s
            .classes
            .first()
            .expect("workload-profiled runs report classes");
        report.row([
            format!("{}:{}", mix.0, mix.1),
            format!("{rate}"),
            fmt_time(interactive.ttft_p50),
            fmt_time(interactive.ttft_p99),
            format!("{:.3}", interactive.ttft_attainment),
            format!("{}", s.completed),
            format!("{}", s.admission_rejects),
            format!("{}", s.shed),
        ]);
        points.push(point_json(mix, rate, s));
    }
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::Num(SEED as f64)),
        ("iterations".into(), Value::Num(iterations as f64)),
        ("points".into(), Value::Arr(points)),
    ])
}

/// Validates a manifest against the `moentwine/workload_mix/v1` schema:
/// schema tag, non-empty point list, positive mix weights, monotone
/// percentile ladders, and per-point class sections whose attainments are
/// fractions.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(manifest, &["seed", "iterations"])?;
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        for key in ["interactive_weight", "batch_weight"] {
            if v::point_num(point, i, key)? <= 0.0 {
                return Err(format!("point {i}: {key} must be positive"));
            }
        }
        v::check_point_common(
            point,
            i,
            &[
                "arrival_rate",
                "completed",
                "admission_rejects",
                "shed",
                "mean_queue_depth",
                "sim_seconds",
            ],
        )?;
        let classes = point
            .get("classes")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("point {i}: missing classes array"))?;
        if classes.len() != 2 {
            return Err(format!(
                "point {i}: expected 2 tenant classes, found {}",
                classes.len()
            ));
        }
        for class in classes {
            let name = class
                .get("class")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("point {i}: class entry missing name"))?;
            for key in ["ttft_attainment", "tpot_attainment"] {
                let a = class
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("point {i}: class {name}: missing {key}"))?;
                if !(0.0..=1.0).contains(&a) {
                    return Err(format!("point {i}: class {name}: {key} {a} outside [0, 1]"));
                }
            }
        }
    }
    Ok(())
}

/// Runs the workload mix sweep with grid points spread over `threads`
/// workers, writes `target/figs/workload_mix.json` (byte-identical for any
/// thread count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    let (iterations, grid) = sweep_grid(quick);
    let mut report = Report::new(
        "workload_mix",
        "Multi-tenant SLO attainment: interactive:batch mix x rate sweep",
    )
    .columns([
        "Mix (i:b)",
        "Rate (req/s)",
        "Int TTFT p50",
        "Int TTFT p99",
        "Int attain",
        "Completed",
        "Rejects",
        "Shed",
    ]);
    let manifest = sweep_manifest(quick, iterations, grid, threads, &mut report);
    manifest::write(&mut report, MANIFEST_PATH, &manifest);
    report.note(manifest::merged_by_index_note(SCHEMA));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest_with_threads(threads: usize) -> Value {
        let mut report = Report::new("workload_mix_test", "t");
        sweep_manifest(true, 300, grid(&[12.0e3], 300), threads, &mut report)
    }

    #[test]
    fn manifest_is_byte_identical_across_runs_and_threads_and_validates() {
        let a = tiny_manifest_with_threads(1);
        let b = tiny_manifest_with_threads(1);
        assert_eq!(a.pretty(), b.pretty(), "sweep must be deterministic");
        let parallel = tiny_manifest_with_threads(3);
        assert_eq!(
            a.pretty(),
            parallel.pretty(),
            "thread count must not change the manifest"
        );
        validate(&a).expect("schema");
        let reparsed = Value::parse(&a.pretty()).expect("parse");
        validate(&reparsed).expect("schema after round-trip");
    }

    #[test]
    fn every_point_reports_both_tenant_classes() {
        let manifest = tiny_manifest_with_threads(1);
        for point in manifest.get("points").and_then(Value::as_array).unwrap() {
            let classes = point.get("classes").and_then(Value::as_array).unwrap();
            assert_eq!(classes.len(), 2);
            assert_eq!(
                classes[0].get("class").and_then(Value::as_str),
                Some("interactive")
            );
            assert_eq!(
                classes[1].get("class").and_then(Value::as_str),
                Some("batch")
            );
        }
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        let mut manifest = tiny_manifest_with_threads(1);
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        if let Value::Obj(fields) = &mut points[0] {
                            fields.retain(|(pk, _)| pk != "classes");
                        }
                    }
                }
            }
        }
        assert!(validate(&manifest).unwrap_err().contains("classes"));
    }
}
