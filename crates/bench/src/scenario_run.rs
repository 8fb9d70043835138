//! Executes declarative scenario files (`moentwine-spec`) and emits
//! schema-validated run manifests.
//!
//! This is the engine behind the `scenario` bench bin: it loads a
//! `moentwine/scenario/v1` spec document, expands its sweep axes into grid
//! points, runs every point on a `threads`-wide
//! [`WorkerPool`](crate::perf::pool::WorkerPool) (points are independent
//! seeded runs, so results merge in grid order and the manifest is
//! byte-identical for every thread count), and flattens each outcome into
//! a `moentwine/scenario_run/v1` manifest written next to the other figure
//! manifests under `target/figs/scenario/`.

use std::path::{Path, PathBuf};

use moentwine_spec::{ConfigError, ScenarioOutcome, ScenarioSpec};

use crate::figs::manifest;
use crate::json::Value;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) every run manifest.
pub const RUN_SCHEMA: &str = "moentwine/scenario_run/v1";

/// Directory the manifests are written to.
pub const MANIFEST_DIR: &str = "target/figs/scenario";

/// Iteration (or fleet-round) cap applied by `--quick` smoke runs. Sized
/// so short-output scenarios (privacy: median 128 decode steps after
/// prefill) still complete requests and the smoke manifests carry real
/// percentiles.
pub const QUICK_ITERATIONS: usize = 250;

/// Flattens one scenario point's outcome into manifest fields; an
/// expanded point is labelled by its name.
fn outcome_json(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("label".into(), Value::Str(spec.name.clone())),
        (
            "kind".into(),
            Value::Str(
                match outcome {
                    ScenarioOutcome::Engine { .. } => "engine",
                    ScenarioOutcome::Fleet(_) => "fleet",
                }
                .into(),
            ),
        ),
        ("iterations".into(), Value::Num(spec.iterations as f64)),
    ];
    let serving_fields = |s: &moentwine_core::engine::ServingSummary| {
        let mut fields = vec![
            ("completed".to_string(), Value::Num(s.completed as f64)),
            (
                "admission_rejects".to_string(),
                Value::Num(s.admission_rejects as f64),
            ),
            ("sim_seconds".to_string(), Value::Num(s.sim_seconds)),
            ("goodput_rps".to_string(), Value::Num(s.goodput_rps)),
            (
                "goodput_tokens_per_s".to_string(),
                Value::Num(s.goodput_tokens_per_s),
            ),
            ("ttft_p50".to_string(), Value::Num(s.ttft_p50)),
            ("ttft_p95".to_string(), Value::Num(s.ttft_p95)),
            ("ttft_p99".to_string(), Value::Num(s.ttft_p99)),
            ("tpot_p50".to_string(), Value::Num(s.tpot_p50)),
            ("tpot_p95".to_string(), Value::Num(s.tpot_p95)),
            ("tpot_p99".to_string(), Value::Num(s.tpot_p99)),
            ("e2e_p50".to_string(), Value::Num(s.e2e_p50)),
            ("e2e_p99".to_string(), Value::Num(s.e2e_p99)),
            (
                "mean_queue_depth".to_string(),
                Value::Num(s.mean_queue_depth),
            ),
        ];
        // Per-class SLO sections ride only on workload-profiled runs, so
        // workload-free scenario manifests stay byte-identical to earlier
        // schemas (same gating as the fleet availability section).
        if !s.classes.is_empty() {
            fields.push(("shed".to_string(), Value::Num(s.shed as f64)));
            fields.push((
                "classes".to_string(),
                Value::Arr(s.classes.iter().map(manifest::class_json).collect()),
            ));
        }
        fields
    };
    match outcome {
        ScenarioOutcome::Engine { run, serving } => {
            fields.push((
                "run".into(),
                Value::Obj(vec![
                    (
                        "mean_iteration_time".into(),
                        Value::Num(run.mean_iteration_time),
                    ),
                    ("mean_all_reduce".into(), Value::Num(run.mean_all_reduce)),
                    ("mean_all_to_all".into(), Value::Num(run.mean_all_to_all)),
                    ("mean_moe_compute".into(), Value::Num(run.mean_moe_compute)),
                    ("mean_load_ratio".into(), Value::Num(run.mean_load_ratio)),
                    (
                        "mean_tokens_per_group".into(),
                        Value::Num(run.mean_tokens_per_group),
                    ),
                    (
                        "tokens_per_second_per_device".into(),
                        Value::Num(run.tokens_per_second_per_device),
                    ),
                ]),
            ));
            fields.push(("serving".into(), Value::Obj(serving_fields(serving))));
        }
        ScenarioOutcome::Fleet(summary) => {
            fields.push((
                "fleet".into(),
                Value::Obj(vec![
                    ("replicas".into(), Value::Num(summary.replicas as f64)),
                    ("rounds".into(), Value::Num(summary.rounds as f64)),
                    (
                        "routing_imbalance".into(),
                        Value::Num(summary.routing_imbalance),
                    ),
                    (
                        "completion_imbalance".into(),
                        Value::Num(summary.completion_imbalance),
                    ),
                    (
                        "routed".into(),
                        Value::Arr(
                            summary
                                .routed
                                .iter()
                                .map(|&r| Value::Num(r as f64))
                                .collect(),
                        ),
                    ),
                ]),
            ));
            fields.push((
                "serving".into(),
                Value::Obj(serving_fields(&summary.aggregate)),
            ));
            // Only fleets with a timeline carry the section, so event-free
            // scenario manifests stay byte-identical to earlier schemas.
            if summary.availability.events_applied > 0 {
                fields.push((
                    "availability".into(),
                    crate::perf::availability::availability_json(&summary.availability),
                ));
            }
            // Same gating for the hand-off section: only disaggregated
            // fleets that actually priced a KV transfer carry it, so every
            // colocated manifest stays byte-identical to earlier schemas.
            let h = &summary.handoff;
            if h.kv_transfers > 0 {
                fields.push((
                    "handoff".into(),
                    Value::Obj(vec![
                        ("kv_transfers".into(), Value::Num(h.kv_transfers as f64)),
                        ("kv_transfer_bytes".into(), Value::Num(h.kv_transfer_bytes)),
                        (
                            "kv_transfer_seconds".into(),
                            Value::Num(h.kv_transfer_seconds),
                        ),
                        (
                            "max_transfer_seconds".into(),
                            Value::Num(h.max_transfer_seconds),
                        ),
                        (
                            "pending_transfers".into(),
                            Value::Num(h.pending_transfers as f64),
                        ),
                        (
                            "handoffs_completed".into(),
                            Value::Num(h.handoffs_completed as f64),
                        ),
                        (
                            "mean_handoff_latency".into(),
                            Value::Num(h.mean_handoff_latency),
                        ),
                        (
                            "max_handoff_latency".into(),
                            Value::Num(h.max_handoff_latency),
                        ),
                        ("mean_e2e_ttft".into(), Value::Num(h.mean_e2e_ttft)),
                        ("max_e2e_ttft".into(), Value::Num(h.max_e2e_ttft)),
                    ]),
                ));
            }
            // Same gating for the speculative section: only fleets that
            // actually dispatched a first-token race carry it, so every
            // unicast manifest stays byte-identical to earlier schemas.
            let sp = &summary.speculative;
            if sp.groups_dispatched > 0 {
                fields.push((
                    "speculative".into(),
                    Value::Obj(vec![
                        (
                            "groups_dispatched".into(),
                            Value::Num(sp.groups_dispatched as f64),
                        ),
                        (
                            "cancelled_copies".into(),
                            Value::Num(sp.cancelled_copies as f64),
                        ),
                        ("open_groups".into(), Value::Num(sp.open_groups as f64)),
                    ]),
                ));
            }
        }
    }
    Value::Obj(fields)
}

/// Runs every grid point of `spec` (sweep-expanded) on `threads` workers
/// and builds the run manifest. With `quick`, iteration counts are capped
/// at [`QUICK_ITERATIONS`] per point.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found while building or running any
/// point.
pub fn run_manifest(
    spec: &ScenarioSpec,
    quick: bool,
    threads: usize,
) -> Result<Value, ConfigError> {
    let mut points: Vec<ScenarioSpec> = spec
        .expand_sweep()?
        .into_iter()
        .map(|(_, point)| point)
        .collect();
    if quick {
        for point in &mut points {
            point.iterations = point.iterations.min(QUICK_ITERATIONS);
        }
    }
    let outcomes = run_points(&points, threads)?;
    let point_values = points
        .iter()
        .zip(&outcomes)
        .map(|(point, outcome)| outcome_json(point, outcome))
        .collect();
    Ok(Value::Obj(vec![
        ("schema".into(), Value::Str(RUN_SCHEMA.into())),
        ("name".into(), Value::Str(spec.name.clone())),
        ("quick".into(), Value::Bool(quick)),
        ("spec".into(), spec.to_json()),
        ("points".into(), Value::Arr(point_values)),
    ]))
}

/// Builds and runs every point on a `threads`-wide
/// [`WorkerPool`](crate::perf::pool::WorkerPool). Points are independent
/// seeded runs and outcomes come back in input order, so what a caller
/// derives from them is byte-identical for every thread count.
///
/// # Errors
///
/// Returns the first [`ConfigError`], in input order, found while building
/// or running a point.
pub fn run_points(
    points: &[ScenarioSpec],
    threads: usize,
) -> Result<Vec<ScenarioOutcome>, ConfigError> {
    let pool = crate::perf::pool::WorkerPool::new(threads);
    let jobs: Vec<_> = points
        .iter()
        .map(|point| move || point.build()?.run())
        .collect();
    pool.run(jobs).into_iter().collect()
}

/// Validates a run manifest against the `moentwine/scenario_run/v1`
/// schema: schema tag, an embedded spec that itself round-trips, a
/// non-empty point list, and per-point outcome sections with monotone
/// percentile ladders.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, RUN_SCHEMA)?;
    manifest
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?;
    let spec = manifest.get("spec").ok_or("missing embedded spec")?;
    ScenarioSpec::from_json(spec).map_err(|e| format!("embedded spec: {e}"))?;
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        point
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("point {i}: missing label"))?;
        let kind = point
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("point {i}: missing kind"))?;
        let section = match kind {
            "engine" => "run",
            "fleet" => "fleet",
            other => return Err(format!("point {i}: unknown kind {other:?}")),
        };
        point
            .get(section)
            .ok_or_else(|| format!("point {i}: missing {section:?} section"))?;
        let serving = point
            .get("serving")
            .ok_or_else(|| format!("point {i}: missing serving section"))?;
        // The availability section is only emitted for fleets whose
        // timeline actually fired; an all-zero section would mean the
        // byte-stability contract for event-free specs was broken.
        if let Some(avail) = point.get("availability") {
            let applied = avail
                .get("events_applied")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if applied < 1.0 {
                return Err(format!(
                    "point {i}: availability section present but no events applied"
                ));
            }
        }
        // The hand-off section is only emitted when a KV transfer was
        // actually priced; an all-zero section would mean the
        // byte-stability contract for colocated fleets was broken.
        if let Some(handoff) = point.get("handoff") {
            let transfers = handoff
                .get("kv_transfers")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if transfers < 1.0 {
                return Err(format!(
                    "point {i}: handoff section present but no KV transfers priced"
                ));
            }
            for key in ["kv_transfer_bytes", "kv_transfer_seconds"] {
                let value = handoff
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("point {i}: handoff missing {key}"))?;
                if value <= 0.0 {
                    return Err(format!("point {i}: handoff {key} must be positive"));
                }
            }
        }
        // The speculative section is only emitted when at least one
        // first-token race was dispatched; an all-zero section would mean
        // the byte-stability contract for unicast fleets was broken.
        if let Some(speculative) = point.get("speculative") {
            let groups = speculative
                .get("groups_dispatched")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if groups < 1.0 {
                return Err(format!(
                    "point {i}: speculative section present but no races dispatched"
                ));
            }
            for key in ["cancelled_copies", "open_groups"] {
                speculative
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("point {i}: speculative missing {key}"))?;
            }
        }
        // The serving section shares the sweep manifests' point skeleton,
        // so the same helper gates the ladders and throughput fields.
        v::check_point_common(
            serving,
            i,
            &[
                "completed",
                "admission_rejects",
                "sim_seconds",
                "mean_queue_depth",
            ],
        )?;
        // Per-class sections (workload-profiled runs only): attainments are
        // fractions and every class names its SLO targets.
        if let Some(classes) = serving.get("classes") {
            let classes = classes
                .as_array()
                .ok_or_else(|| format!("point {i}: classes must be an array"))?;
            if classes.is_empty() {
                return Err(format!(
                    "point {i}: classes section present but empty (workload-free \
                     runs must omit it)"
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
                for key in ["ttft_slo", "tpot_slo"] {
                    let slo = class
                        .get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("point {i}: class {name}: missing {key}"))?;
                    if slo <= 0.0 {
                        return Err(format!(
                            "point {i}: class {name}: {key} {slo} must be positive"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The manifest path for a scenario named `name`.
pub fn manifest_path(name: &str) -> PathBuf {
    // File stems stay shell-friendly: non-alphanumeric runs collapse to _.
    let stem: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    Path::new(MANIFEST_DIR).join(format!("{stem}.json"))
}

/// Loads a spec file, runs it, validates the manifest, writes it under
/// [`MANIFEST_DIR`], and returns a human-readable report plus the path.
///
/// # Errors
///
/// Returns a message on I/O failures, spec errors, and schema violations.
pub fn run_file(path: &Path, quick: bool, threads: usize) -> Result<(Report, PathBuf), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let spec =
        ScenarioSpec::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest =
        run_manifest(&spec, quick, threads).map_err(|e| format!("{}: {e}", path.display()))?;
    validate(&manifest).map_err(|e| format!("{}: manifest invalid: {e}", path.display()))?;

    let mut report = Report::new(
        format!("scenario_{}", spec.name),
        format!("Scenario {} ({})", spec.name, path.display()),
    )
    .columns([
        "Point",
        "Kind",
        "Iterations",
        "TTFT p50",
        "TTFT p99",
        "Goodput (req/s)",
        "Completed",
        "Rejects",
    ]);
    if let Some(points) = manifest.get("points").and_then(Value::as_array) {
        for point in points {
            let s = |k: &str| {
                point
                    .get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            let serving = point.get("serving");
            let num = |k: &str| {
                serving
                    .and_then(|v| v.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or_default()
            };
            report.row([
                s("label"),
                s("kind"),
                format!(
                    "{}",
                    point
                        .get("iterations")
                        .and_then(Value::as_f64)
                        .unwrap_or_default()
                ),
                fmt_time(num("ttft_p50")),
                fmt_time(num("ttft_p99")),
                format!("{:.1}", num("goodput_rps")),
                format!("{}", num("completed")),
                format!("{}", num("admission_rejects")),
            ]);
        }
    }

    let out = manifest_path(&spec.name);
    std::fs::create_dir_all(MANIFEST_DIR)
        .and_then(|()| std::fs::write(&out, manifest.pretty()))
        .map_err(|e| format!("{}: cannot write manifest: {e}", out.display()))?;
    report.note(format!(
        "schema-valid manifest: {} (byte-identical across runs and --threads)",
        out.display()
    ));
    Ok((report, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_workload::RouterPolicy;
    use moentwine_spec::{BatchSpec, EngineSpec, FleetSpec, PlatformSpec, ServingSpec, SweepSpec};

    fn tiny_serving_spec() -> ScenarioSpec {
        ScenarioSpec::new("unit_serving", PlatformSpec::wsc(4))
            .with_engine(
                EngineSpec::default()
                    .with_seed(17)
                    .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 6.0e3)))
                    .with_kv_hbm_fraction(1.0e-3),
            )
            .with_iterations(400)
    }

    #[test]
    fn manifest_validates_and_is_deterministic_across_threads() {
        let spec =
            tiny_serving_spec().with_sweep(SweepSpec::default().with_rates(vec![4.0e3, 12.0e3]));
        let serial = run_manifest(&spec, true, 1).unwrap();
        validate(&serial).expect("schema");
        let parallel = run_manifest(&spec, true, 3).unwrap();
        assert_eq!(serial.pretty(), parallel.pretty());
        // Two points from the rate sweep.
        assert_eq!(
            serial
                .get("points")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn fleet_points_flatten_with_fleet_section() {
        let spec = tiny_serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 6.0e3))
            .with_iterations(150);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points[0].get("kind").and_then(Value::as_str), Some("fleet"));
        assert!(points[0].get("fleet").is_some());
        // Event-free fleets carry no availability section (byte-stability
        // of pre-timeline manifests).
        assert!(points[0].get("availability").is_none());
    }

    #[test]
    fn chaos_fleet_points_carry_the_availability_section() {
        use moentwine_core::fleet::{FleetEvent, FleetEventKind};
        let spec = tiny_serving_spec()
            .with_fleet(
                FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 2.0e5).with_events(vec![
                    FleetEvent {
                        time: 3.0e-4,
                        kind: FleetEventKind::Crash { replica: 1 },
                    },
                    FleetEvent {
                        time: 6.0e-4,
                        kind: FleetEventKind::Recover { replica: 1 },
                    },
                ]),
            )
            .with_iterations(400);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        let avail = points[0]
            .get("availability")
            .expect("chaos fleet point has availability");
        assert_eq!(
            avail.get("events_applied").and_then(Value::as_f64),
            Some(2.0)
        );
        assert!(avail
            .get("goodput_windows")
            .and_then(Value::as_array)
            .is_some());
    }

    #[test]
    fn disaggregated_fleet_points_carry_the_gated_handoff_section() {
        use moentwine_core::fleet::ReplicaRole;
        use moentwine_spec::MappingSpec;
        // Colocated fleets must omit the hand-off section entirely.
        let colocated = tiny_serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 6.0e3))
            .with_iterations(150);
        let manifest = run_manifest(&colocated, true, 1).unwrap();
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        assert!(points[0].get("handoff").is_none());

        // A 2 prefill + 2 decode fleet on a heterogeneous decode platform
        // prices its hand-offs and reports them, identically across
        // threads.
        let spec = tiny_serving_spec()
            .with_fleet(
                FleetSpec::new(4, RouterPolicy::LeastQueueDepth, 2.0e4)
                    .with_roles(vec![
                        ReplicaRole::Prefill,
                        ReplicaRole::Prefill,
                        ReplicaRole::Decode,
                        ReplicaRole::Decode,
                    ])
                    .with_decode_platform(PlatformSpec::dgx(1), MappingSpec::cluster(8)),
            )
            .with_iterations(250);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        let handoff = points[0]
            .get("handoff")
            .expect("disaggregated fleet point has handoff");
        assert!(handoff.get("kv_transfers").and_then(Value::as_f64).unwrap() >= 1.0);
        assert!(
            handoff
                .get("kv_transfer_seconds")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        let parallel = run_manifest(&spec, true, 3).unwrap();
        assert_eq!(manifest.pretty(), parallel.pretty());
    }

    #[test]
    fn workload_points_carry_gated_class_sections() {
        use moe_workload::ClassSpec;
        use moentwine_spec::{ArrivalSourceSpec, WorkloadSpec};
        // Workload-free runs must omit the section entirely.
        let plain = run_manifest(&tiny_serving_spec(), true, 1).unwrap();
        let points = plain.get("points").and_then(Value::as_array).unwrap();
        assert!(points[0].get("serving").unwrap().get("classes").is_none());
        assert!(points[0].get("serving").unwrap().get("shed").is_none());

        // A bursty two-tenant workload reports both classes, in priority
        // order, with attainment fractions — identically across threads.
        let workload = WorkloadSpec::new(ArrivalSourceSpec::Burst {
            period: 0.002,
            burst_duration: 0.001,
            quiet_factor: 0.5,
            burst_factor: 4.0,
        })
        .with_classes(vec![
            ClassSpec::interactive()
                .with_weight(3.0)
                .with_shed_after(0.05),
            ClassSpec::batch(),
        ]);
        let spec = ScenarioSpec::new("unit_workload", PlatformSpec::wsc(4))
            .with_engine(
                EngineSpec::default()
                    .with_seed(17)
                    .with_batch(BatchSpec::Serving(
                        ServingSpec::hybrid(2048, 128, 6.0e3).with_workload(workload),
                    ))
                    .with_kv_hbm_fraction(1.0e-3),
            )
            .with_iterations(600);
        let manifest = run_manifest(&spec, false, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        let classes = points[0]
            .get("serving")
            .unwrap()
            .get("classes")
            .and_then(Value::as_array)
            .expect("workload point has classes");
        assert_eq!(classes.len(), 2);
        assert_eq!(
            classes[0].get("class").and_then(Value::as_str),
            Some("interactive")
        );
        assert_eq!(
            classes[1].get("class").and_then(Value::as_str),
            Some("batch")
        );
        let parallel = run_manifest(&spec, false, 3).unwrap();
        assert_eq!(manifest.pretty(), parallel.pretty());
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        let manifest = run_manifest(&tiny_serving_spec(), true, 1).unwrap();
        let mut broken = manifest.clone();
        if let Value::Obj(members) = &mut broken {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    *v = Value::Arr(vec![]);
                }
            }
        }
        assert!(validate(&broken).unwrap_err().contains("empty points"));
    }

    #[test]
    fn quick_caps_iterations() {
        let manifest = run_manifest(&tiny_serving_spec(), true, 1).unwrap();
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(
            points[0].get("iterations").and_then(Value::as_f64),
            Some(QUICK_ITERATIONS as f64)
        );
    }
}
