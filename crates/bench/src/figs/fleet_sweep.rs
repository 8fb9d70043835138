//! Fleet-level serving sweep: scale-out latency–throughput surfaces.
//!
//! Sweeps **replica count × router policy × arrival rate** through the
//! fleet layer (`moentwine_core::fleet`): N independent replica engines in
//! lock-step behind a front-end router, the deployment shape the ROADMAP
//! north star ("heavy traffic from millions of users") implies. Each point
//! reports the fleet-aggregate SLO percentiles, goodput, admission rejects,
//! and the cross-replica load-imbalance ratios — enough to read off the
//! scale-out knee ("how many wafers for this arrival rate at p99 TTFT ≤
//! X?") and to compare dispatch policies under identical traffic.
//!
//! Besides the usual [`Report`], the sweep emits a machine-readable
//! manifest to `target/figs/fleet_sweep.json` (schema
//! `moentwine/fleet_sweep/v1`, validated by [`validate`]). Everything is
//! seeded and grid points merge by index, so the manifest is byte-identical
//! across runs *and* across `--threads` settings (pinned by a unit test and
//! the CI smoke step).

use moe_workload::{RouterPolicy, Scenario, SchedulingMode, WorkloadMix};
use moentwine_core::engine::SummaryMode;
use moentwine_core::fleet::FleetSummary;
use moentwine_spec::{
    BatchSpec, EngineSpec, FleetSpec, MappingSpec, PlatformSpec, ScenarioSpec, ServingSpec,
};

use crate::figs::manifest;
use crate::json::Value;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/fleet_sweep/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/fleet_sweep.json";

/// Master seed of the sweep (replica streams are split from it).
const SEED: u64 = 131;

/// The per-replica engine template: hybrid continuous batching with a thin
/// KV share, mirroring the single-engine `serve_sweep` so fleet and
/// single-replica curves are comparable (`disagg_sweep` shares it under
/// its own seed). The fleet converts the serving batch to
/// `BatchMode::External` per replica; the spec's request rate is unused —
/// the fleet owns arrivals.
pub(crate) fn engine_spec(seed: u64) -> EngineSpec {
    EngineSpec::default()
        .with_seed(seed)
        .with_workload(WorkloadMix::Blend(vec![
            (Scenario::Chat, 4.0),
            (Scenario::Coding, 1.0),
            (Scenario::Math, 1.0),
            (Scenario::Privacy, 4.0),
        ]))
        .with_batch(BatchSpec::Serving(ServingSpec {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 256,
            request_rate: 0.0,
            iteration_period: 0.02,
            summary: SummaryMode::Exact,
            workload: None,
        }))
        .with_kv_hbm_fraction(1.0e-3)
}

/// A fleet scenario named `name`: the `fleet` shape over replicas of
/// `engine` on a 4×4 wafer with ER mapping at TP=4 serving the tiny
/// preset, run for `rounds` synchronization rounds. Every fleet sweep
/// builds its points here.
pub(crate) fn fleet_scenario(
    name: String,
    engine: EngineSpec,
    fleet: FleetSpec,
    rounds: usize,
) -> ScenarioSpec {
    ScenarioSpec::new(name, PlatformSpec::wsc(4))
        .with_mapping(MappingSpec::er(4))
        .with_engine(engine)
        .with_fleet(fleet)
        .with_iterations(rounds)
}

/// One grid point: its `(replicas, policy, arrival rate)` key and the
/// scenario that runs it.
type Point = ((usize, RouterPolicy, f64), ScenarioSpec);

/// The grid over explicit axes, replica count slowest and rate fastest.
fn grid(
    replica_counts: &[usize],
    policies: &[RouterPolicy],
    rates: &[f64],
    rounds: usize,
) -> Vec<Point> {
    let mut grid = Vec::new();
    for &replicas in replica_counts {
        for &policy in policies {
            for &rate in rates {
                let name = format!(
                    "fleet_sweep/replicas={replicas}/policy={}/rate={rate}",
                    policy.name()
                );
                let fleet = FleetSpec::new(replicas, policy, rate);
                let spec = fleet_scenario(name, engine_spec(SEED), fleet, rounds);
                grid.push(((replicas, policy, rate), spec));
            }
        }
    }
    grid
}

/// The `--quick` or full grid: `(rounds, points)`.
///
/// Rounds are sized like the serve_sweep iteration counts: median
/// interactive outputs complete within a few hundred decode rounds. Rates
/// span per-replica underload through fleet saturation so the scale-out
/// knee (goodput flattening, p99 TTFT blowing up) is visible at every
/// replica count.
pub(super) fn sweep_grid(quick: bool) -> (usize, Vec<Point>) {
    let rounds = if quick { 400 } else { 1500 };
    let replica_counts: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 4] };
    let rates: Vec<f64> = if quick {
        vec![4.0e3, 12.0e3]
    } else {
        vec![2.0e3, 8.0e3, 24.0e3]
    };
    let grid = grid(&replica_counts, &RouterPolicy::all(), &rates, rounds);
    (rounds, grid)
}

fn point_json(replicas: usize, policy: RouterPolicy, rate: f64, s: &FleetSummary) -> Value {
    let agg = &s.aggregate;
    let mut fields = vec![
        ("replicas".into(), Value::Num(replicas as f64)),
        ("policy".into(), Value::Str(policy.name())),
        ("arrival_rate".into(), Value::Num(rate)),
    ];
    fields.extend(manifest::slo_fields(agg));
    fields.extend([
        ("completed".into(), Value::Num(agg.completed as f64)),
        (
            "admission_rejects".into(),
            Value::Num(agg.admission_rejects as f64),
        ),
        ("mean_queue_depth".into(), Value::Num(agg.mean_queue_depth)),
        ("routing_imbalance".into(), Value::Num(s.routing_imbalance)),
        (
            "completion_imbalance".into(),
            Value::Num(s.completion_imbalance),
        ),
        (
            "routed".into(),
            Value::Arr(s.routed.iter().map(|&r| Value::Num(r as f64)).collect()),
        ),
        ("sim_seconds".into(), Value::Num(s.sim_seconds)),
    ]);
    Value::Obj(fields)
}

/// Builds the sweep manifest over `grid` on a `threads`-wide worker pool
/// (the unit tests use a reduced grid; [`run_with_threads`] the
/// full/quick one). Results merge by grid index, so the manifest is
/// byte-identical for every thread count.
fn sweep_manifest(
    quick: bool,
    rounds: usize,
    grid: Vec<Point>,
    threads: usize,
    report: &mut Report,
) -> Value {
    let (keys, specs): (Vec<_>, Vec<_>) = grid.into_iter().unzip();
    let outcomes = crate::scenario_run::run_points(&specs, threads).expect("valid sweep point");
    let mut points: Vec<Value> = Vec::new();
    for ((replicas, policy, rate), outcome) in keys.into_iter().zip(&outcomes) {
        let s = outcome.as_fleet().expect("fleet_sweep points are fleets");
        let agg = &s.aggregate;
        report.row([
            format!("{replicas}"),
            policy.name(),
            format!("{rate}"),
            fmt_time(agg.ttft_p50),
            fmt_time(agg.ttft_p99),
            fmt_time(agg.e2e_p99),
            format!("{:.1}", agg.goodput_rps),
            format!("{}", agg.completed),
            format!("{}", agg.admission_rejects),
            format!("{:.3}", s.completion_imbalance),
        ]);
        points.push(point_json(replicas, policy, rate, s));
    }
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::Num(SEED as f64)),
        ("rounds".into(), Value::Num(rounds as f64)),
        ("points".into(), Value::Arr(points)),
    ])
}

/// Validates a manifest against the `moentwine/fleet_sweep/v1` schema:
/// schema tag, non-empty point list, required fields with the right types,
/// non-decreasing percentile ladders, non-negative throughput, imbalance
/// ratios ≥ 1, and a `routed` list whose length matches `replicas`.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(manifest, &["seed", "rounds"])?;
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        v::point_str(point, i, "policy")?
            .parse::<RouterPolicy>()
            .map_err(|e| format!("point {i}: {e}"))?;
        let replicas = v::point_num(point, i, "replicas")?;
        if replicas < 1.0 {
            return Err(format!("point {i}: replicas {replicas} < 1"));
        }
        let routed = point
            .get("routed")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("point {i}: missing routed array"))?;
        if routed.len() != replicas as usize {
            return Err(format!(
                "point {i}: routed has {} entries for {replicas} replicas",
                routed.len()
            ));
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
        for key in ["routing_imbalance", "completion_imbalance"] {
            if v::point_num(point, i, key)? < 1.0 {
                return Err(format!("point {i}: {key} below 1"));
            }
        }
    }
    Ok(())
}

/// Runs the fleet sweep with grid points spread over `threads` workers,
/// writes `target/figs/fleet_sweep.json` (byte-identical for any thread
/// count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    let (rounds, grid) = sweep_grid(quick);
    let mut report = Report::new(
        "fleet_sweep",
        "Fleet-level serving: replica x policy x rate sweep",
    )
    .columns([
        "Replicas",
        "Policy",
        "Rate (req/s)",
        "TTFT p50",
        "TTFT p99",
        "E2E p99",
        "Goodput (req/s)",
        "Completed",
        "Rejects",
        "Imbalance",
    ]);
    let manifest = sweep_manifest(quick, rounds, grid, threads, &mut report);
    manifest::write(&mut report, MANIFEST_PATH, &manifest);
    report.note(manifest::merged_by_index_note(SCHEMA));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest_with_threads(threads: usize) -> Value {
        let mut report = Report::new("fleet_sweep_test", "t");
        let grid = grid(
            &[1, 2],
            &[RouterPolicy::RoundRobin, RouterPolicy::PowerOfTwoChoices],
            &[20.0e3],
            150,
        );
        sweep_manifest(true, 150, grid, threads, &mut report)
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
    fn validate_rejects_broken_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        assert!(validate(&Value::Obj(vec![(
            "schema".into(),
            Value::Str("other/v9".into())
        )]))
        .is_err());
        let mut manifest = tiny_manifest_with_threads(1);
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    *v = Value::Arr(vec![]);
                }
            }
        }
        assert!(validate(&manifest).unwrap_err().contains("empty points"));
        // A policy name outside the registry is a schema violation.
        let mut manifest = tiny_manifest_with_threads(1);
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        if let Value::Obj(fields) = &mut points[0] {
                            for (pk, pv) in fields.iter_mut() {
                                if pk == "policy" {
                                    *pv = Value::Str("random".into());
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(validate(&manifest).is_err());
    }
}
