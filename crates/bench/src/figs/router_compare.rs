//! Router policy comparison: snapshot vs feedback vs speculative dispatch.
//!
//! Sweeps every registered [`RouterPolicy`] — the four snapshot policies
//! plus the EWMA feedback policies (`ewma-ttft`, `least-expected-ttft`)
//! and speculative dispatch (`speculative:k=2`) — under two scenarios
//! where the open routing subsystem (DESIGN.md §14) should earn its keep:
//!
//! * **bursty**: a four-replica colocated fleet with *heterogeneous*
//!   congestion backends (even replicas analytic, odd replicas
//!   flow-sim-cached) under a quiet/burst arrival cycle and a
//!   length-varied Privacy+Coding blend. Snapshot policies see queue
//!   depths, not replica speed or expected service time; feedback
//!   policies learn it, and speculative dispatch hedges the tail by
//!   racing the two least-loaded replicas and cancelling the loser at
//!   first token.
//! * **disagg**: two wafer prefill pods feeding two DGX decode replicas
//!   across the priced KV hand-off, checking every policy survives the
//!   disaggregated dispatch path.
//!
//! Besides the usual [`Report`], the sweep emits a machine-readable
//! manifest to `target/figs/router_compare.json` (schema
//! `moentwine/router_compare/v2`). The whole grid runs once for each seed
//! of [`SEEDS`], in `--quick` too, and the manifest reports per shape the
//! median over seeds of the best feedback/speculative policy's p99 TTFT
//! over the best snapshot policy's (`bursty_median_p99_ratio`,
//! `disagg_median_p99_ratio`). [`validate`] checks the schema, that both
//! medians are the ones the points give, *and* the headline claim: on the
//! disaggregated shape that median is below 1. Everything is seeded and
//! grid points merge by index, so the manifest is byte-identical across
//! runs *and* `--threads` settings.
//!
//! # Seed sensitivity
//!
//! The headline is the claim that held at every seed measured. With the
//! `--quick` grid run at each seed of 223–244, one at a time:
//!
//! * **disagg**: speculative dispatch is the best adaptive policy at every
//!   seed, at 0.03–0.24 of the best snapshot policy's p99 TTFT (median
//!   0.10) with the gating sampler of one shared stream and Box-Muller
//!   normals, and at 0.03–0.25 (median 0.105) with the current per-group
//!   streams and ziggurat normals.
//! * **bursty**: an adaptive policy beats the best snapshot policy on 8 of
//!   the 22 seeds under either sampler (median ratio 1.17 before, 1.04
//!   now). That was this figure's headline until the sampler changed: it
//!   asked for an adaptive win at the one pinned seed 223 (0.83 before),
//!   which the new stream flipped (1.02). The manifest still reports the
//!   bursty median, over [`SEEDS`] 1.76 now (0.83 before), but it is not
//!   asserted.
//!
//! A second check was once seed-sensitive the same way, but because its
//! claim was false: `run_until_reaches_horizon_and_skips_idle_work` in
//! `tests/fleet_scheduler.rs` asserted that `Fleet::run_until` routes no
//! more requests by the horizon than the lock-step round loop
//! (`while sim_time() < horizon { run(1) }`). That loop routes only at its
//! barriers, the last of which sits below the horizon, so it is the one
//! that routes fewer; the assertion now reads that way, and
//! `event_heap_routes_past_the_last_lockstep_barrier` pins seed 3,
//! 3 replicas, 7k req/s (event loop 6, lock-step 5).

use moe_workload::{RouterPolicy, Scenario, SchedulingMode};
use moentwine_core::engine::SummaryMode;
use moentwine_core::fleet::{FleetSummary, ReplicaRole};
use moentwine_spec::{
    ArrivalSourceSpec, BatchSpec, EngineSpec, FleetSpec, MappingSpec, PlatformSpec, ScenarioSpec,
    ServingSpec, WorkloadSpec,
};
use wsc_sim::CongestionBackend;

use crate::figs::fleet_sweep::fleet_scenario;
use crate::figs::manifest;
use crate::json::Value;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/router_compare/v2";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/router_compare.json";

/// Master seeds of the sweep (replica streams are split from each): the
/// whole grid runs once per seed, and the headline is a median over them.
pub const SEEDS: [u64; 5] = [223, 224, 225, 226, 227];

/// The two scenario shapes on the workload axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Shape {
    /// Heterogeneous four-replica colocated fleet under bursty arrivals.
    Bursty,
    /// Two wafer prefill pods + two DGX decode replicas.
    Disagg,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Bursty => "bursty",
            Shape::Disagg => "disagg",
        }
    }

    /// The fleet of this shape dispatched by `policy` at `rate`.
    fn fleet(self, policy: RouterPolicy, rate: f64) -> FleetSpec {
        let fleet = FleetSpec::new(4, policy, rate);
        match self {
            // Odd replicas price iterations through the flow-level DES,
            // so replica speeds genuinely differ — invisible to snapshot
            // policies, learnable through latency feedback. Four replicas
            // with k=2 races give speculative dispatch real queue
            // diversity to hedge across.
            Shape::Bursty => fleet.with_backend_overrides(vec![
                CongestionBackend::Analytic,
                CongestionBackend::FlowSimCached,
            ]),
            Shape::Disagg => fleet
                .with_roles(vec![
                    ReplicaRole::Prefill,
                    ReplicaRole::Prefill,
                    ReplicaRole::Decode,
                    ReplicaRole::Decode,
                ])
                .with_decode_platform(PlatformSpec::dgx(1), MappingSpec::cluster(8)),
        }
    }
}

/// The per-replica engine template: hybrid continuous batching, a thin KV
/// share, a length-varied Privacy+Coding blend, and a quiet/burst arrival
/// cycle (4× bursts a quarter of the time) so tails come from queueing
/// spikes, not steady state.
fn engine_spec(seed: u64) -> EngineSpec {
    // The tiny-model fleet simulates ~1.5 ms per 400 rounds, so the burst
    // cycle is scaled to fit several cycles into every horizon.
    let workload = WorkloadSpec::new(ArrivalSourceSpec::Burst {
        period: 2.0e-4,
        burst_duration: 5.0e-5,
        quiet_factor: 0.5,
        burst_factor: 4.0,
    });
    EngineSpec::default()
        .with_seed(seed)
        .with_workload(moe_workload::WorkloadMix::Blend(vec![
            (Scenario::Privacy, 4.0),
            (Scenario::Coding, 1.0),
        ]))
        .with_batch(BatchSpec::Serving(
            ServingSpec {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 0.0,
                iteration_period: 0.02,
                summary: SummaryMode::Exact,
                workload: None,
            }
            .with_workload(workload),
        ))
        .with_kv_hbm_fraction(1.0e-3)
}

/// One grid point: its `(seed, shape, policy, arrival rate)` key and the
/// scenario that runs it.
type Point = ((u64, Shape, RouterPolicy, f64), ScenarioSpec);

/// The grid over explicit axes (`rates` holds the arrival rates of the
/// bursty and of the disaggregated shape), seed slowest and policy
/// fastest.
fn grid(seeds: &[u64], rates: [&[f64]; 2], policies: &[RouterPolicy], rounds: usize) -> Vec<Point> {
    let mut grid = Vec::new();
    for &seed in seeds {
        for (shape, rates) in [Shape::Bursty, Shape::Disagg].into_iter().zip(rates) {
            for &rate in rates {
                for &policy in policies {
                    let name = format!(
                        "router_compare/seed={seed}/{}/rate={rate}/policy={}",
                        shape.name(),
                        policy.name()
                    );
                    let fleet = shape.fleet(policy, rate);
                    let spec = fleet_scenario(name, engine_spec(seed), fleet, rounds);
                    grid.push(((seed, shape, policy, rate), spec));
                }
            }
        }
    }
    grid
}

/// The `--quick` or full grid over [`SEEDS`]: `(rounds, points)`.
pub(super) fn sweep_grid(quick: bool) -> (usize, Vec<Point>) {
    let rounds = if quick { 400 } else { 1200 };
    let bursty_rates: Vec<f64> = if quick {
        vec![6.0e4]
    } else {
        vec![6.0e4, 1.5e5]
    };
    let disagg_rates: Vec<f64> = vec![1.2e5];
    let grid = grid(
        &SEEDS,
        [&bursty_rates, &disagg_rates],
        &RouterPolicy::extended(),
        rounds,
    );
    (rounds, grid)
}

fn point_json(seed: u64, shape: Shape, policy: RouterPolicy, rate: f64, s: &FleetSummary) -> Value {
    let agg = &s.aggregate;
    let mut fields = vec![
        ("seed".into(), Value::Num(seed as f64)),
        ("workload".into(), Value::Str(shape.name().into())),
        ("policy".into(), Value::Str(policy.name())),
        ("replicas".into(), Value::Num(s.replicas as f64)),
        ("arrival_rate".into(), Value::Num(rate)),
    ];
    fields.extend(manifest::slo_fields(agg));
    fields.extend([
        ("completed".into(), Value::Num(agg.completed as f64)),
        (
            "admission_rejects".into(),
            Value::Num(agg.admission_rejects as f64),
        ),
        ("shed".into(), Value::Num(agg.shed as f64)),
        (
            "router_discarded".into(),
            Value::Num((s.router_discarded[0] + s.router_discarded[1]) as f64),
        ),
        (
            "spec_groups_dispatched".into(),
            Value::Num(s.speculative.groups_dispatched as f64),
        ),
        (
            "spec_cancelled_copies".into(),
            Value::Num(s.speculative.cancelled_copies as f64),
        ),
        ("routing_imbalance".into(), Value::Num(s.routing_imbalance)),
        (
            "completion_imbalance".into(),
            Value::Num(s.completion_imbalance),
        ),
        ("sim_seconds".into(), Value::Num(s.sim_seconds)),
    ]);
    Value::Obj(fields)
}

/// Builds the sweep manifest over `grid` (run for `seeds`) on a
/// `threads`-wide worker pool. Results merge by grid index, so the
/// manifest is byte-identical for every thread count.
fn sweep_manifest(
    quick: bool,
    seeds: &[u64],
    rounds: usize,
    grid: Vec<Point>,
    threads: usize,
    report: &mut Report,
) -> Value {
    let (keys, specs): (Vec<_>, Vec<_>) = grid.into_iter().unzip();
    let outcomes = crate::scenario_run::run_points(&specs, threads).expect("valid sweep point");
    let mut points: Vec<Value> = Vec::new();
    for ((seed, shape, policy, rate), outcome) in keys.into_iter().zip(&outcomes) {
        let s = outcome
            .as_fleet()
            .expect("router_compare points are fleets");
        let agg = &s.aggregate;
        report.row([
            format!("{seed}"),
            shape.name().into(),
            policy.name(),
            format!("{rate}"),
            fmt_time(agg.ttft_p50),
            fmt_time(agg.ttft_p99),
            fmt_time(agg.e2e_p99),
            format!("{:.1}", agg.goodput_rps),
            format!("{}", agg.completed),
            format!("{}", s.speculative.cancelled_copies),
            format!("{}", s.router_discarded[0] + s.router_discarded[1]),
        ]);
        points.push(point_json(seed, shape, policy, rate, s));
    }
    let mut manifest = vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("quick".into(), Value::Bool(quick)),
        (
            "seeds".into(),
            Value::Arr(seeds.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
        ("rounds".into(), Value::Num(rounds as f64)),
    ];
    // A sweep too broken to yield ratios still writes its points, for
    // `validate` to name what is wrong with them.
    if let Ok(ratios) = headline_ratios(&points) {
        for (shape, ratio) in [Shape::Bursty, Shape::Disagg].into_iter().zip(ratios) {
            report.note(format!(
                "{} median best-adaptive/best-snapshot p99 TTFT over seeds {seeds:?}: {ratio:.3}",
                shape.name()
            ));
            manifest.push((median_key(shape).into(), Value::Num(ratio)));
        }
    }
    manifest.push(("points".into(), Value::Arr(points)));
    Value::Obj(manifest)
}

/// Whether a (parsed) policy routes from queue snapshots alone — the
/// baseline set the adaptive policies must beat.
fn is_snapshot(policy: RouterPolicy) -> bool {
    RouterPolicy::all().contains(&policy)
}

/// The manifest field reporting `shape`'s median ratio.
fn median_key(shape: Shape) -> &'static str {
    match shape {
        Shape::Bursty => "bursty_median_p99_ratio",
        Shape::Disagg => "disagg_median_p99_ratio",
    }
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Per shape (bursty, then disagg), the median over its configurations
/// (seed × arrival rate) of the best feedback/speculative policy's p99
/// TTFT over the best snapshot policy's.
///
/// # Errors
///
/// Returns a message if a point lacks a field the ratio needs, or a shape
/// has no configuration with both a snapshot and an adaptive policy.
fn headline_ratios(points: &[Value]) -> Result<[f64; 2], String> {
    use crate::figs::validate as v;
    // (workload, seed, rate, best snapshot p99, best adaptive p99).
    let mut best: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let policy: RouterPolicy = v::point_str(point, i, "policy")?
            .parse()
            .map_err(|e| format!("point {i}: {e}"))?;
        let workload = v::point_str(point, i, "workload")?;
        let seed = v::point_num(point, i, "seed")?;
        let rate = v::point_num(point, i, "arrival_rate")?;
        let p99 = v::point_num(point, i, "ttft_p99")?;
        let entry = match best
            .iter_mut()
            .position(|(w, s, r, _, _)| w == workload && *s == seed && *r == rate)
        {
            Some(at) => &mut best[at],
            None => {
                best.push((workload.into(), seed, rate, f64::INFINITY, f64::INFINITY));
                best.last_mut().expect("just pushed")
            }
        };
        if is_snapshot(policy) {
            entry.3 = entry.3.min(p99);
        } else {
            entry.4 = entry.4.min(p99);
        }
    }
    let mut medians = [0.0; 2];
    for (median_of, shape) in medians.iter_mut().zip([Shape::Bursty, Shape::Disagg]) {
        let mut ratios: Vec<f64> = best
            .iter()
            .filter(|(w, ..)| w == shape.name())
            .map(|&(_, _, _, snapshot, adaptive)| adaptive / snapshot)
            .collect();
        if ratios.is_empty() || ratios.iter().any(|r| !r.is_finite()) {
            return Err(format!(
                "{} points lack a snapshot and an adaptive policy in some configuration",
                shape.name()
            ));
        }
        *median_of = median(&mut ratios);
    }
    Ok(medians)
}

/// Validates a manifest against the `moentwine/router_compare/v2` schema:
/// schema tag, run parameters (the seed set must be [`SEEDS`]), per-point
/// fields (every policy spelling must parse back through the registry,
/// speculative accounting must be present exactly on speculative points),
/// the reported median ratios, and the headline claim: over the seeds, the
/// median ratio of the best feedback/speculative policy's p99 TTFT to the
/// best snapshot policy's on the disaggregated shape is below 1.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(manifest, &["rounds"])?;
    let seeds: Option<Vec<f64>> = manifest
        .get("seeds")
        .and_then(Value::as_array)
        .map(|seeds| seeds.iter().filter_map(Value::as_f64).collect());
    let expected: Vec<f64> = SEEDS.iter().map(|&s| s as f64).collect();
    if seeds.as_ref() != Some(&expected) {
        return Err(format!("seeds must be {SEEDS:?}, found {seeds:?}"));
    }
    let points = v::require_points(manifest)?;
    for (i, point) in points.iter().enumerate() {
        let policy: RouterPolicy = v::point_str(point, i, "policy")?
            .parse()
            .map_err(|e| format!("point {i}: {e}"))?;
        let workload = v::point_str(point, i, "workload")?;
        if workload != "bursty" && workload != "disagg" {
            return Err(format!("point {i}: unknown workload {workload:?}"));
        }
        if !expected.contains(&v::point_num(point, i, "seed")?) {
            return Err(format!("point {i}: seed outside the seed set"));
        }
        if v::point_num(point, i, "replicas")? < 1.0 {
            return Err(format!("point {i}: replicas < 1"));
        }
        v::check_point_common(
            point,
            i,
            &[
                "arrival_rate",
                "completed",
                "admission_rejects",
                "shed",
                "router_discarded",
                "sim_seconds",
            ],
        )?;
        let groups = v::point_num(point, i, "spec_groups_dispatched")?;
        let cancelled = v::point_num(point, i, "spec_cancelled_copies")?;
        let speculative = matches!(policy, RouterPolicy::Speculative { .. });
        if speculative && groups <= 0.0 {
            return Err(format!("point {i}: speculative point dispatched no races"));
        }
        if !speculative && (groups != 0.0 || cancelled != 0.0) {
            return Err(format!(
                "point {i}: unicast policy {} reports speculative activity",
                policy.name()
            ));
        }
        let completed = v::point_num(point, i, "completed")?;
        if completed <= 0.0 {
            return Err(format!("point {i}: no completions — horizon too short"));
        }
    }
    let ratios = headline_ratios(points)?;
    // The headline claim: speculative dispatch (the best adaptive policy
    // there) cuts disaggregated p99 TTFT at every measured seed, so its
    // median must stay below the best snapshot policy's.
    let disagg = ratios[1];
    if disagg >= 1.0 {
        return Err(format!(
            "disagg: the median over seeds {SEEDS:?} of best feedback/speculative \
             over best snapshot p99 TTFT is {disagg}, not below 1"
        ));
    }
    for (shape, ratio) in [Shape::Bursty, Shape::Disagg].into_iter().zip(ratios) {
        let reported = manifest.get(median_key(shape)).and_then(Value::as_f64);
        if reported != Some(ratio) {
            return Err(format!(
                "{} reports {reported:?}, the points give {ratio}",
                median_key(shape)
            ));
        }
    }
    Ok(())
}

/// Runs the router comparison with grid points spread over `threads`
/// workers, writes `target/figs/router_compare.json` (byte-identical for
/// any thread count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    let (rounds, grid) = sweep_grid(quick);
    let mut report = Report::new(
        "router_compare",
        "Router policies: snapshot vs feedback vs speculative dispatch",
    )
    .columns([
        "Seed",
        "Workload",
        "Policy",
        "Rate (req/s)",
        "TTFT p50",
        "TTFT p99",
        "E2E p99",
        "Goodput (req/s)",
        "Completed",
        "Cancelled",
        "Discarded",
    ]);
    let manifest = sweep_manifest(quick, &SEEDS, rounds, grid, threads, &mut report);
    manifest::write(&mut report, MANIFEST_PATH, &manifest);
    report.note(manifest::merged_by_index_note(SCHEMA));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn manifest_with(seeds: &[u64], threads: usize) -> Value {
        let mut report = Report::new("router_compare_test", "t");
        let grid = grid(seeds, [&[6.0e4], &[1.2e5]], &RouterPolicy::extended(), 400);
        sweep_manifest(true, seeds, 400, grid, threads, &mut report)
    }

    /// The `--quick` manifest over the full seed set, swept once for every
    /// test that reads it.
    fn quick_manifest() -> Value {
        static MANIFEST: OnceLock<Value> = OnceLock::new();
        MANIFEST.get_or_init(|| manifest_with(&SEEDS, 2)).clone()
    }

    /// Overwrites `field` on every point of `manifest` that `select` picks.
    fn set_point_field(
        manifest: &mut Value,
        select: impl Fn(&[(String, Value)]) -> bool,
        field: &str,
        value: f64,
    ) {
        let Value::Obj(members) = manifest else {
            panic!("manifest is an object")
        };
        for (k, v) in members.iter_mut() {
            if let (true, Value::Arr(points)) = (k == "points", v) {
                for point in points {
                    let Value::Obj(fields) = point else { continue };
                    if !select(fields) {
                        continue;
                    }
                    for (pk, pv) in fields.iter_mut() {
                        if pk == field {
                            *pv = Value::Num(value);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn manifest_is_byte_identical_across_runs_and_threads_and_validates() {
        let a = manifest_with(&SEEDS[..1], 1);
        let b = manifest_with(&SEEDS[..1], 1);
        assert_eq!(a.pretty(), b.pretty(), "sweep must be deterministic");
        let parallel = manifest_with(&SEEDS[..1], 3);
        assert_eq!(
            a.pretty(),
            parallel.pretty(),
            "thread count must not change the manifest"
        );
        // One seed alone is not the headline's seed set.
        let err = validate(&a).unwrap_err();
        assert!(err.contains("seeds must be"), "{err}");
        let manifest = quick_manifest();
        validate(&manifest).expect("schema + headline claim");
        let reparsed = Value::parse(&manifest.pretty()).expect("parse");
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
        // A snapshot policy claiming speculative activity is a violation.
        let mut manifest = quick_manifest();
        set_point_field(
            &mut manifest,
            |fields| {
                fields
                    .iter()
                    .any(|(k, v)| k == "policy" && v.as_str() == Some("round-robin"))
            },
            "spec_cancelled_copies",
            7.0,
        );
        let err = validate(&manifest).unwrap_err();
        assert!(err.contains("speculative activity"), "{err}");
        // A reported median must be the one the points give.
        let mut manifest = quick_manifest();
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "bursty_median_p99_ratio" {
                    *v = Value::Num(0.5);
                }
            }
        }
        let err = validate(&manifest).unwrap_err();
        assert!(err.contains("bursty_median_p99_ratio reports"), "{err}");
    }

    #[test]
    fn validate_requires_the_adaptive_win() {
        // Flattening every disaggregated p99 to one value kills the claim
        // at every seed, so the median ratio is 1.
        let mut manifest = quick_manifest();
        set_point_field(
            &mut manifest,
            |fields| {
                fields
                    .iter()
                    .any(|(k, v)| k == "workload" && v.as_str() == Some("disagg"))
            },
            "ttft_p99",
            1.0,
        );
        let err = validate(&manifest).unwrap_err();
        assert!(err.contains("p99 TTFT"), "{err}");
        assert!(err.contains("not below 1"), "{err}");
    }
}
