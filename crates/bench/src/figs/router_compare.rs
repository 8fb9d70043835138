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
//! `moentwine/router_compare/v1`). [`validate`] checks the schema *and*
//! the headline claim: in at least one bursty configuration, the best
//! feedback/speculative policy beats the best snapshot policy on p99
//! TTFT. Everything is seeded and grid points merge by index, so the
//! manifest is byte-identical across runs *and* `--threads` settings.
//!
//! # Seed sensitivity
//!
//! Two checks pass at their pinned seeds but not at every seed, so a change
//! that moves the gating sampler's random stream can flip them without
//! being wrong:
//!
//! * **This headline (`--quick`).** With `SEED` set to each of 223–244
//!   under the current sampler, the headline passed on 8 of 22 seeds; the
//!   median ratio of the best adaptive to the best snapshot bursty p99
//!   TTFT was 1.17 (the pinned seed 223 gives 0.83). A robust headline,
//!   such as a median over seeds, should replace it before the sampler
//!   changes.
//! * **`run_until_reaches_horizon_and_skips_idle_work`** in
//!   `tests/fleet_scheduler.rs`. Its `routed_e <= routed_l` assertion
//!   (the event heap routes no more requests than lock-step by the
//!   horizon) is false on 6 of the 1,120 `(seed, replicas, rate)` points
//!   with seeds 0–39, and on 40 of 5,600 with seeds 0–199. At seed 3,
//!   3 replicas and 7k req/s the event heap routes 6 requests and
//!   lock-step routes 5. The property's 64 sampled cases happen to miss
//!   every such point.

use std::fs;

use moe_model::ModelConfig;
use moe_workload::{RouterPolicy, Scenario, SchedulingMode};
use moentwine_core::comm::ClusterLayout;
use moentwine_core::engine::{EngineConfig, SummaryMode};
use moentwine_core::fleet::{Fleet, FleetSummary, PlatformRefs, ReplicaRole};
use moentwine_spec::{
    ArrivalSourceSpec, BatchSpec, EngineSpec, FleetSpec, ModelSpec, ServingSpec, WorkloadSpec,
};
use wsc_sim::CongestionBackend;

use crate::json::Value;
use crate::platforms::Platform;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/router_compare/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/router_compare.json";

/// Master seed of the sweep (replica streams are split from it).
const SEED: u64 = 223;

/// The two scenario shapes on the workload axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shape {
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
}

/// The per-replica engine template: hybrid continuous batching, a thin KV
/// share, a length-varied Privacy+Coding blend, and a quiet/burst arrival
/// cycle (4× bursts a quarter of the time) so tails come from queueing
/// spikes, not steady state.
fn engine_template() -> EngineConfig {
    let model: ModelConfig = ModelSpec::preset("tiny").resolve().expect("tiny preset");
    // The tiny-model fleet simulates ~1.5 ms per 400 rounds, so the burst
    // cycle is scaled to fit several cycles into every horizon.
    let workload = WorkloadSpec::new(ArrivalSourceSpec::Burst {
        period: 2.0e-4,
        burst_duration: 5.0e-5,
        quiet_factor: 0.5,
        burst_factor: 4.0,
    });
    EngineSpec::default()
        .with_seed(SEED)
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
        .engine_config(model)
        .expect("valid router_compare template")
}

/// The platforms every sweep point runs against, built once per sweep:
/// the wafer mesh (all bursty replicas; the disagg prefill tier) and the
/// DGX cluster (the disagg decode tier).
struct Platforms {
    wsc: Platform,
    plan: moentwine_core::MappingPlan,
    dgx: Platform,
    dgx_layout: ClusterLayout,
}

impl Platforms {
    fn build() -> Self {
        let wsc = Platform::wsc(4);
        let plan = crate::platforms::wsc_plan(&wsc, 4, crate::platforms::WscMapping::Er);
        let dgx = Platform::dgx(1);
        let dgx_layout = ClusterLayout::new(&dgx.topo, 8);
        Platforms {
            wsc,
            plan,
            dgx,
            dgx_layout,
        }
    }
}

/// Runs one sweep point: a fleet of `shape` dispatched by `policy` at
/// `rate`, returning the summary plus the replica count used.
fn run_point(
    platforms: &Platforms,
    shape: Shape,
    policy: RouterPolicy,
    rate: f64,
    rounds: usize,
) -> (usize, FleetSummary) {
    let Platforms {
        wsc,
        plan,
        dgx,
        dgx_layout,
    } = platforms;
    let mut fleet = match shape {
        Shape::Bursty => {
            // Odd replicas price iterations through the flow-level DES,
            // so replica speeds genuinely differ — invisible to snapshot
            // policies, learnable through latency feedback. Four replicas
            // with k=2 races give speculative dispatch real queue
            // diversity to hedge across.
            let config = FleetSpec::new(4, policy, rate)
                .with_backend_overrides(vec![
                    CongestionBackend::Analytic,
                    CongestionBackend::FlowSimCached,
                ])
                .fleet_config(engine_template());
            Fleet::new(&wsc.topo, &wsc.table, plan, config)
        }
        Shape::Disagg => {
            let config = FleetSpec::new(4, policy, rate)
                .with_roles(vec![
                    ReplicaRole::Prefill,
                    ReplicaRole::Prefill,
                    ReplicaRole::Decode,
                    ReplicaRole::Decode,
                ])
                .fleet_config(engine_template());
            let prefill = PlatformRefs {
                topo: &wsc.topo,
                table: &wsc.table,
                layout: plan,
            };
            let decode = PlatformRefs {
                topo: &dgx.topo,
                table: &dgx.table,
                layout: dgx_layout,
            };
            Fleet::try_new_disaggregated(prefill, Some(decode), config)
                .expect("valid disaggregated shape")
        }
    };
    fleet.run(rounds);
    let replicas = fleet.engines().len();
    (replicas, fleet.summary())
}

fn point_json(
    shape: Shape,
    policy: RouterPolicy,
    rate: f64,
    replicas: usize,
    s: &FleetSummary,
) -> Value {
    let agg = &s.aggregate;
    Value::Obj(vec![
        ("workload".into(), Value::Str(shape.name().into())),
        ("policy".into(), Value::Str(policy.name())),
        ("replicas".into(), Value::Num(replicas as f64)),
        ("arrival_rate".into(), Value::Num(rate)),
        ("ttft_p50".into(), Value::Num(agg.ttft_p50)),
        ("ttft_p95".into(), Value::Num(agg.ttft_p95)),
        ("ttft_p99".into(), Value::Num(agg.ttft_p99)),
        ("tpot_p50".into(), Value::Num(agg.tpot_p50)),
        ("tpot_p95".into(), Value::Num(agg.tpot_p95)),
        ("tpot_p99".into(), Value::Num(agg.tpot_p99)),
        ("e2e_p50".into(), Value::Num(agg.e2e_p50)),
        ("e2e_p99".into(), Value::Num(agg.e2e_p99)),
        ("goodput_rps".into(), Value::Num(agg.goodput_rps)),
        (
            "goodput_tokens_per_s".into(),
            Value::Num(agg.goodput_tokens_per_s),
        ),
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
    ])
}

/// Builds the sweep manifest over explicit axes on a `threads`-wide worker
/// pool. Results merge by grid index, so the manifest is byte-identical
/// for every thread count.
fn sweep_manifest(
    quick: bool,
    bursty_rates: &[f64],
    disagg_rates: &[f64],
    policies: &[RouterPolicy],
    rounds: usize,
    threads: usize,
    report: &mut Report,
) -> Value {
    let platforms = Platforms::build();
    let mut grid: Vec<(Shape, RouterPolicy, f64)> = Vec::new();
    for (shape, rates) in [(Shape::Bursty, bursty_rates), (Shape::Disagg, disagg_rates)] {
        for &rate in rates {
            for &policy in policies {
                grid.push((shape, policy, rate));
            }
        }
    }
    let pool = crate::perf::pool::WorkerPool::new(threads);
    let jobs: Vec<_> = grid
        .iter()
        .map(|&(shape, policy, rate)| {
            let platforms = &platforms;
            move || run_point(platforms, shape, policy, rate, rounds)
        })
        .collect();
    let summaries = pool.run(jobs);
    let mut points: Vec<Value> = Vec::new();
    for (&(shape, policy, rate), (replicas, s)) in grid.iter().zip(&summaries) {
        let agg = &s.aggregate;
        report.row([
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
        points.push(point_json(shape, policy, rate, *replicas, s));
    }
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::Num(SEED as f64)),
        ("rounds".into(), Value::Num(rounds as f64)),
        ("points".into(), Value::Arr(points)),
    ])
}

/// Whether a (parsed) policy routes from queue snapshots alone — the
/// baseline set the adaptive policies must beat.
fn is_snapshot(policy: RouterPolicy) -> bool {
    RouterPolicy::all().contains(&policy)
}

/// Validates a manifest against the `moentwine/router_compare/v1` schema:
/// schema tag, run parameters, per-point fields (every policy spelling
/// must parse back through the registry, speculative accounting must be
/// present exactly on speculative points), and the headline claim — in at
/// least one bursty configuration, the best feedback or speculative
/// policy beats the best snapshot policy on p99 TTFT.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(manifest, &["seed", "rounds"])?;
    // (rate, best snapshot p99, best adaptive p99) per bursty rate.
    let mut bursty: Vec<(f64, f64, f64)> = Vec::new();
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        let policy: RouterPolicy = v::point_str(point, i, "policy")?
            .parse()
            .map_err(|e| format!("point {i}: {e}"))?;
        let workload = v::point_str(point, i, "workload")?;
        if workload != "bursty" && workload != "disagg" {
            return Err(format!("point {i}: unknown workload {workload:?}"));
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
        if workload == "bursty" {
            let rate = v::point_num(point, i, "arrival_rate")?;
            let p99 = v::point_num(point, i, "ttft_p99")?;
            let entry = match bursty.iter_mut().find(|(r, _, _)| *r == rate) {
                Some(entry) => entry,
                None => {
                    bursty.push((rate, f64::INFINITY, f64::INFINITY));
                    bursty.last_mut().expect("just pushed")
                }
            };
            if is_snapshot(policy) {
                entry.1 = entry.1.min(p99);
            } else {
                entry.2 = entry.2.min(p99);
            }
        }
    }
    if bursty.is_empty() {
        return Err("no bursty points in manifest".into());
    }
    // The headline claim: feedback/speculative routing must earn its keep
    // somewhere on the bursty axis.
    if !bursty
        .iter()
        .any(|&(_, snapshot, adaptive)| adaptive < snapshot)
    {
        return Err(format!(
            "no bursty rate where a feedback/speculative policy beats the \
             best snapshot policy on p99 TTFT: {bursty:?}"
        ));
    }
    Ok(())
}

/// Runs the router comparison single-threaded (the `repro_all` entry
/// point, which parallelizes across figures instead).
pub fn run(quick: bool) -> Report {
    run_with_threads(quick, 1)
}

/// Runs the router comparison with grid points spread over `threads`
/// workers, writes `target/figs/router_compare.json` (byte-identical for
/// any thread count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    let rounds = if quick { 400 } else { 1200 };
    let bursty_rates: Vec<f64> = if quick {
        vec![6.0e4]
    } else {
        vec![6.0e4, 1.5e5]
    };
    let disagg_rates: Vec<f64> = vec![1.2e5];
    let policies = RouterPolicy::extended();
    let mut report = Report::new(
        "router_compare",
        "Router policies: snapshot vs feedback vs speculative dispatch",
    )
    .columns([
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
    let manifest = sweep_manifest(
        quick,
        &bursty_rates,
        &disagg_rates,
        &policies,
        rounds,
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
        "deterministic: grid points merge by index, so the manifest is \
         byte-identical across runs and --threads settings \
         (schema moentwine/router_compare/v1)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest_with_threads(threads: usize) -> Value {
        let mut report = Report::new("router_compare_test", "t");
        sweep_manifest(
            true,
            &[6.0e4],
            &[1.2e5],
            &RouterPolicy::extended(),
            400,
            threads,
            &mut report,
        )
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
        validate(&a).expect("schema + headline claim");
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
        // A snapshot policy claiming speculative activity is a violation.
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        if let Value::Obj(fields) = &mut points[0] {
                            for (pk, pv) in fields.iter_mut() {
                                if pk == "spec_cancelled_copies" {
                                    *pv = Value::Num(7.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = validate(&manifest).unwrap_err();
        assert!(err.contains("speculative activity"), "{err}");
    }

    #[test]
    fn validate_requires_the_adaptive_win() {
        // Flattening every bursty p99 to the same value kills the claim.
        let mut manifest = tiny_manifest_with_threads(1);
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        for point in points {
                            if let Value::Obj(fields) = point {
                                for (pk, pv) in fields.iter_mut() {
                                    if pk == "ttft_p99" {
                                        *pv = Value::Num(1.0);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = validate(&manifest).unwrap_err();
        assert!(err.contains("p99 TTFT"), "{err}");
    }
}
