//! Fleet event-loop perf: `Fleet::run_until` against a lock-step round
//! loop to the same horizon on a wide, partially-idle fleet, tracked
//! across PRs as `target/figs/BENCH_fleet.json` (schema
//! `moentwine/bench_fleet/v1`).
//!
//! The ratio of record (gated in CI by the `bench_fleet` binary):
//!
//! * `heap_speedup` — lock-step wall-clock over event-loop wall-clock for
//!   the same time horizon on the same fleet. The lock-step reference is
//!   the caller's loop `while fleet.sim_time() < horizon { fleet.run(1) }`:
//!   it prices one microsecond-scale iteration on *every* replica *every*
//!   round, idle or not; the event heap parks idle replicas and pays only
//!   for causal step events, so the gap widens with fleet width and
//!   idleness. Expected ≥ 2× on the quick grid, far more on wide
//!   production shapes.
//!
//! The manifest also records the memory story behind the 10M-request
//! scenario: retained request records under streaming summaries (O(replicas),
//! the peak-RSS proxy) against the exact-mode count (O(completions)).

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use moe_workload::{RouterPolicy, Scenario, SchedulingMode, WorkloadMix};
use moentwine_core::engine::{EngineConfig, SummaryMode};
use moentwine_core::fleet::{Fleet, FleetSummary};
use moentwine_spec::{BatchSpec, EngineSpec, FleetSpec, ModelSpec, ServingSpec};

use crate::json::Value;
use crate::platforms::{wsc_plan, Platform, WscMapping};

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/bench_fleet/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/BENCH_fleet.json";

/// Master seed (replica streams are split from it by the fleet).
const SEED: u64 = 977;

/// One measured event-loop snapshot for a `(replicas, rate, horizon)` grid
/// point.
#[derive(Clone, Debug)]
pub struct FleetPerf {
    /// Replica engines in the fleet.
    pub replicas: usize,
    /// Global arrival rate, requests/second.
    pub request_rate: f64,
    /// Simulated-time horizon both drives run to, seconds.
    pub horizon_seconds: f64,
    /// Lock-step wall-clock for the horizon, seconds.
    pub lockstep_wall_seconds: f64,
    /// Event-heap wall-clock for the same horizon, seconds.
    pub event_wall_seconds: f64,
    /// Headline ratio: `lockstep_wall / event_wall`.
    pub heap_speedup: f64,
    /// Priced replica-step events in the event-heap run.
    pub event_steps: u64,
    /// Synchronization rounds in the lock-step run.
    pub lockstep_rounds: u64,
    /// Requests routed by the event-heap run.
    pub routed: u64,
    /// Requests completed by the event-heap run.
    pub completed: u64,
    /// Event-heap wall-clock per simulated (routed) request, seconds.
    pub wall_per_request_seconds: f64,
    /// Request records retained under streaming summaries (peak-RSS proxy;
    /// stays O(replicas) regardless of traffic).
    pub retained_records_streaming: usize,
    /// Request records retained by the same run under exact summaries
    /// (grows with completions and priced iterations).
    pub retained_records_exact: usize,
}

/// The per-replica engine template: hybrid continuous batching on the tiny
/// model with a thin KV share (the `fleet_sweep` shape), under `summary`.
fn engine_template(summary: SummaryMode) -> EngineConfig {
    let model = ModelSpec::preset("tiny").resolve().expect("tiny preset");
    EngineSpec::default()
        .with_seed(SEED)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchSpec::Serving(ServingSpec {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
            request_rate: 0.0,
            iteration_period: 0.02,
            summary,
            workload: None,
        }))
        .with_kv_hbm_fraction(1.0e-3)
        .engine_config(model)
        .expect("valid fleet template")
}

/// Builds the fleet under `summary`, times `drive` on it, and returns the
/// wall-clock plus the finished fleet.
fn timed_run<'a>(
    platform: &'a Platform,
    plan: &'a moentwine_core::MappingPlan,
    replicas: usize,
    rate: f64,
    summary: SummaryMode,
    drive: impl FnOnce(&mut Fleet<'a>),
) -> (f64, Fleet<'a>, FleetSummary) {
    let config = FleetSpec::new(replicas, RouterPolicy::PowerOfTwoChoices, rate)
        .fleet_config(engine_template(summary));
    let mut fleet = Fleet::new(&platform.topo, &platform.table, plan, config);
    let t0 = Instant::now();
    drive(&mut fleet);
    let wall = t0.elapsed().as_secs_f64();
    let summary = fleet.summary();
    (wall, fleet, summary)
}

/// Runs the measurement. `quick` shrinks the horizon for CI smoke runs;
/// the ≥ 2× speedup contract must hold in either mode.
///
/// The grid is a wide, *underutilized* fleet — 64 replicas with arrivals
/// that keep only a fraction busy at any instant — which is exactly the
/// shape where a global barrier is wasteful and the paper-scale "millions
/// of users, bursty" deployment spends most of its life.
pub fn measure_fleet_perf(quick: bool) -> FleetPerf {
    let replicas = 64;
    let rate = 1.0e4;
    let horizon = if quick { 1.0e-3 } else { 8.0e-3 };
    let platform = Platform::wsc(4);
    let plan = wsc_plan(&platform, 4, WscMapping::Er);

    // The lock-step reference: whole rounds until the clock passes the
    // horizon, every replica stepped every round.
    let lockstep = |fleet: &mut Fleet| {
        while fleet.sim_time() < horizon {
            fleet.run(1);
        }
    };
    let event_loop = |fleet: &mut Fleet| fleet.run_until(horizon);
    let streaming = SummaryMode::Streaming;
    let (lockstep_wall_seconds, lockstep_fleet, _) =
        timed_run(&platform, &plan, replicas, rate, streaming, lockstep);
    let (event_wall_seconds, event_fleet, event_summary) =
        timed_run(&platform, &plan, replicas, rate, streaming, event_loop);
    // The exact-mode twin of the event run: same trajectory, but every
    // completion record and iteration snapshot is retained.
    let (_, exact_fleet, _) = timed_run(
        &platform,
        &plan,
        replicas,
        rate,
        SummaryMode::Exact,
        event_loop,
    );

    let routed: u64 = event_summary.routed.iter().sum();
    FleetPerf {
        replicas,
        request_rate: rate,
        horizon_seconds: horizon,
        lockstep_wall_seconds,
        event_wall_seconds,
        heap_speedup: lockstep_wall_seconds / event_wall_seconds,
        event_steps: event_fleet.rounds(),
        lockstep_rounds: lockstep_fleet.rounds(),
        routed,
        completed: event_summary.aggregate.completed as u64,
        wall_per_request_seconds: event_wall_seconds / (routed.max(1) as f64),
        retained_records_streaming: event_fleet.retained_records(),
        retained_records_exact: exact_fleet.retained_records(),
    }
}

impl FleetPerf {
    /// The JSON manifest written to [`MANIFEST_PATH`].
    pub fn to_json(&self, quick: bool) -> Value {
        let num = Value::Num;
        Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("quick".into(), Value::Bool(quick)),
            ("replicas".into(), num(self.replicas as f64)),
            ("request_rate".into(), num(self.request_rate)),
            ("horizon_seconds".into(), num(self.horizon_seconds)),
            (
                "lockstep_wall_seconds".into(),
                num(self.lockstep_wall_seconds),
            ),
            ("event_wall_seconds".into(), num(self.event_wall_seconds)),
            ("heap_speedup".into(), num(self.heap_speedup)),
            ("event_steps".into(), num(self.event_steps as f64)),
            ("lockstep_rounds".into(), num(self.lockstep_rounds as f64)),
            ("routed".into(), num(self.routed as f64)),
            ("completed".into(), num(self.completed as f64)),
            (
                "wall_per_request_seconds".into(),
                num(self.wall_per_request_seconds),
            ),
            (
                "retained_records_streaming".into(),
                num(self.retained_records_streaming as f64),
            ),
            (
                "retained_records_exact".into(),
                num(self.retained_records_exact as f64),
            ),
        ])
    }

    /// Writes the manifest, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>, quick: bool) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_json(quick).pretty())
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        format!(
            "fleet event-loop perf ({} replicas, {:.0} req/s, horizon {:.1} ms):\n\
             \x20 lock-step  {:>9.3} ms wall  ({} rounds)\n\
             \x20 event-heap {:>9.3} ms wall  ({} step events)  speedup {:>6.1}x\n\
             \x20 {} routed / {} completed  ({:.1} ns wall per request)\n\
             \x20 retained records: {} streaming vs {} exact",
            self.replicas,
            self.request_rate,
            self.horizon_seconds * 1e3,
            self.lockstep_wall_seconds * 1e3,
            self.lockstep_rounds,
            self.event_wall_seconds * 1e3,
            self.event_steps,
            self.heap_speedup,
            self.routed,
            self.completed,
            self.wall_per_request_seconds * 1e9,
            self.retained_records_streaming,
            self.retained_records_exact,
        )
    }
}

/// Validates a manifest against the `moentwine/bench_fleet/v1` schema:
/// schema tag, the full numeric field set, a positive speedup ratio that
/// matches its numerator and denominator, and a streaming retained-record
/// count bounded by the replica count (the O(1)-memory contract).
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(
        manifest,
        &[
            "replicas",
            "request_rate",
            "horizon_seconds",
            "lockstep_wall_seconds",
            "event_wall_seconds",
            "heap_speedup",
            "event_steps",
            "lockstep_rounds",
            "routed",
            "completed",
            "wall_per_request_seconds",
            "retained_records_streaming",
            "retained_records_exact",
        ],
    )?;
    let num = |key: &str| {
        manifest
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let speedup = num("heap_speedup");
    // NaN (missing / non-numeric) fails alongside zero and negatives.
    if speedup.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("heap_speedup must be positive, got {speedup}"));
    }
    let implied = num("lockstep_wall_seconds") / num("event_wall_seconds");
    if (speedup - implied).abs() > 1e-9 * implied.abs() {
        return Err(format!(
            "heap_speedup {speedup} inconsistent with wall times (implied {implied})"
        ));
    }
    if num("retained_records_streaming") > num("replicas") {
        return Err(format!(
            "streaming retained {} records on {} replicas (expected O(replicas))",
            num("retained_records_streaming"),
            num("replicas")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_perf() -> FleetPerf {
        FleetPerf {
            replicas: 64,
            request_rate: 1.0e4,
            horizon_seconds: 1.0e-3,
            lockstep_wall_seconds: 0.4,
            event_wall_seconds: 0.05,
            heap_speedup: 8.0,
            event_steps: 1200,
            lockstep_rounds: 300,
            routed: 10,
            completed: 8,
            wall_per_request_seconds: 0.005,
            retained_records_streaming: 64,
            retained_records_exact: 9000,
        }
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let json = sample_perf().to_json(true);
        validate(&json).expect("schema-valid manifest");
        assert_eq!(json.get("heap_speedup").and_then(Value::as_f64), Some(8.0));
        assert_eq!(json.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert!(sample_perf().summary().contains("speedup"));
    }

    #[test]
    fn validate_rejects_inconsistent_and_unbounded_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());

        let mut perf = sample_perf();
        perf.heap_speedup = 3.0; // contradicts 0.4 / 0.05
        let err = validate(&perf.to_json(true)).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");

        let mut perf = sample_perf();
        perf.retained_records_streaming = 100_000;
        let err = validate(&perf.to_json(true)).unwrap_err();
        assert!(err.contains("O(replicas)"), "{err}");
    }

    /// The measured quick grid itself: the gate the CI bin enforces, plus
    /// the memory contract, checked here so a perf regression fails
    /// `cargo test` before it fails the bench smoke.
    #[test]
    fn quick_grid_meets_the_contract() {
        let perf = measure_fleet_perf(true);
        let json = perf.to_json(true);
        validate(&json).expect("measured manifest validates");
        assert!(
            perf.heap_speedup >= 1.0,
            "event heap slower than lock-step: {}",
            perf.summary()
        );
        assert!(perf.retained_records_streaming <= perf.replicas);
        assert!(perf.routed > 0, "no traffic simulated: {}", perf.summary());
    }
}
