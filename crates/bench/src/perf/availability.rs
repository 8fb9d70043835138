//! SLO-under-failure figure: TTFT/goodput degradation and recovery
//! through a crash/drain/scale-up/recover timeline, tracked across PRs as
//! `target/figs/fleet_availability.json` (schema
//! `moentwine/fleet_availability/v2`).
//!
//! The fleet runs a fixed chaos timeline (crash one replica mid-traffic,
//! gracefully drain another, scale up by one, then recover the crashed
//! replica) and checkpoints the cumulative fleet summary every few rounds.
//! The resulting curve shows goodput dipping when capacity is lost and
//! recovering as re-queued requests are re-prefilled elsewhere, alongside
//! the time-weighted available-replica fraction.
//!
//! Everything in the manifest is simulated (no wall-clock fields), so the
//! bytes are deterministic per seed; `ci/determinism_gate.sh` checks that
//! repeat runs are byte-identical.

use std::fs;
use std::io;
use std::path::Path;

use moe_workload::{RouterPolicy, Scenario, SchedulingMode, WorkloadMix};
use moentwine_core::engine::{EngineConfig, SummaryMode};
use moentwine_core::fleet::{
    Fleet, FleetAvailability, FleetEvent, FleetEventKind, FleetSummary, ReplicaState,
};
use moentwine_spec::{BatchSpec, EngineSpec, FleetSpec, ModelSpec, ServingSpec};

use crate::json::Value;
use crate::platforms::{wsc_plan, Platform, WscMapping};

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/fleet_availability/v2";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/fleet_availability.json";

/// Master seed (replica streams are split from it by the fleet).
const SEED: u64 = 977;

/// Initial fleet width.
const REPLICAS: usize = 8;

/// Global arrival rate, requests/second across the fleet.
const RATE: f64 = 4.0e5;

/// Checkpoints sampled over the run (points in the figure).
const CHECKPOINTS: u64 = 8;

/// The chaos timeline: crash under load, graceful drain, elastic scale-up,
/// then recovery of the crashed replica. Times sit in the first ~0.7 ms of
/// simulated time so the whole arc fires well inside a `--quick` run
/// (fleet rounds advance the clock by a few microseconds each).
fn chaos_timeline() -> Vec<FleetEvent> {
    vec![
        FleetEvent {
            time: 2.0e-4,
            kind: FleetEventKind::Crash { replica: 1 },
        },
        FleetEvent {
            time: 3.5e-4,
            kind: FleetEventKind::Drain { replica: 2 },
        },
        FleetEvent {
            time: 5.0e-4,
            kind: FleetEventKind::ScaleUp { count: 1 },
        },
        FleetEvent {
            time: 6.5e-4,
            kind: FleetEventKind::Recover { replica: 1 },
        },
    ]
}

/// One cumulative checkpoint of the degradation/recovery curve.
#[derive(Clone, PartialEq, Debug)]
pub struct AvailabilityPoint {
    /// Synchronization rounds executed so far.
    pub round: u64,
    /// Fleet simulated time, seconds.
    pub sim_seconds: f64,
    /// Requests completed so far (fleet-wide).
    pub completed: u64,
    /// Cumulative goodput, requests/second of simulated time.
    pub goodput_rps: f64,
    /// TTFT percentiles over completions so far, seconds.
    pub ttft_p50: f64,
    /// 95th-percentile TTFT, seconds.
    pub ttft_p95: f64,
    /// 99th-percentile TTFT, seconds.
    pub ttft_p99: f64,
    /// Time-weighted available-replica fraction so far.
    pub available_fraction: f64,
    /// Timeline events applied so far.
    pub events_applied: u64,
    /// In-flight requests interrupted by crashes so far.
    pub crash_interruptions: u64,
    /// Σ (input + output) tokens across re-queued requests so far.
    pub requeued_tokens: u64,
    /// Replicas currently in the `Active` (admitting) state.
    pub active_replicas: u64,
}

/// The measured figure: checkpointed curve plus final availability report.
#[derive(Clone, Debug)]
pub struct AvailabilityFig {
    /// Initial replica count (the crash/drain/scale-up timeline moves the
    /// live count around it).
    pub replicas: usize,
    /// Global arrival rate, requests/second.
    pub request_rate: f64,
    /// Total synchronization rounds driven.
    pub rounds: u64,
    /// The degradation/recovery curve.
    pub points: Vec<AvailabilityPoint>,
    /// Final fleet summary.
    pub final_summary: FleetSummary,
}

/// The per-replica engine template: hybrid continuous batching on the tiny
/// model with a thin KV share (the `bench_fleet` shape) under streaming
/// summaries, so percentiles come from the O(1)-memory sketches.
fn engine_template() -> EngineConfig {
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
            summary: SummaryMode::Streaming,
            workload: None,
        }))
        .with_kv_hbm_fraction(1.0e-3)
        .engine_config(model)
        .expect("valid fleet template")
}

/// The availability section of the manifest (the final accounting). Also
/// reused by the scenario-run manifests for fleets with a timeline.
pub fn availability_json(a: &FleetAvailability) -> Value {
    let num = Value::Num;
    Value::Obj(vec![
        ("events_applied".into(), num(a.events_applied as f64)),
        (
            "crash_interruptions".into(),
            num(a.crash_interruptions as f64),
        ),
        ("drain_rerouted".into(), num(a.drain_rerouted as f64)),
        ("crash_rerouted".into(), num(a.crash_rerouted as f64)),
        ("requeued_tokens".into(), num(a.requeued_tokens as f64)),
        (
            "replayed_prefill_tokens".into(),
            num(a.replayed_prefill_tokens as f64),
        ),
        ("available_fraction".into(), num(a.available_fraction)),
        (
            "replica_states".into(),
            Value::strings(a.replica_states.iter().copied()),
        ),
        (
            "goodput_windows".into(),
            Value::Arr(
                a.goodput_windows
                    .iter()
                    .map(|w| {
                        Value::Obj(vec![
                            ("after".into(), Value::Str(w.after.clone())),
                            ("start".into(), num(w.start)),
                            ("end".into(), num(w.end)),
                            ("completed".into(), num(w.completed as f64)),
                            ("goodput_rps".into(), num(w.goodput_rps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs the measurement: drives the chaos fleet round by round, sampling
/// `CHECKPOINTS` cumulative summaries along the way. `quick` shrinks the
/// round budget for CI smoke runs; the full timeline (all four events)
/// fires in either mode.
pub fn measure_availability(quick: bool) -> AvailabilityFig {
    let rounds: u64 = if quick { 400 } else { 1600 };
    let platform = Platform::wsc(4);
    let plan = wsc_plan(&platform, 4, WscMapping::Er);
    let config = FleetSpec::new(REPLICAS, RouterPolicy::LeastQueueDepth, RATE)
        .with_events(chaos_timeline())
        .fleet_config(engine_template());
    let mut fleet = Fleet::new(&platform.topo, &platform.table, &plan, config);
    let chunk = (rounds / CHECKPOINTS).max(1) as usize;
    let mut points = Vec::new();
    while fleet.rounds() < rounds {
        fleet.run(chunk.min((rounds - fleet.rounds()) as usize));
        let summary = fleet.summary();
        let active = fleet
            .states()
            .iter()
            .filter(|s| matches!(s, ReplicaState::Active))
            .count() as u64;
        points.push(AvailabilityPoint {
            round: fleet.rounds(),
            sim_seconds: summary.sim_seconds,
            completed: summary.aggregate.completed as u64,
            goodput_rps: summary.aggregate.goodput_rps,
            ttft_p50: summary.aggregate.ttft_p50,
            ttft_p95: summary.aggregate.ttft_p95,
            ttft_p99: summary.aggregate.ttft_p99,
            available_fraction: summary.availability.available_fraction,
            events_applied: summary.availability.events_applied,
            crash_interruptions: summary.availability.crash_interruptions,
            requeued_tokens: summary.availability.requeued_tokens,
            active_replicas: active,
        });
    }
    AvailabilityFig {
        replicas: REPLICAS,
        request_rate: RATE,
        rounds,
        points,
        final_summary: fleet.summary(),
    }
}

impl AvailabilityFig {
    /// The JSON manifest written to [`MANIFEST_PATH`].
    pub fn to_json(&self, quick: bool) -> Value {
        let num = Value::Num;
        Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("quick".into(), Value::Bool(quick)),
            ("replicas".into(), num(self.replicas as f64)),
            ("request_rate".into(), num(self.request_rate)),
            ("rounds".into(), num(self.rounds as f64)),
            ("sim_seconds".into(), num(self.final_summary.sim_seconds)),
            (
                "completed".into(),
                num(self.final_summary.aggregate.completed as f64),
            ),
            (
                "availability".into(),
                availability_json(&self.final_summary.availability),
            ),
            (
                "points".into(),
                Value::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Value::Obj(vec![
                                ("round".into(), num(p.round as f64)),
                                ("sim_seconds".into(), num(p.sim_seconds)),
                                ("completed".into(), num(p.completed as f64)),
                                ("goodput_rps".into(), num(p.goodput_rps)),
                                ("ttft_p50".into(), num(p.ttft_p50)),
                                ("ttft_p95".into(), num(p.ttft_p95)),
                                ("ttft_p99".into(), num(p.ttft_p99)),
                                ("available_fraction".into(), num(p.available_fraction)),
                                ("events_applied".into(), num(p.events_applied as f64)),
                                (
                                    "crash_interruptions".into(),
                                    num(p.crash_interruptions as f64),
                                ),
                                ("requeued_tokens".into(), num(p.requeued_tokens as f64)),
                                ("active_replicas".into(), num(p.active_replicas as f64)),
                            ])
                        })
                        .collect(),
                ),
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
        let a = &self.final_summary.availability;
        let mut lines = format!(
            "fleet availability ({} replicas, {:.0} req/s, {} rounds):\n\
             \x20 events applied {}  crash interruptions {}  re-routed {} drain / {} crash\n\
             \x20 re-queued tokens {}  replayed prefill tokens {}  available fraction {:.4}\n\
             \x20 final states [{}]",
            self.replicas,
            self.request_rate,
            self.rounds,
            a.events_applied,
            a.crash_interruptions,
            a.drain_rerouted,
            a.crash_rerouted,
            a.requeued_tokens,
            a.replayed_prefill_tokens,
            a.available_fraction,
            a.replica_states.join(", "),
        );
        for w in &a.goodput_windows {
            lines.push_str(&format!(
                "\n\x20 after {:<14} [{:.6}, {:.6}) s  {:>5} completed  {:>10.1} req/s",
                w.after, w.start, w.end, w.completed, w.goodput_rps
            ));
        }
        lines
    }
}

/// Validates a manifest against the `moentwine/fleet_availability/v2`
/// schema: schema tag, run parameters, a non-empty monotone checkpoint
/// curve, and an availability section that actually saw the crash
/// (`events_applied ≥ 1`, `crash_interruptions ≥ 1`, fraction strictly
/// inside (0, 1)).
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
            "rounds",
            "sim_seconds",
            "completed",
        ],
    )?;

    let points = v::require_points(manifest)?;
    let mut prev_round = 0.0;
    for (i, point) in points.iter().enumerate() {
        for key in [
            "round",
            "sim_seconds",
            "completed",
            "goodput_rps",
            "ttft_p50",
            "ttft_p95",
            "ttft_p99",
            "available_fraction",
            "events_applied",
            "crash_interruptions",
            "requeued_tokens",
            "active_replicas",
        ] {
            v::point_num(point, i, key)?;
        }
        let round = v::point_num(point, i, "round")?;
        if round <= prev_round && i > 0 {
            return Err(format!("point {i}: rounds not increasing ({round})"));
        }
        prev_round = round;
    }

    let avail = manifest
        .get("availability")
        .ok_or("missing availability section")?;
    let anum = |key: &str| {
        avail
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("availability: missing {key}"))
    };
    if anum("events_applied")? < 1.0 {
        return Err("availability: no timeline events applied".into());
    }
    if anum("crash_interruptions")? < 1.0 {
        return Err("availability: crash interrupted no in-flight requests".into());
    }
    let fraction = anum("available_fraction")?;
    if !(fraction > 0.0 && fraction < 1.0) {
        return Err(format!(
            "availability: available_fraction {fraction} not in (0, 1) — the \
             capacity loss never showed up in the time-weighted accounting"
        ));
    }
    let windows = avail
        .get("goodput_windows")
        .and_then(Value::as_array)
        .ok_or("availability: missing goodput_windows")?;
    if windows.len() < 2 {
        return Err(format!(
            "availability: {} goodput windows (expected one per applied event plus the start)",
            windows.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measured quick figure itself: the chaos arc must fire, interrupt
    /// in-flight work, and repeat byte for byte — checked here so a
    /// determinism or timeline regression fails `cargo test` before it
    /// fails the CI chaos smoke.
    #[test]
    fn quick_figure_meets_the_contract() {
        let fig = measure_availability(true);
        let json = fig.to_json(true);
        validate(&json).expect("measured manifest validates");
        let a = &fig.final_summary.availability;
        assert_eq!(a.events_applied, 4, "{}", fig.summary());
        assert!(a.crash_interruptions >= 1);
        assert!(a.requeued_tokens > 0);
        // The crash knocks availability below 1 until recovery; the drain
        // retires a replica permanently, so the final fraction stays < 1.
        assert!(a.available_fraction > 0.0 && a.available_fraction < 1.0);
        // 5 windows: start + one per event.
        assert_eq!(a.goodput_windows.len(), 5, "{}", fig.summary());
        assert_eq!(a.goodput_windows[0].after, "start");
        // Repeat runs are byte-identical (the manifest has no wall-clock
        // fields).
        let again = measure_availability(true);
        assert_eq!(json.pretty(), again.to_json(true).pretty());
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        let fig = measure_availability(true);

        // A manifest under another schema version is rejected.
        let mut stale = fig.to_json(true);
        let Value::Obj(members) = &mut stale else {
            panic!("manifest is an object");
        };
        members[0].1 = Value::Str("moentwine/fleet_availability/v1".into());
        let err = validate(&stale).unwrap_err();
        assert!(err.contains("schema"), "{err}");

        let mut broken = fig.clone();
        broken.final_summary.availability.crash_interruptions = 0;
        let err = validate(&broken.to_json(true)).unwrap_err();
        assert!(err.contains("crash interrupted no"), "{err}");

        let mut broken = fig;
        broken.final_summary.availability.available_fraction = 1.0;
        let err = validate(&broken.to_json(true)).unwrap_err();
        assert!(err.contains("not in (0, 1)"), "{err}");
    }
}
