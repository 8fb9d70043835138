//! Colocated vs. disaggregated serving: priced KV-transfer economics.
//!
//! Compares the classic colocated fleet (every replica runs prefill *and*
//! decode on a wafer) against a Mooncake/DistServe-style disaggregated
//! fleet (wafer-scale prefill pods feeding DGX decode replicas over an
//! explicitly priced KV-transfer hop) at matched arrival rates. Each point
//! reports the fleet-aggregate TTFT/TPOT percentiles, the hand-off
//! accounting (transfer count/bytes/seconds, hand-off latency, end-to-end
//! TTFT across tiers), and the modeled hardware cost, so the figure reads
//! off where the disaggregation knee pays for itself per modeled-hardware
//! dollar.
//!
//! Besides the usual [`Report`], the sweep emits a machine-readable
//! manifest to `target/figs/disagg_sweep.json` (schema
//! `moentwine/disagg_sweep/v1`, validated by [`validate`]). Every point is
//! a [`ScenarioSpec`] run through [`Scenario::run`](moentwine_spec::Scenario::run)
//! and grid points merge by index, so the manifest is byte-identical
//! across runs and `--threads` settings.

use moe_workload::RouterPolicy;
use moentwine_core::fleet::{FleetSummary, ReplicaRole};
use moentwine_spec::{FleetSpec, MappingSpec, PlatformSpec, ScenarioSpec};

use crate::figs::fleet_sweep::{engine_spec, fleet_scenario};
use crate::figs::manifest;
use crate::json::Value;
use crate::report::fmt_time;
use crate::Report;

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/disagg_sweep/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/disagg_sweep.json";

/// Master seed of the sweep (replica streams are split from it).
const SEED: u64 = 211;

/// Modeled hardware list prices, dollars per device. Rough public
/// list-price assumptions (a wafer die is amortized fab cost, a DGX GPU is
/// a B200-class card); only the *ratio* matters for the per-dollar axis,
/// and both constants are pinned in the manifest for reproducibility.
const WSC_DIE_DOLLARS: f64 = 1.2e4;
const DGX_GPU_DOLLARS: f64 = 3.5e4;

/// Which fleet shape a sweep point runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(super) enum Shape {
    /// Four colocated wafer replicas (prefill + decode on every wafer).
    Colocated,
    /// Two wafer prefill pods + two DGX decode replicas with the KV
    /// hand-off priced through the congestion model.
    Disaggregated,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Colocated => "colocated",
            Shape::Disaggregated => "disaggregated",
        }
    }

    /// The fleet of this shape at `rate`: four least-queue-depth replicas
    /// on the wafer, or two wafer prefill pods feeding two single-node DGX
    /// decode replicas.
    fn fleet(self, rate: f64) -> FleetSpec {
        let fleet = FleetSpec::new(4, RouterPolicy::LeastQueueDepth, rate);
        match self {
            Shape::Colocated => fleet,
            Shape::Disaggregated => fleet
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

/// Modeled fleet cost of a point, from its spec's device counts: wafer
/// dies for every replica on the primary wafer, DGX GPUs for every decode
/// replica on the decode platform.
fn dollars(spec: &ScenarioSpec) -> f64 {
    let fleet = spec.fleet.as_ref().expect("disagg_sweep points are fleets");
    let wafer = spec.platform.num_devices() as f64 * WSC_DIE_DOLLARS;
    let decode_replicas = fleet
        .roles
        .iter()
        .filter(|&&role| role == ReplicaRole::Decode)
        .count();
    match &fleet.decode_platform {
        Some(decode) => {
            let dgx = decode.num_devices() as f64 * DGX_GPU_DOLLARS;
            (fleet.replicas - decode_replicas) as f64 * wafer + decode_replicas as f64 * dgx
        }
        None => fleet.replicas as f64 * wafer,
    }
}

/// One grid point: its `(shape, arrival rate)` key and the scenario that
/// runs it.
type Point = ((Shape, f64), ScenarioSpec);

/// The grid over `rates`, rate slowest and shape fastest. Replicas run the
/// `fleet_sweep` engine template under this sweep's seed.
fn grid(rates: &[f64], rounds: usize) -> Vec<Point> {
    let mut grid = Vec::new();
    for &rate in rates {
        for shape in [Shape::Colocated, Shape::Disaggregated] {
            let name = format!("disagg_sweep/rate={rate}/{}", shape.name());
            let spec = fleet_scenario(name, engine_spec(SEED), shape.fleet(rate), rounds);
            grid.push(((shape, rate), spec));
        }
    }
    grid
}

/// The `--quick` or full grid: `(rounds, points)`.
pub(super) fn sweep_grid(quick: bool) -> (usize, Vec<Point>) {
    let rounds = if quick { 400 } else { 1500 };
    let rates: Vec<f64> = if quick {
        vec![8.0e3, 24.0e3]
    } else {
        vec![4.0e3, 12.0e3, 36.0e3]
    };
    (rounds, grid(&rates, rounds))
}

fn point_json(shape: Shape, rate: f64, dollars: f64, s: &FleetSummary) -> Value {
    let agg = &s.aggregate;
    let h = &s.handoff;
    let mut fields = vec![
        ("variant".into(), Value::Str(shape.name().into())),
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
        ("kv_transfers".into(), Value::Num(h.kv_transfers as f64)),
        ("kv_transfer_bytes".into(), Value::Num(h.kv_transfer_bytes)),
        (
            "kv_transfer_seconds".into(),
            Value::Num(h.kv_transfer_seconds),
        ),
        (
            "handoffs_completed".into(),
            Value::Num(h.handoffs_completed as f64),
        ),
        (
            "mean_handoff_latency".into(),
            Value::Num(h.mean_handoff_latency),
        ),
        ("mean_e2e_ttft".into(), Value::Num(h.mean_e2e_ttft)),
        ("hardware_dollars".into(), Value::Num(dollars)),
        (
            "goodput_per_megadollar".into(),
            Value::Num(agg.goodput_rps / (dollars / 1.0e6)),
        ),
        (
            "routed".into(),
            Value::Arr(s.routed.iter().map(|&r| Value::Num(r as f64)).collect()),
        ),
        ("sim_seconds".into(), Value::Num(s.sim_seconds)),
    ]);
    Value::Obj(fields)
}

/// Builds the sweep manifest over `grid` on a `threads`-wide worker pool.
/// Results merge by grid index, so the manifest is byte-identical for
/// every thread count.
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
    for (((shape, rate), spec), outcome) in keys.into_iter().zip(&specs).zip(&outcomes) {
        let s = outcome.as_fleet().expect("disagg_sweep points are fleets");
        let agg = &s.aggregate;
        let dollars = dollars(spec);
        report.row([
            shape.name().into(),
            format!("{rate}"),
            fmt_time(agg.ttft_p50),
            fmt_time(agg.ttft_p99),
            fmt_time(agg.tpot_p50),
            format!("{:.1}", agg.goodput_rps),
            format!("{}", s.handoff.kv_transfers),
            fmt_time(s.handoff.kv_transfer_seconds),
            format!("{:.1}", agg.goodput_rps / (dollars / 1.0e6)),
        ]);
        points.push(point_json(shape, rate, dollars, s));
    }
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::Num(SEED as f64)),
        ("rounds".into(), Value::Num(rounds as f64)),
        ("wsc_die_dollars".into(), Value::Num(WSC_DIE_DOLLARS)),
        ("dgx_gpu_dollars".into(), Value::Num(DGX_GPU_DOLLARS)),
        ("points".into(), Value::Arr(points)),
    ])
}

/// Validates a manifest against the `moentwine/disagg_sweep/v1` schema:
/// schema tag, non-empty point list with both variants present, required
/// fields, monotone percentile ladders, positive modeled cost, **zero** KV
/// transfers on every colocated point, and **≥ 1 priced KV transfer with
/// nonzero transfer time** on every disaggregated point.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(
        manifest,
        &["seed", "rounds", "wsc_die_dollars", "dgx_gpu_dollars"],
    )?;
    let mut seen = (false, false);
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        let variant = v::point_str(point, i, "variant")?;
        v::check_point_common(
            point,
            i,
            &[
                "arrival_rate",
                "completed",
                "admission_rejects",
                "mean_queue_depth",
                "sim_seconds",
                "mean_handoff_latency",
                "mean_e2e_ttft",
                "goodput_per_megadollar",
            ],
        )?;
        if v::point_num(point, i, "hardware_dollars")? <= 0.0 {
            return Err(format!("point {i}: non-positive hardware_dollars"));
        }
        let transfers = v::point_num(point, i, "kv_transfers")?;
        let transfer_seconds = v::point_num(point, i, "kv_transfer_seconds")?;
        let transfer_bytes = v::point_num(point, i, "kv_transfer_bytes")?;
        match variant {
            "colocated" => {
                seen.0 = true;
                if transfers != 0.0 || transfer_seconds != 0.0 || transfer_bytes != 0.0 {
                    return Err(format!("point {i}: colocated point carries KV transfers"));
                }
            }
            "disaggregated" => {
                seen.1 = true;
                if transfers < 1.0 {
                    return Err(format!(
                        "point {i}: disaggregated point has no KV transfers"
                    ));
                }
                if transfer_seconds <= 0.0 || transfer_bytes <= 0.0 {
                    return Err(format!(
                        "point {i}: disaggregated point has unpriced KV transfers"
                    ));
                }
            }
            other => return Err(format!("point {i}: unknown variant {other:?}")),
        }
    }
    if !(seen.0 && seen.1) {
        return Err("manifest must carry both colocated and disaggregated points".into());
    }
    Ok(())
}

/// Runs the disaggregation sweep with grid points spread over `threads`
/// workers, writes `target/figs/disagg_sweep.json` (byte-identical for any
/// thread count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    let (rounds, grid) = sweep_grid(quick);
    let mut report = Report::new(
        "disagg_sweep",
        "Colocated vs. disaggregated prefill/decode: priced KV-transfer economics",
    )
    .columns([
        "Variant",
        "Rate (req/s)",
        "TTFT p50",
        "TTFT p99",
        "TPOT p50",
        "Goodput (req/s)",
        "KV transfers",
        "Transfer time",
        "Goodput/M$",
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
        let mut report = Report::new("disagg_sweep_test", "t");
        sweep_manifest(true, 150, grid(&[20.0e3], 150), threads, &mut report)
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
    fn validate_rejects_unpriced_and_single_variant_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        // Zeroing the disaggregated transfer accounting must fail: the
        // whole point of the figure is a *priced* hand-off.
        let mut manifest = tiny_manifest_with_threads(1);
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        for point in points.iter_mut() {
                            if let Value::Obj(fields) = point {
                                let disagg = fields.iter().any(|(pk, pv)| {
                                    pk == "variant" && pv.as_str() == Some("disaggregated")
                                });
                                if disagg {
                                    for (pk, pv) in fields.iter_mut() {
                                        if pk == "kv_transfer_seconds" {
                                            *pv = Value::Num(0.0);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(validate(&manifest).unwrap_err().contains("unpriced"));
        // A manifest with only colocated points is incomplete.
        let mut manifest = tiny_manifest_with_threads(1);
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        points.retain(|p| {
                            p.get("variant").and_then(Value::as_str) == Some("colocated")
                        });
                    }
                }
            }
        }
        assert!(validate(&manifest).unwrap_err().contains("both"));
    }
}
