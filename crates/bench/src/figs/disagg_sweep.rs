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
//! round-driven ([`Fleet::run`]) and grid points merge by index, so the
//! manifest is byte-identical across runs and `--threads` settings.

use std::fs;

use moe_model::ModelConfig;
use moe_workload::{RouterPolicy, Scenario, SchedulingMode, WorkloadMix};
use moentwine_core::comm::ClusterLayout;
use moentwine_core::engine::{EngineConfig, SummaryMode};
use moentwine_core::fleet::{Fleet, FleetConfig, FleetSummary, PlatformRefs, ReplicaRole};
use moentwine_spec::{BatchSpec, EngineSpec, ModelSpec, ServingSpec};

use crate::json::Value;
use crate::platforms::Platform;
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
enum Shape {
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
}

/// The per-replica engine template: hybrid continuous batching with a thin
/// KV share, mirroring `fleet_sweep` so colocated curves are comparable
/// across figures.
fn engine_template() -> EngineConfig {
    let model: ModelConfig = ModelSpec::preset("tiny").resolve().expect("tiny preset");
    EngineSpec::default()
        .with_seed(SEED)
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
        .engine_config(model)
        .expect("valid fleet template")
}

/// The two platforms of the comparison: wafer pods for prefill (and the
/// whole colocated fleet), a DGX node per decode replica.
struct Platforms {
    prefill: Platform,
    prefill_plan: moentwine_core::MappingPlan,
    decode: Platform,
    decode_layout: ClusterLayout,
}

impl Platforms {
    fn build() -> Self {
        let prefill = Platform::wsc(4);
        let prefill_plan =
            crate::platforms::wsc_plan(&prefill, 4, crate::platforms::WscMapping::Er);
        let decode = Platform::dgx(1);
        let decode_layout = ClusterLayout::new(&decode.topo, 8);
        Platforms {
            prefill,
            prefill_plan,
            decode,
            decode_layout,
        }
    }

    /// Modeled fleet cost: wafer dies for prefill/colocated replicas, DGX
    /// GPUs for decode replicas.
    fn dollars(&self, shape: Shape) -> f64 {
        let wafer = self.prefill.topo.num_devices() as f64 * WSC_DIE_DOLLARS;
        let dgx = self.decode.topo.num_devices() as f64 * DGX_GPU_DOLLARS;
        match shape {
            Shape::Colocated => 4.0 * wafer,
            Shape::Disaggregated => 2.0 * wafer + 2.0 * dgx,
        }
    }
}

/// Runs one sweep point.
fn run_point(platforms: &Platforms, shape: Shape, rate: f64, rounds: usize) -> FleetSummary {
    let mut config = FleetConfig::new(4, RouterPolicy::LeastQueueDepth, rate, engine_template());
    if shape == Shape::Disaggregated {
        config = config.with_roles(vec![
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ]);
    }
    let prefill = PlatformRefs {
        topo: &platforms.prefill.topo,
        table: &platforms.prefill.table,
        layout: &platforms.prefill_plan,
    };
    let decode = (shape == Shape::Disaggregated).then_some(PlatformRefs {
        topo: &platforms.decode.topo,
        table: &platforms.decode.table,
        layout: &platforms.decode_layout,
    });
    let mut fleet =
        Fleet::try_new_disaggregated(prefill, decode, config).expect("valid sweep point");
    fleet.run(rounds);
    fleet.summary()
}

fn point_json(platforms: &Platforms, shape: Shape, rate: f64, s: &FleetSummary) -> Value {
    let agg = &s.aggregate;
    let h = &s.handoff;
    let dollars = platforms.dollars(shape);
    Value::Obj(vec![
        ("variant".into(), Value::Str(shape.name().into())),
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
    ])
}

/// Builds the sweep manifest over explicit axes on a `threads`-wide worker
/// pool. Results merge by grid index, so the manifest is byte-identical
/// for every thread count.
fn sweep_manifest(
    quick: bool,
    rates: &[f64],
    rounds: usize,
    threads: usize,
    report: &mut Report,
) -> Value {
    let platforms = Platforms::build();
    let mut grid: Vec<(Shape, f64)> = Vec::new();
    for &rate in rates {
        for shape in [Shape::Colocated, Shape::Disaggregated] {
            grid.push((shape, rate));
        }
    }
    let pool = crate::perf::pool::WorkerPool::new(threads);
    let jobs: Vec<_> = grid
        .iter()
        .map(|&(shape, rate)| {
            let platforms = &platforms;
            move || run_point(platforms, shape, rate, rounds)
        })
        .collect();
    let summaries = pool.run(jobs);
    let mut points: Vec<Value> = Vec::new();
    for (&(shape, rate), s) in grid.iter().zip(&summaries) {
        let agg = &s.aggregate;
        let dollars = platforms.dollars(shape);
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
        points.push(point_json(&platforms, shape, rate, s));
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

/// Runs the disaggregation sweep single-threaded (the figure-registry
/// entry point).
pub fn run(quick: bool) -> Report {
    run_with_threads(quick, 1)
}

/// Runs the disaggregation sweep with grid points spread over `threads`
/// workers, writes `target/figs/disagg_sweep.json` (byte-identical for any
/// thread count), and returns the human-readable report.
pub fn run_with_threads(quick: bool, threads: usize) -> Report {
    let rounds = if quick { 400 } else { 1500 };
    let rates: Vec<f64> = if quick {
        vec![8.0e3, 24.0e3]
    } else {
        vec![4.0e3, 12.0e3, 36.0e3]
    };
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
    let manifest = sweep_manifest(quick, &rates, rounds, threads, &mut report);
    match fs::create_dir_all("target/figs")
        .and_then(|_| fs::write(MANIFEST_PATH, manifest.pretty()))
    {
        Ok(()) => report.note(format!("machine-readable manifest: {MANIFEST_PATH}")),
        Err(e) => report.note(format!("WARNING: could not write {MANIFEST_PATH}: {e}")),
    }
    report.note(
        "deterministic: grid points merge by index, so the manifest is \
         byte-identical across runs and --threads settings \
         (schema moentwine/disagg_sweep/v1)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest_with_threads(threads: usize) -> Value {
        let mut report = Report::new("disagg_sweep_test", "t");
        sweep_manifest(true, &[20.0e3], 150, threads, &mut report)
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
