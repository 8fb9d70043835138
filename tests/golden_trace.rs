//! Golden-trace regression suite: the engine runs a fixed serving scenario
//! at a fixed seed for each `CongestionBackend` tier, and the resulting
//! `RunSummary` + `ServingSummary` must match the snapshot checked in under
//! `tests/golden/<backend>.json` to 1e-9 relative tolerance.
//!
//! A drifting metric fails with a per-field diff naming every divergent
//! value. To regenerate the snapshots after an *intentional* behavior
//! change (the `--bless` path):
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! then commit the rewritten `tests/golden/*.json` and call out the metric
//! shift in the PR. CI runs this suite in both debug and `--release` to
//! catch float-path divergence between the two profiles.

use std::path::PathBuf;

use moentwine::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn small_model() -> ModelConfig {
    ModelConfig::tiny()
}

/// The pinned scenario: a 4×4 wafer serving a bursty mixed workload in
/// hybrid mode with the non-invasive balancer — every subsystem the serving
/// loop touches (admission, chunked prefill, clock, trigger, migration) is
/// on the trace. `comm_layer_stride` prices the all-to-all on every `k`-th
/// layer only; the stride-1 scenario is the one the spec file encodes.
fn run_scenario(
    backend: CongestionBackend,
    comm_layer_stride: usize,
) -> (RunSummary, ServingSummary) {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let mut config = EngineConfig::new(small_model())
        .with_seed(4242)
        .with_backend(backend)
        .with_balancer(BalancerKind::NonInvasive)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::Scheduled {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
            request_rate: 8.0e3,
            iteration_period: 0.02,
        });
    config.kv_hbm_fraction = 1.0e-3;
    config.comm_layer_stride = comm_layer_stride;
    let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
    let run = engine.run(400);
    (run, engine.serving_summary())
}

/// Flattens the two summaries into an ordered `name → value` object.
fn snapshot(run: &RunSummary, serving: &ServingSummary) -> Vec<(String, f64)> {
    vec![
        ("run.iterations".into(), run.iterations as f64),
        ("run.mean_iteration_time".into(), run.mean_iteration_time),
        (
            "run.mean_attention_compute".into(),
            run.mean_attention_compute,
        ),
        ("run.mean_all_reduce".into(), run.mean_all_reduce),
        ("run.mean_all_to_all".into(), run.mean_all_to_all),
        ("run.mean_moe_compute".into(), run.mean_moe_compute),
        ("run.mean_migration_stall".into(), run.mean_migration_stall),
        ("run.mean_load_ratio".into(), run.mean_load_ratio),
        (
            "run.migrations_started".into(),
            run.migrations_started as f64,
        ),
        (
            "run.migrations_completed".into(),
            run.migrations_completed as f64,
        ),
        (
            "run.mean_tokens_per_group".into(),
            run.mean_tokens_per_group,
        ),
        (
            "run.tokens_per_second_per_device".into(),
            run.tokens_per_second_per_device,
        ),
        ("serving.completed".into(), serving.completed as f64),
        (
            "serving.admission_rejects".into(),
            serving.admission_rejects as f64,
        ),
        ("serving.sim_seconds".into(), serving.sim_seconds),
        ("serving.goodput_rps".into(), serving.goodput_rps),
        (
            "serving.goodput_tokens_per_s".into(),
            serving.goodput_tokens_per_s,
        ),
        ("serving.ttft_p50".into(), serving.ttft_p50),
        ("serving.ttft_p95".into(), serving.ttft_p95),
        ("serving.ttft_p99".into(), serving.ttft_p99),
        ("serving.tpot_p50".into(), serving.tpot_p50),
        ("serving.tpot_p95".into(), serving.tpot_p95),
        ("serving.tpot_p99".into(), serving.tpot_p99),
        ("serving.e2e_p50".into(), serving.e2e_p50),
        ("serving.e2e_p99".into(), serving.e2e_p99),
        ("serving.queueing_p50".into(), serving.queueing_p50),
        ("serving.queueing_p99".into(), serving.queueing_p99),
        ("serving.mean_queue_depth".into(), serving.mean_queue_depth),
        (
            "serving.max_queue_depth".into(),
            serving.max_queue_depth as f64,
        ),
        (
            "serving.mean_active_requests".into(),
            serving.mean_active_requests,
        ),
        (
            "serving.peak_kv_tokens".into(),
            serving.peak_kv_tokens as f64,
        ),
    ]
}

fn check_golden(backend: CongestionBackend) {
    let (run, serving) = run_scenario(backend, 1);
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join(format!("{}.json", backend.name())),
        &snapshot(&run, &serving),
        &format!("backend {}", backend.name()),
        "GOLDEN_BLESS=1 cargo test --test golden_trace",
    );
}

#[test]
fn golden_trace_analytic() {
    check_golden(CongestionBackend::Analytic);
}

#[test]
fn golden_trace_flow_sim() {
    check_golden(CongestionBackend::FlowSim);
}

#[test]
fn golden_trace_flow_sim_cached() {
    check_golden(CongestionBackend::FlowSimCached);
}

/// The layer-stride path: the tiny model's 4 sparse layers at stride 3 price
/// the all-to-all on layers 0 and 3, and layers 1–2 reuse layer 0's times
/// while still computing their own device loads.
#[test]
fn golden_trace_flow_sim_cached_stride3() {
    let (run, serving) = run_scenario(CongestionBackend::FlowSimCached, 3);
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("flow-sim-cached_stride3.json"),
        &snapshot(&run, &serving),
        "backend flow-sim-cached, comm_layer_stride 3",
        "GOLDEN_BLESS=1 cargo test --test golden_trace",
    );
}

/// The declarative spec layer reproduces the hand-constructed golden
/// scenario **bit for bit**: `examples/scenarios/single_wafer_serving.json`
/// encodes exactly the pinned scenario above, and its spec-driven run is
/// checked against the same `tests/golden/analytic.json` snapshot — plus an
/// exact in-process equality against the hand-wired run (stronger than the
/// file's 1e-9 tolerance).
#[test]
fn golden_scenario_via_spec_file_matches_hand_construction() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/single_wafer_serving.json");
    let text = std::fs::read_to_string(&path).expect("read example spec");
    let spec = moentwine::spec::ScenarioSpec::from_json_text(&text).expect("parse example spec");
    let outcome = spec.build().expect("build").run().expect("run");
    let (run, serving) = outcome.as_engine().expect("engine scenario");

    let (hand_run, hand_serving) = run_scenario(CongestionBackend::Analytic, 1);
    assert_eq!(
        *run, hand_run,
        "spec-driven RunSummary must match hand-built"
    );
    assert_eq!(
        *serving, hand_serving,
        "spec-driven ServingSummary must match hand-built"
    );

    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("analytic.json"),
        &snapshot(run, serving),
        "spec-driven analytic scenario",
        "GOLDEN_BLESS=1 cargo test --test golden_trace",
    );
}

/// The scenario itself is deterministic: two in-process runs at the same
/// seed produce identical snapshots bit for bit (stronger than the 1e-9
/// cross-toolchain tolerance used against the files).
#[test]
fn golden_scenario_is_deterministic_in_process() {
    let (r1, s1) = run_scenario(CongestionBackend::Analytic, 1);
    let (r2, s2) = run_scenario(CongestionBackend::Analytic, 1);
    assert_eq!(
        moentwine_bench::golden::fields_to_json(&snapshot(&r1, &s1)).pretty(),
        moentwine_bench::golden::fields_to_json(&snapshot(&r2, &s2)).pretty()
    );
}
