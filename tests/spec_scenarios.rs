//! Integration tests for the declarative scenario layer: the checked-in
//! example files stay canonical and runnable, and spec-driven runs are
//! exactly the hand-constructed ones (engine equivalence is pinned
//! bit-for-bit against the golden snapshot in `tests/golden_trace.rs`; the
//! fleet equivalence lives here).

use std::path::PathBuf;

use moentwine::prelude::*;
use moentwine::spec::Scenario as SpecScenario;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

fn example_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("examples/scenarios exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Every checked-in example parses, carries the v1 schema, is in canonical
/// form (re-serializing reproduces the file byte for byte — regenerate
/// with `cargo run --example gen_scenarios` after codec changes), and
/// materializes a runnable scenario.
#[test]
fn example_specs_are_canonical_and_build() {
    let files = example_files();
    assert!(
        files.len() >= 4,
        "expected ≥ 4 example scenario files, found {files:?}"
    );
    let mut names = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read example");
        let spec = ScenarioSpec::from_json_text(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            spec.to_json_text(),
            text,
            "{}: not in canonical form (run `cargo run --example gen_scenarios`)",
            path.display()
        );
        // Sweep specs build point-by-point (build() rejects a raw sweep).
        for (label, point) in spec
            .expand_sweep()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        {
            let scenario: SpecScenario = point
                .build()
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", path.display()));
            scenario.engine_config().expect("engine config");
        }
        names.push(spec.name.clone());
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(spec.name.as_str()),
            "file stem must match the scenario name"
        );
    }
    // The acceptance set: single-wafer serving, multi-wafer, DGX baseline,
    // a multi-replica fleet, the 10M-request streaming mega-fleet, the
    // failure-injection chaos fleet, the workload-realism pair (trace
    // replay + bursty multi-tenant SLO classes), the disaggregated
    // prefill/decode fleet, and the speculative-dispatch burst fleet.
    for required in [
        "single_wafer_serving",
        "multi_wafer",
        "dgx_baseline",
        "fleet_p2c",
        "mega_fleet",
        "chaos_fleet",
        "trace_replay",
        "bursty_tenants",
        "disagg_fleet",
        "speculative_fleet",
    ] {
        assert!(names.iter().any(|n| n == required), "missing {required}");
    }
}

/// A fleet scenario run through the spec layer equals the hand-constructed
/// fleet exactly (same seeds, same routing, same summaries).
#[test]
fn spec_driven_fleet_matches_hand_construction() {
    let engine_spec = EngineSpec::default()
        .with_seed(23)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 0.0)))
        .with_kv_hbm_fraction(1.0e-3);
    let spec = ScenarioSpec::new("fleet_equiv", PlatformSpec::wsc(4))
        .with_mapping(MappingSpec::er(4))
        .with_model(ModelSpec::preset("tiny"))
        .with_engine(engine_spec.clone())
        .with_fleet(FleetSpec::new(3, RouterPolicy::LeastQueueDepth, 6.0e3))
        .with_iterations(150);
    let outcome = spec.build().unwrap().run().unwrap();
    let from_spec = outcome.as_fleet().unwrap();

    // Hand-construction of the identical deployment.
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let template = engine_spec.engine_config(ModelConfig::tiny()).unwrap();
    let config = FleetConfig::new(3, RouterPolicy::LeastQueueDepth, 6.0e3, template);
    let mut fleet = Fleet::new(&topo, &table, &plan, config);
    fleet.run(150);
    let by_hand = fleet.summary();

    assert_eq!(*from_spec, by_hand);
}

/// The example fleet spec runs deterministically: two builds of the same
/// file produce identical summaries.
#[test]
fn example_fleet_spec_is_deterministic() {
    let text = std::fs::read_to_string(scenarios_dir().join("fleet_p2c.json")).unwrap();
    let spec = ScenarioSpec::from_json_text(&text).unwrap();
    // Cap for test runtime; determinism is what's under test.
    let spec = spec.with_iterations(80);
    let a = spec.build().unwrap().run().unwrap();
    let b = spec.build().unwrap().run().unwrap();
    assert_eq!(a, b);
}

/// Spec-level misconfigurations surface as typed `ConfigError`s through
/// the whole stack (file text → spec → build).
#[test]
fn malformed_scenarios_fail_with_typed_errors() {
    assert!(matches!(
        ScenarioSpec::from_json_text("{"),
        Err(ConfigError::Json(_))
    ));
    assert!(matches!(
        ScenarioSpec::from_json_text(r#"{"schema": "moentwine/other/v1"}"#),
        Err(ConfigError::SchemaMismatch { .. })
    ));
    // An engine knob violation is caught at build() with the exact variant.
    let mut spec = ScenarioSpec::new("bad", PlatformSpec::wsc(4));
    spec.engine.load_ema = 0.0;
    assert_eq!(
        spec.build().unwrap_err(),
        ConfigError::LoadEmaOutOfRange { value: 0.0 }
    );
    // And an impossible mapping is a typed mapping error.
    let spec = ScenarioSpec::new("bad-tp", PlatformSpec::wsc(4)).with_mapping(MappingSpec::er(5));
    assert!(matches!(spec.build(), Err(ConfigError::Mapping(_))));
}

/// A custom model whose top-k exceeds its expert count (or that has no
/// experts) parses, but `build()` rejects it with the exact variant instead
/// of letting the first engine step panic in the gating sampler.
#[test]
fn impossible_gating_shape_fails_build_with_typed_error() {
    let text = std::fs::read_to_string(scenarios_dir().join("single_wafer_serving.json"))
        .expect("example spec readable")
        .replace(
            r#""preset": "tiny""#,
            r#""custom": {"name": "bad-top-k", "total_params_b": 1, "num_layers": 4,
                "num_sparse_layers": 4, "hidden_size": 256, "moe_intermediate_size": 128,
                "num_experts": 4, "experts_per_token": 8, "num_shared_experts": 0,
                "num_attention_heads": 4, "num_kv_heads": 4, "head_dim": 64}"#,
        );
    let spec = ScenarioSpec::from_json_text(&text).expect("the spec itself parses");
    assert_eq!(
        spec.build().unwrap_err(),
        ConfigError::TopKOutOfRange {
            experts_per_token: 8,
            num_experts: 4,
        }
    );
    let no_experts = ScenarioSpec::new("no-experts", PlatformSpec::wsc(4)).with_model(
        ModelSpec::Custom(ModelConfig {
            num_experts: 0,
            experts_per_token: 0,
            ..ModelConfig::tiny()
        }),
    );
    assert_eq!(
        no_experts.build().unwrap_err(),
        ConfigError::TopKOutOfRange {
            experts_per_token: 0,
            num_experts: 0,
        }
    );
}

/// A speculative fan-out of zero cannot be spelled in a scenario file (the
/// codec rejects `"speculative:k=0"`), but a spec built in code can carry
/// it: `build()` rejects it with the typed error instead of letting the
/// router panic when the fleet is constructed.
#[test]
fn zero_speculative_fan_out_fails_build_with_typed_error() {
    let engine_spec = EngineSpec::default()
        .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 0.0)))
        .with_kv_hbm_fraction(1.0e-3);
    let spec = ScenarioSpec::new("spec-k0", PlatformSpec::wsc(4))
        .with_mapping(MappingSpec::er(4))
        .with_model(ModelSpec::preset("tiny"))
        .with_engine(engine_spec)
        .with_fleet(FleetSpec::new(2, RouterPolicy::Speculative { k: 0 }, 6.0e3))
        .with_iterations(10);
    assert_eq!(
        spec.build().unwrap_err(),
        ConfigError::SpeculativeFanOutZero
    );
}
