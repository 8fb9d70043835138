//! Property test: spec → JSON → spec is an identity across the whole knob
//! space (the lossless-round-trip contract of `moentwine/scenario/v1`).

use moe_workload::{RouterPolicy, Scenario as WorkloadScenario, SchedulingMode, WorkloadMix};
use moentwine_core::balancer::BalancerKind;
use moentwine_core::engine::SummaryMode;
use moentwine_spec::{
    ArrivalSourceSpec, BatchSpec, EngineSpec, FleetSpec, MappingSpec, ModelSpec, PlatformSpec,
    ScenarioSpec, ServingSpec, SweepSpec, WorkloadSpec,
};
use proptest::proptest;
use wsc_sim::CongestionBackend;

fn backend_of(tag: u8) -> CongestionBackend {
    CongestionBackend::all()[tag as usize % 3]
}

fn policy_of(tag: u8) -> RouterPolicy {
    RouterPolicy::all()[tag as usize % 4]
}

fn scenario_of(tag: u8) -> WorkloadScenario {
    WorkloadScenario::all()[tag as usize % 4]
}

fn platform_of(tag: u8, n: u16) -> PlatformSpec {
    match tag % 5 {
        0 => PlatformSpec::Wsc { n },
        1 => PlatformSpec::MultiWsc {
            wafers_x: 1 + (n % 3),
            wafers_y: 1 + (n % 2),
            n,
        },
        2 => PlatformSpec::Dgx { nodes: 1 + n },
        3 => PlatformSpec::Nvl72,
        _ => PlatformSpec::Flat { devices: 8 + n },
    }
}

fn mapping_of(tag: u8, tp: usize) -> MappingSpec {
    match tag % 4 {
        0 => MappingSpec::Baseline { tp },
        1 => MappingSpec::Er { tp },
        2 => MappingSpec::Her { tp },
        _ => MappingSpec::Cluster { tp },
    }
}

fn workload_of(tag: u8, period: f64, weight: f64) -> WorkloadMix {
    match tag % 3 {
        0 => WorkloadMix::Fixed(scenario_of(tag)),
        1 => WorkloadMix::Cycling {
            period,
            scenarios: vec![scenario_of(tag), scenario_of(tag.wrapping_add(1))],
        },
        _ => WorkloadMix::Blend(vec![
            (scenario_of(tag), weight),
            (scenario_of(tag.wrapping_add(2)), 1.0),
        ]),
    }
}

fn workload_spec_of(tag: u8, x: f64) -> Option<WorkloadSpec> {
    use moe_workload::{ClassSpec, Phase};
    let arrivals = match tag % 7 {
        0 => return None,
        1 => ArrivalSourceSpec::Diurnal {
            amplitude: (x / 1.0e6).clamp(0.0, 0.99),
            period: 60.0 + x / 100.0,
        },
        2 => ArrivalSourceSpec::Burst {
            period: 120.0 + x / 100.0,
            burst_duration: 10.0,
            quiet_factor: 0.25,
            burst_factor: 1.0 + x / 1.0e4,
        },
        3 => ArrivalSourceSpec::Spike {
            quiet_duration: 30.0,
            spike_duration: 1.0 + x / 1.0e4,
            spike_factor: 8.0,
        },
        4 => ArrivalSourceSpec::Ramp {
            steps: 1 + (x as usize % 7),
            step_duration: 15.0,
            start_factor: 0.5,
            end_factor: 3.0,
        },
        5 => ArrivalSourceSpec::Phases(vec![
            Phase {
                duration: 5.0 + x / 1.0e4,
                rate_factor: 0.5,
            },
            Phase {
                duration: 20.0,
                rate_factor: 2.0,
            },
        ]),
        _ => ArrivalSourceSpec::Trace {
            path: format!("examples/traces/prop_{}.json", tag),
        },
    };
    let classes = if tag.is_multiple_of(2) {
        vec![
            ClassSpec::interactive()
                .with_weight(1.0 + x / 1.0e4)
                .with_shed_after(0.5),
            ClassSpec::batch(),
        ]
    } else {
        Vec::new()
    };
    Some(WorkloadSpec { arrivals, classes })
}

fn batch_of(tag: u8, wl_tag: u8, tokens: u32, rate: f64) -> BatchSpec {
    match tag % 3 {
        0 => BatchSpec::Fixed {
            tokens_per_group: tokens,
            avg_context: 128.0 + rate,
            phase: if tag.is_multiple_of(2) {
                moe_model::InferencePhase::Decode
            } else {
                moe_model::InferencePhase::Prefill
            },
        },
        1 => BatchSpec::Serving(ServingSpec::hybrid(tokens, 1 + tag as usize, rate)),
        _ => BatchSpec::Serving(ServingSpec {
            mode: match tag % 2 {
                0 => SchedulingMode::PrefillOnly,
                _ => SchedulingMode::DecodeOnly,
            },
            max_batch_tokens: tokens,
            max_active: 1 + tag as usize,
            request_rate: rate,
            iteration_period: 0.005 + rate / 1.0e9,
            summary: match tag % 2 {
                0 => SummaryMode::Exact,
                _ => SummaryMode::Streaming,
            },
            workload: workload_spec_of(wl_tag, rate),
        }),
    }
}

fn balancer_of(tag: u8) -> BalancerKind {
    match tag % 4 {
        0 => BalancerKind::None,
        1 => BalancerKind::Greedy,
        2 => BalancerKind::TopologyAware,
        _ => BalancerKind::NonInvasive,
    }
}

proptest! {
    /// The identity `from_json(to_json(spec)) == spec` over randomized
    /// platform shapes, mappings, workloads, batch modes, engine knobs,
    /// fleet shapes, and sweep axes — including seeds above 2^53, which
    /// the codec carries as decimal strings to stay lossless.
    #[test]
    fn spec_json_roundtrip_is_identity(
        seed in 0u64..u64::MAX,
        n in 2u16..6,
        tp in 1usize..4,
        platform_tag in 0u8..5,
        mapping_tag in 0u8..4,
        workload_tag in 0u8..3,
        batch_tag in 0u8..3,
        wl_tag in 0u8..14,
        backend_tag in 0u8..3,
        balancer_tag in 0u8..4,
        policy_tag in 0u8..4,
        tokens in 1u32..4096,
        rate in 1.0f64..50_000.0,
        ema in 0.01f64..1.0,
        kv in 0.0001f64..1.0,
        stride in 1usize..8,
        microbatches in 1usize..8,
        replicas in 1usize..6,
        iterations in 1usize..5000,
        fleet_on in 0u8..2,
        sweep_on in 0u8..2,
        preset_tag in 0u8..7,
    ) {
        let model = if preset_tag == 6 {
            ModelSpec::Custom(moe_model::ModelConfig::tiny())
        } else {
            ModelSpec::preset(ModelSpec::preset_names()[preset_tag as usize])
        };
        let mut engine = EngineSpec::default()
            .with_seed(seed)
            .with_backend(backend_of(backend_tag))
            .with_balancer(balancer_of(balancer_tag))
            .with_workload(workload_of(workload_tag, 10.0 + rate, 0.5 + ema))
            .with_batch(batch_of(batch_tag, wl_tag, tokens, rate))
            .with_comm_layer_stride(stride)
            .with_kv_hbm_fraction(kv);
        engine.pipeline_microbatches = microbatches;
        engine.load_ema = ema;
        engine.trigger_beta = seed % 100;
        engine.uniform_gating = seed % 2 == 0;

        let mut spec = ScenarioSpec::new(
            format!("prop-{seed}"),
            platform_of(platform_tag, n),
        )
        .with_mapping(mapping_of(mapping_tag, tp))
        .with_model(model)
        .with_engine(engine)
        .with_iterations(iterations);
        if fleet_on == 1 {
            spec = spec.with_fleet(
                FleetSpec::new(replicas, policy_of(policy_tag), rate)
                    .with_backend_overrides(vec![backend_of(backend_tag)]),
            );
        }
        if sweep_on == 1 {
            spec = spec.with_sweep(
                SweepSpec::default()
                    .with_rates(vec![rate, rate * 2.0])
                    .with_policies(vec![policy_of(policy_tag)])
                    .with_replicas(vec![replicas]),
            );
        }

        // The identity, through the tree and through the text layer.
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("parse emitted tree");
        assert_eq!(back, spec);
        let text = spec.to_json_text();
        let back = ScenarioSpec::from_json_text(&text).expect("parse emitted text");
        assert_eq!(back, spec);
    }
}
