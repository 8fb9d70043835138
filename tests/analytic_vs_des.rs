//! Validates the analytical bottleneck model against the flow-level DES —
//! the methodological contract of DESIGN.md §5.

use moentwine::collectives::cost::backend_disagreement;
use moentwine::collectives::{all_to_all_concurrent, ring_all_reduce, Ring, Transfer};
use moentwine::core::comm::{A2aModel, ParallelLayout};
use moentwine::core::placement::ExpertPlacement;
use moentwine::prelude::*;
use moentwine::workload::LayerGating;

fn mesh(n: u16) -> Topology {
    Mesh::new(n, PlatformParams::dojo_like()).build()
}

/// The DES time of `sched` on `topo`.
fn des_time(topo: &Topology, sched: &FlowSchedule) -> f64 {
    FlowSimBackend::new(topo).price_schedule(sched).total_time
}

#[test]
fn ring_all_reduce_exact_agreement() {
    // Phase-synchronous single-bottleneck schedules must match exactly.
    let topo = mesh(4);
    let ring = Ring::new(vec![
        topo.device_at_xy(0, 0).unwrap(),
        topo.device_at_xy(1, 0).unwrap(),
        topo.device_at_xy(1, 1).unwrap(),
        topo.device_at_xy(0, 1).unwrap(),
    ]);
    for bytes in [1.0e3, 1.0e6, 64.0e6] {
        let sched = ring_all_reduce(&topo, &ring, bytes);
        let des = des_time(&topo, &sched);
        let est = AnalyticModel::new(&topo).price_schedule(&sched).total_time;
        assert!(
            (des - est).abs() / des < 1e-9,
            "bytes={bytes}: {des} vs {est}"
        );
    }
}

#[test]
fn mapping_all_reduce_agreement() {
    for (n, tp) in [(4u16, 4usize), (6, 4), (6, 6)] {
        let topo = mesh(n);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), tp)
            .unwrap()
            .plan();
        let sched = plan.all_reduce_schedule(&topo, 2.0e6);
        let des = des_time(&topo, &sched);
        let est = AnalyticModel::new(&topo).price_schedule(&sched).total_time;
        let err = (des - est).abs() / des;
        assert!(err < 0.01, "n={n} tp={tp}: DES {des} vs analytic {est}");
    }
}

#[test]
fn dispatch_a2a_within_bounded_factor() {
    // The analytic estimate is a bottleneck bound: DES can be faster (flows
    // finish at different times, freeing bandwidth) but never catastrophically
    // different. Contract: within 2x either way on realistic patterns.
    let topo = mesh(6);
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let model = ModelConfig::qwen3_235b();
    let placement = ExpertPlacement::balanced(model.num_experts as usize, topo.num_devices(), 1);
    let per = 256 * model.experts_per_token / model.num_experts;
    let gating = LayerGating {
        counts: vec![vec![per.max(1); model.num_experts as usize]; plan.num_groups()],
    };
    let a2a = A2aModel::new(&topo, &table, &plan);
    let token_bytes = model.token_bytes(moentwine::model::Precision::Fp16);
    let est = a2a.estimate(&gating, &placement, token_bytes, 256);
    let des = a2a
        .estimate_with(
            &FlowSimBackend::new(&topo),
            &gating,
            &placement,
            token_bytes,
            256,
        )
        .dispatch
        .total_time;
    let ratio = des / est.dispatch.total_time;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "DES {des} vs analytic {} (ratio {ratio})",
        est.dispatch.total_time
    );
}

#[test]
fn congestion_model_trait_cross_validates_er_all_reduce() {
    // The mapping-agreement contract, restated through the pluggable
    // backend interface: swapping fidelity via `CongestionBackend` prices
    // the *same* ER all-reduce schedule to within 1% — for every backend in
    // the sweep, with the DES as the reference.
    for (n, tp) in [(4u16, 4usize), (6, 6)] {
        let topo = mesh(n);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), tp)
            .unwrap()
            .plan();
        let sched = plan.all_reduce_schedule(&topo, 2.0e6);
        let des = CongestionBackend::FlowSim.build(&topo);
        for kind in CongestionBackend::all() {
            let candidate = kind.build(&topo);
            let gap = backend_disagreement(candidate.as_ref(), des.as_ref(), &sched);
            assert!(
                gap < 0.01,
                "n={n} tp={tp} {kind}: disagrees by {gap:.4} ({} vs {})",
                candidate.price_schedule(&sched).total_time,
                des.price_schedule(&sched).total_time
            );
        }
    }
}

#[test]
fn cached_backend_is_bit_identical_to_flow_sim() {
    // The memoizing tier is a pure decorator: on any schedule — priced cold
    // (miss) or replayed (hit) — the estimate is the DES's own, bit for bit.
    let topo = mesh(6);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let sched = plan.all_reduce_schedule(&topo, 2.0e6);
    let des = CongestionBackend::FlowSim.build(&topo);
    let cached = CongestionBackend::FlowSimCached.build(&topo);
    let reference = des.price_schedule(&sched);
    let cold = cached.price_schedule(&sched);
    let replay = cached.price_schedule(&sched);
    assert_eq!(reference, cold);
    assert_eq!(reference, replay);
}

#[test]
fn engine_scope_backends_within_bounded_factor() {
    // Engine-scope cross-validation: the same inference run priced at both
    // fidelities. All-reduce schedules are phase-synchronous rings (near
    // exact agreement); the all-to-all is a bottleneck bound (DES may be
    // faster, bounded either way).
    let topo = mesh(4);
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let model = ModelConfig {
        name: "tiny".into(),
        total_params_b: 1.0,
        num_layers: 4,
        num_sparse_layers: 4,
        hidden_size: 1024,
        moe_intermediate_size: 512,
        num_experts: 16,
        experts_per_token: 2,
        num_shared_experts: 0,
        num_attention_heads: 8,
        num_kv_heads: 2,
        head_dim: 128,
    };
    let run = |backend: CongestionBackend| {
        let config = EngineConfig::new(model.clone())
            .with_seed(12)
            .with_backend(backend);
        InferenceEngine::new(&topo, &table, &plan, config).run(5)
    };
    let analytic = run(CongestionBackend::Analytic);
    let des = run(CongestionBackend::FlowSim);
    let ar_err = (analytic.mean_all_reduce - des.mean_all_reduce).abs() / des.mean_all_reduce;
    assert!(ar_err < 0.02, "all-reduce disagreement {ar_err:.4}");
    let a2a_ratio = des.mean_all_to_all / analytic.mean_all_to_all;
    assert!(
        (0.2..=1.5).contains(&a2a_ratio),
        "a2a ratio {a2a_ratio}: DES {} vs analytic {}",
        des.mean_all_to_all,
        analytic.mean_all_to_all
    );

    // The cached DES must not change any reported engine figure beyond
    // 1e-9 relative to the uncached DES on the same sweep.
    let cached = run(CongestionBackend::FlowSimCached);
    let figures = [
        (des.mean_iteration_time, cached.mean_iteration_time),
        (des.mean_all_reduce, cached.mean_all_reduce),
        (des.mean_all_to_all, cached.mean_all_to_all),
        (des.mean_load_ratio, cached.mean_load_ratio),
    ];
    for (i, (d, c)) in figures.into_iter().enumerate() {
        assert!(
            (d - c).abs() <= 1e-9 * d.abs().max(1e-30),
            "figure {i}: flow-sim {d} vs cached {c}"
        );
    }
}

#[test]
fn analytic_is_conservative_on_uniform_mesh_a2a() {
    // For uniform all-to-all the bottleneck link is continuously busy, so
    // the analytic *serialization* term is a strict lower bound on DES (the
    // latency term is not — flows pay their own, shorter, route latencies).
    let topo = mesh(4);
    let transfers: Vec<Transfer> =
        moentwine::collectives::alltoall::uniform_all_to_all_matrix(&topo, 1.0e6);
    let des = des_time(&topo, &all_to_all_concurrent(&topo, &transfers));
    let est = AnalyticModel::new(&topo).price_flows(
        &transfers
            .iter()
            .map(|t| moentwine::sim::FlowSpec::new(topo.route(t.src, t.dst), t.bytes))
            .collect::<Vec<_>>(),
    );
    assert!(
        des >= est.serialization_time * 0.999,
        "DES {des} beats the serialization bound {}",
        est.serialization_time
    );
    assert!(
        des <= est.total_time * 2.0,
        "DES {des} too far above estimate {}",
        est.total_time
    );
}

#[test]
fn serving_metrics_cross_validate_across_backends() {
    // The serving extension of the cross-validation contract: the same
    // request-level serving run priced at every fidelity tier.
    //
    // * FlowSimCached vs FlowSim: pricing is bit-identical per schedule, so
    //   every serving percentile and the goodput must agree to 1e-9
    //   relative — the cache must never change what a request experienced.
    // * Analytic vs FlowSim: iteration durations differ by the bounded
    //   pricing gap (a2a within [0.2, 1.5] at engine scope, all-reduce
    //   within 2%), and serving latencies are sums of iteration durations
    //   plus queueing that depends on how many arrivals the clock sweeps
    //   in. Documented bound: p50/p99 TTFT and goodput within 3x either
    //   way. Batch composition itself is backend-independent, so completion
    //   *counts* may shift only by arrivals near the horizon.
    let topo = mesh(4);
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let model = ModelConfig {
        name: "tiny".into(),
        total_params_b: 1.0,
        num_layers: 4,
        num_sparse_layers: 4,
        hidden_size: 1024,
        moe_intermediate_size: 512,
        num_experts: 16,
        experts_per_token: 2,
        num_shared_experts: 0,
        num_attention_heads: 8,
        num_kv_heads: 2,
        head_dim: 128,
    };
    let run = |backend: CongestionBackend| {
        let mut config = EngineConfig::new(model.clone())
            .with_seed(77)
            .with_backend(backend)
            .with_workload(moentwine::workload::WorkloadMix::Fixed(
                moentwine::workload::Scenario::Privacy,
            ))
            .with_batch(moentwine::core::engine::BatchMode::Scheduled {
                mode: moentwine::workload::SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 8.0e3,
                iteration_period: 0.02,
            });
        config.kv_hbm_fraction = 1.0e-3;
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(400);
        engine.serving_summary()
    };
    let des = run(CongestionBackend::FlowSim);
    let cached = run(CongestionBackend::FlowSimCached);
    let analytic = run(CongestionBackend::Analytic);
    assert!(des.completed > 0, "scenario must complete requests");

    // Cached tier: ≤ 1e-9 relative drift on every serving figure.
    let figures = [
        ("ttft_p50", des.ttft_p50, cached.ttft_p50),
        ("ttft_p99", des.ttft_p99, cached.ttft_p99),
        ("tpot_p50", des.tpot_p50, cached.tpot_p50),
        ("e2e_p99", des.e2e_p99, cached.e2e_p99),
        ("goodput_rps", des.goodput_rps, cached.goodput_rps),
        (
            "goodput_tokens_per_s",
            des.goodput_tokens_per_s,
            cached.goodput_tokens_per_s,
        ),
    ];
    for (name, d, c) in figures {
        assert!(
            (d - c).abs() <= 1e-9 * d.abs().max(1e-30),
            "{name}: flow-sim {d} vs cached {c}"
        );
    }
    assert_eq!(des.completed, cached.completed);
    assert_eq!(des.admission_rejects, cached.admission_rejects);

    // Analytic tier: within the documented 3x bound either way.
    for (name, d, a) in [
        ("ttft_p50", des.ttft_p50, analytic.ttft_p50),
        ("ttft_p99", des.ttft_p99, analytic.ttft_p99),
        ("goodput_rps", des.goodput_rps, analytic.goodput_rps),
    ] {
        let ratio = a / d;
        assert!(
            (1.0 / 3.0..=3.0).contains(&ratio),
            "{name}: analytic {a} vs flow-sim {d} (ratio {ratio})"
        );
    }
}
