//! Criterion benchmarks for collective schedule construction and
//! flow-level simulation — the kernels behind Figs. 6 and 13.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use moe_model::{ModelConfig, Precision};
use moentwine_bench::platforms::{balanced_gating, Platform};
use moentwine_core::comm::A2aModel;
use moentwine_core::mapping::{ErMapping, TpShape};
use moentwine_core::placement::ExpertPlacement;
use wsc_collectives::{ring_all_reduce, Ring};
use wsc_sim::{CongestionModel, FlowSimBackend};

fn bench_ring_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_all_reduce_des");
    for n in [4u16, 8] {
        let platform = Platform::wsc(n);
        let ring = Ring::new(platform.topo.devices().take(n as usize).collect());
        let des = FlowSimBackend::new(&platform.topo);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{n}")),
            &n,
            |b, _| b.iter(|| des.price_schedule(&ring_all_reduce(&platform.topo, &ring, 2.0e6))),
        );
    }
    group.finish();
}

fn bench_all_to_all_des(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_to_all_des");
    group.sample_size(10);
    let model = ModelConfig::qwen3_235b();
    for n in [4u16, 6] {
        let platform = Platform::wsc(n);
        let plan = ErMapping::with_tp_degree(platform.topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let placement =
            ExpertPlacement::balanced(model.num_experts as usize, platform.topo.num_devices(), 1);
        let gating = balanced_gating(
            plan.num_groups(),
            model.num_experts as usize,
            256,
            model.experts_per_token,
        );
        let a2a = A2aModel::new(&platform.topo, &platform.table, &plan);
        let des = FlowSimBackend::new(&platform.topo);
        let token_bytes = model.token_bytes(Precision::Fp16);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{n}")),
            &n,
            |b, _| b.iter(|| a2a.estimate_with(&des, &gating, &placement, token_bytes, 256)),
        );
    }
    group.finish();
}

fn bench_a2a_analytic(c: &mut Criterion) {
    let model = ModelConfig::deepseek_v3();
    let platform = Platform::wsc(8);
    let plan = ErMapping::new(platform.topo.mesh_dims().unwrap(), TpShape::new(2, 2))
        .unwrap()
        .plan();
    let placement =
        ExpertPlacement::balanced(model.num_experts as usize, platform.topo.num_devices(), 1);
    let gating = balanced_gating(
        plan.num_groups(),
        model.num_experts as usize,
        256,
        model.experts_per_token,
    );
    let a2a = A2aModel::new(&platform.topo, &platform.table, &plan);
    c.bench_function("a2a_analytic_8x8_dsv3", |b| {
        b.iter(|| a2a.estimate(&gating, &placement, model.token_bytes(Precision::Fp16), 256))
    });
}

criterion_group!(
    benches,
    bench_ring_all_reduce,
    bench_all_to_all_des,
    bench_a2a_analytic
);
criterion_main!(benches);
