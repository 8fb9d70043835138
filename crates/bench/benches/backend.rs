//! Criterion benchmarks for the pluggable congestion-pricing backends:
//! the cost of pricing the *same* collective with the closed-form analytic
//! model, the flow-level DES, and the memoizing cached DES, at both
//! collective, A2A and route-set scope — plus the incremental-vs-full-recompute
//! allocator split inside the DES itself.
//!
//! This quantifies the fidelity/speed trade the `EngineConfig::backend` knob
//! buys (DESIGN.md §5 fidelity ladder). The machine-readable speedup ratios
//! tracked across PRs are emitted by `repro_all` / the `bench_backend`
//! binary into `target/figs/bench_backend.json`; the raw per-call timings
//! live here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use moe_model::{ModelConfig, Precision};
use moentwine_bench::perf::grouped_dispatch_flows;
use moentwine_bench::platforms::{balanced_gating, Platform};
use moentwine_core::comm::A2aModel;
use moentwine_core::mapping::ErMapping;
use moentwine_core::placement::ExpertPlacement;
use wsc_collectives::{all_to_all_concurrent, uniform_all_to_all_matrix};
use wsc_sim::{CongestionBackend, FlowSchedule, NetworkSim};

fn er_all_reduce_schedule(platform: &Platform, tp: usize, bytes: f64) -> FlowSchedule {
    let plan = ErMapping::with_tp_degree(platform.topo.mesh_dims().unwrap(), tp)
        .unwrap()
        .plan();
    use moentwine_core::comm::ParallelLayout;
    plan.all_reduce_schedule(&platform.topo, bytes)
}

fn bench_price_er_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("price_er_all_reduce");
    for n in [4u16, 8] {
        let platform = Platform::wsc(n);
        let sched = er_all_reduce_schedule(&platform, 4, 2.0e6);
        for backend in CongestionBackend::all() {
            let model = backend.build(&platform.topo);
            group.bench_with_input(
                BenchmarkId::new(backend.name(), format!("{n}x{n}")),
                &sched,
                |b, sched| b.iter(|| model.price_schedule(sched)),
            );
        }
    }
    group.finish();
}

fn bench_price_a2a(c: &mut Criterion) {
    let mut group = c.benchmark_group("price_a2a_dispatch_combine");
    group.sample_size(10);
    let model = ModelConfig::qwen3_235b();
    let platform = Platform::wsc(6);
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
    let token_bytes = model.token_bytes(Precision::Fp16);
    for backend in CongestionBackend::all() {
        let pricer = backend.build(&platform.topo);
        group.bench_function(BenchmarkId::from_parameter(backend.name()), |b| {
            b.iter(|| a2a.estimate_with(pricer.as_ref(), &gating, &placement, token_bytes, 256))
        });
    }
    group.finish();
}

/// The route-set pricing the engine runs on every stride layer of a flat
/// fabric: the dispatch route set of ER-Mapping on a 4x4 wafer with TP 4
/// (48 transfers), every volume loaded. Each tier prices it through
/// `price_route_set_time` once with a fresh simulator slot per call
/// (`one_shot`) and once with one slot kept across calls (`reused`), as
/// the engine keeps it; only the flow-sim tier uses the slot.
fn bench_price_route_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("price_route_set");
    let platform = Platform::wsc(4);
    let plan = ErMapping::with_tp_degree(platform.topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let a2a = A2aModel::new(&platform.topo, &platform.table, &plan);
    let routes = a2a.dispatch_routes();
    let volume: Vec<f64> = (0..plan.num_groups() * platform.topo.num_devices())
        .map(|i| 1.0e6 * (1.0 + (i % 7) as f64 / 7.0))
        .collect();
    for backend in [CongestionBackend::Analytic, CongestionBackend::FlowSim] {
        let pricer = backend.build(&platform.topo);
        group.bench_function(BenchmarkId::new("one_shot", backend.name()), |b| {
            b.iter(|| pricer.price_route_set_time(routes, &mut None, &volume))
        });
        let mut sim = None;
        group.bench_function(BenchmarkId::new("reused", backend.name()), |b| {
            b.iter(|| pricer.price_route_set_time(routes, &mut sim, &volume))
        });
    }
    group.finish();
}

/// The repeated-schedule case the `flow-sim-cached` knob exists for: pricing
/// the same engine-layer schedule over and over. The cached backend
/// simulates once and replays; the uncached backend re-simulates each call.
fn bench_repeated_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("price_repeated_schedule");
    group.sample_size(10);
    let platform = Platform::wsc(6);
    let sched = er_all_reduce_schedule(&platform, 4, 2.0e6);
    for backend in [CongestionBackend::FlowSim, CongestionBackend::FlowSimCached] {
        let model = backend.build(&platform.topo);
        // Prime the cache outside the measurement so the cached number is
        // the steady-state replay cost.
        model.price_schedule(&sched);
        group.bench_with_input(
            BenchmarkId::from_parameter(backend.name()),
            &sched,
            |b, sched| b.iter(|| model.price_schedule(sched)),
        );
    }
    group.finish();
}

/// Incremental component-scoped fair-share vs the PR-1 full-recompute
/// reference, on two contended DES runs: the clustered EP-group dispatch
/// (components fragment → the incremental win) and the globally-coupled
/// uniform all-to-all (one component → constant-factor win only).
fn bench_des_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_fairshare_allocator");
    group.sample_size(10);
    let mut case = |label: String, topo: &wsc_topology::Topology, flows: &[wsc_sim::FlowSpec]| {
        group.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &flows,
            |b, flows| b.iter(|| NetworkSim::new(topo).run_concurrent(flows)),
        );
        group.bench_with_input(
            BenchmarkId::new("full-recompute", &label),
            &flows,
            |b, flows| {
                b.iter(|| {
                    NetworkSim::new(topo)
                        .use_reference_allocator(true)
                        .run_concurrent(flows)
                })
            },
        );
    };
    for n in [8u16, 12] {
        let platform = Platform::wsc(n);
        let flows = grouped_dispatch_flows(&platform.topo, 1.0e6);
        case(format!("grouped-{n}x{n}"), &platform.topo, &flows);
    }
    for n in [4u16, 6] {
        let platform = Platform::wsc(n);
        let sched = all_to_all_concurrent(
            &platform.topo,
            &uniform_all_to_all_matrix(&platform.topo, 1.0e6),
        );
        case(
            format!("uniform-{n}x{n}"),
            &platform.topo,
            &sched.phases()[0].flows,
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_price_er_all_reduce,
    bench_price_a2a,
    bench_price_route_set,
    bench_repeated_schedule,
    bench_des_allocators
);
criterion_main!(benches);
