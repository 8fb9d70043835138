//! Criterion benchmarks for the balancing strategies (Algorithm 1 and the
//! greedy baseline) at production scale, and for one NI-Balancer firing on
//! the `wafer_ni_balance` shape.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use moentwine_bench::platforms::Platform;
use moentwine_core::balancer::{BalanceContext, Balancer, GreedyBalancer, TopologyAwareBalancer};
use moentwine_core::placement::ExpertPlacement;
use wsc_topology::DeviceId;

fn bench_balancers(c: &mut Criterion) {
    let mut group = c.benchmark_group("balancer_plan_layer");
    // 256-device multi-wafer system, 256 experts (the Fig. 17 scale).
    let platform = Platform::multi_wsc(2, 2, 8);
    let placement = ExpertPlacement::balanced(256, 256, 2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let loads: Vec<f64> = (0..256).map(|_| rng.gen_range(1.0..100.0)).collect();

    for actions in [4usize, 16] {
        group.bench_with_input(
            BenchmarkId::new("topology_aware", actions),
            &actions,
            |b, &actions| {
                b.iter(|| {
                    TopologyAwareBalancer::new(actions).plan_layer(&BalanceContext {
                        layer: 0,
                        expert_loads: &loads,
                        placement: &placement,
                        table: &platform.table,
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("greedy", actions),
            &actions,
            |b, &actions| {
                b.iter(|| {
                    GreedyBalancer::new(actions).plan_layer(&BalanceContext {
                        layer: 0,
                        expert_loads: &loads,
                        placement: &placement,
                        table: &platform.table,
                    })
                })
            },
        );
    }
    group.finish();
}

/// Sparse layers, experts, shadow slots and action cap of perfbench's
/// `wafer_ni_balance` (Qwen3-235B on a 4x4 wafer, NI-Balancer).
const LAYERS: usize = 94;
const EXPERTS: usize = 128;
const SLOTS: usize = 2;
const MAX_ACTIONS: usize = 4;

/// One trigger firing on the `wafer_ni_balance` shape: a reused
/// `TopologyAwareBalancer` plans all 94 layers. Each layer's loads are a
/// shuffled Zipf-like profile, and every shadow slot holds one of its 32
/// hottest experts, as after the balancer has settled. So most plans
/// neither release nor replicate; on every sixth layer one shadowed expert
/// has gone cold, and its plan releases the replica and refills the slot.
fn bench_wafer_ni_balance(c: &mut Criterion) {
    let platform = Platform::wsc(4);
    let devices = platform.topo.num_devices();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1515);
    let layers: Vec<(ExpertPlacement, Vec<f64>)> = (0..LAYERS)
        .map(|layer| {
            let mut loads: Vec<f64> = (0..EXPERTS).map(|r| 400.0 / (r + 4) as f64).collect();
            loads.shuffle(&mut rng);
            let mut by_load: Vec<usize> = (0..EXPERTS).collect();
            by_load.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]));
            let mut placement = ExpertPlacement::balanced(EXPERTS, devices, SLOTS);
            for &e in &by_load[..devices * SLOTS] {
                // The first free device from half a wafer away on.
                let home = placement.primary_device(e).index();
                let target = (0..devices)
                    .map(|k| DeviceId(((home + devices / 2 + k) % devices) as u32))
                    .find(|&d| placement.has_free_slot(d) && !placement.hosts(d, e));
                if let Some(target) = target {
                    placement.add_replica(e, target).expect("a free slot");
                }
            }
            if layer % 6 == 0 {
                loads[by_load[rng.gen_range(0..devices * SLOTS)]] = 0.01;
            }
            (placement, loads)
        })
        .collect();
    let mut balancer = TopologyAwareBalancer::new(MAX_ACTIONS);
    c.bench_function("balancer_wafer_ni_balance/94_layers", |b| {
        b.iter(|| {
            for (layer, (placement, loads)) in layers.iter().enumerate() {
                black_box(balancer.plan_layer(&BalanceContext {
                    layer,
                    expert_loads: loads,
                    placement,
                    table: &platform.table,
                }));
            }
        })
    });
}

criterion_group!(benches, bench_balancers, bench_wafer_ni_balance);
criterion_main!(benches);
