//! Allocation regression tests for the engine's per-layer MoE loop and the
//! balancers' plans.
//!
//! In steady state `InferenceEngine::step` reuses its gating trace, its
//! cached mixed distributions and one layer's scratch buffers, so the heap
//! allocations a step makes must not grow with the number of sparse
//! layers. A balancer plans on a reused scratch placement, so the
//! allocations of one `plan_layer` call must not grow with the number of
//! experts. The cached DES tier prices the engine's sampled all-to-all
//! without memoising it, so a serving step on `flow-sim-cached` must cost
//! no more allocations and leave no more live heap than on `flow-sim`. A
//! step large enough to sample its gating on a helper thread must allocate
//! on the calling thread only, and no more as its layers grow. A counting
//! global allocator measures all four directly.
//!
//! The per-thread counters are thread-local, so allocations made by other
//! test threads (or the harness) never reach them. A process-wide counter
//! also sees the engine's helper thread; every test here holds [`SERIAL`],
//! so while one measures no other test allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use moentwine::core::balancer::{BalanceContext, Balancer};
use moentwine::core::placement::ExpertPlacement;
use moentwine::model::InferencePhase;
use moentwine::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocations made on any thread.
static ALL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by every test in this file, so that no two measure at once.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts one allocation that grows this thread's live heap by `grown`
/// bytes (negative when a reallocation shrinks a block).
fn count_one(grown: i64) {
    ALL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Heap allocations made by `steps` steady-state steps of a fixed-batch,
/// unbalanced, analytic engine over the tiny model with `sparse_layers`
/// sparse layers, on a 4×4 wafer (ER-Mapping, priced over precomputed
/// route sets) or, with `dgx_nodes`, on a DGX cluster of that many nodes
/// (node-aggregated, priced over pair lists).
fn steady_state_allocations(dgx_nodes: Option<u16>, sparse_layers: u32, steps: usize) -> u64 {
    let (topo, layout): (Topology, Box<dyn ParallelLayout>) = match dgx_nodes {
        None => {
            let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
            let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
                .unwrap()
                .plan();
            (topo, Box::new(plan))
        }
        Some(nodes) => {
            let topo = DgxCluster::new(nodes, PlatformParams::dgx_b200()).build();
            let layout = ClusterLayout::new(&topo, 8);
            (topo, Box::new(layout))
        }
    };
    let table = RouteTable::build(&topo);
    let model = ModelConfig {
        num_layers: sparse_layers,
        num_sparse_layers: sparse_layers,
        ..ModelConfig::tiny()
    };
    // One token per group: most layers hit the sampler's cap repair, the
    // shape of the empty batches a serving replica prices.
    let config = EngineConfig::new(model).with_batch(BatchMode::Fixed {
        tokens_per_group: 1,
        avg_context: 512.0,
        phase: InferencePhase::Decode,
    });
    assert_eq!(config.balancer, BalancerKind::None);
    assert_eq!(config.backend, CongestionBackend::Analytic);
    let mut engine = InferenceEngine::new(&topo, &table, layout.as_ref(), config);
    // Warm-up: grows every reused buffer to its steady-state size.
    for _ in 0..8 {
        engine.step();
    }
    let before = allocations();
    for _ in 0..steps {
        engine.step();
    }
    allocations() - before
}

#[test]
fn step_allocations_do_not_grow_with_layer_count() {
    let _serial = serial();
    let steps = 24;
    for dgx_nodes in [None, Some(2)] {
        let shallow = steady_state_allocations(dgx_nodes, 4, steps);
        let deep = steady_state_allocations(dgx_nodes, 16, steps);
        assert_eq!(
            shallow, deep,
            "{dgx_nodes:?}: {steps} steps allocate {shallow} times with 4 sparse layers \
             but {deep} with 16"
        );
    }
}

/// Heap allocations made by `steps` steady-state steps of a fixed-batch,
/// analytic engine over a Qwen3-235B-shaped model with `sparse_layers`
/// sparse layers on a 4-group wafer: on the calling thread, and on every
/// other thread. The second is the fewest of three measurements, since
/// the test harness's own thread may allocate while one runs; a helper
/// that allocated would do so in every step of all three.
fn overlapped_allocations(sparse_layers: u32, steps: usize) -> (u64, u64) {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
        .unwrap()
        .plan();
    let model = ModelConfig {
        num_layers: sparse_layers,
        num_sparse_layers: sparse_layers,
        ..ModelConfig::qwen3_235b()
    };
    let config = EngineConfig::new(model).with_batch(BatchMode::Fixed {
        tokens_per_group: 4,
        avg_context: 512.0,
        phase: InferencePhase::Decode,
    });
    let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
    for _ in 0..8 {
        engine.step();
    }
    let (mut caller, mut elsewhere) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        let (mine, all) = (allocations(), ALL_ALLOCATIONS.load(Ordering::Relaxed));
        for _ in 0..steps {
            engine.step();
        }
        let mine = allocations() - mine;
        caller = caller.min(mine);
        elsewhere = elsewhere.min(ALL_ALLOCATIONS.load(Ordering::Relaxed) - all - mine);
    }
    (caller, elsewhere)
}

/// On a host with more than one core these steps sample on a helper
/// thread (48 and 96 sparse layers × 4 groups × 128 experts are above the
/// engine's size rule, and `SERIAL` keeps every other engine step of this
/// binary off the cores); on one core they run the serial driver, and the
/// same bounds hold.
#[test]
fn overlapped_steps_allocate_on_the_caller_only() {
    let _serial = serial();
    let steps = 12;
    let (shallow, shallow_elsewhere) = overlapped_allocations(48, steps);
    let (deep, deep_elsewhere) = overlapped_allocations(96, steps);
    assert_eq!(
        (shallow_elsewhere, deep_elsewhere),
        (0, 0),
        "{steps} steps allocate off the calling thread"
    );
    assert_eq!(
        shallow, deep,
        "{steps} steps allocate {shallow} times with 48 sparse layers but {deep} with 96"
    );
}

/// Heap allocations made, and live heap bytes left behind, by `steps`
/// steady-state steps of a serving engine over the tiny model that prices
/// every layer's all-to-all (`comm_layer_stride` 1) on `backend`.
fn serving_footprint(backend: CongestionBackend, steps: usize) -> (u64, i64) {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
        .unwrap()
        .plan();
    let mut config = EngineConfig::new(ModelConfig::tiny())
        .with_backend(backend)
        .with_batch(BatchMode::Scheduled {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
            request_rate: 8.0e3,
            iteration_period: 0.02,
        });
    config.kv_hbm_fraction = 1.0e-3;
    assert_eq!(config.comm_layer_stride, 1);
    let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
    for _ in 0..8 {
        engine.step();
    }
    let (allocs, live) = (allocations(), live_bytes());
    for _ in 0..steps {
        engine.step();
    }
    (allocations() - allocs, live_bytes() - live)
}

#[test]
fn cached_tier_serving_step_costs_no_more_than_flow_sim() {
    let _serial = serial();
    let steps = 32;
    let (des_allocs, des_live) = serving_footprint(CongestionBackend::FlowSim, steps);
    let (cached_allocs, cached_live) = serving_footprint(CongestionBackend::FlowSimCached, steps);
    assert!(
        cached_allocs <= des_allocs,
        "{steps} serving steps allocate {cached_allocs} times on flow-sim-cached \
         but {des_allocs} on flow-sim"
    );
    assert!(
        cached_live <= des_live,
        "{steps} serving steps leave {cached_live} live bytes on flow-sim-cached \
         but {des_live} on flow-sim"
    );
}

/// Heap allocations of one `plan_layer` call, made after a warm-up call on
/// the same context, and the number of actions it returns. The placement
/// spreads `experts` experts over the 16 devices of a 4x4 wafer with two
/// shadow slots each; one idle shadow replica is due for release and expert
/// 0 is hot enough to be replicated up to the action cap.
fn plan_allocations(balancer: &mut dyn Balancer, experts: usize) -> (u64, usize) {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let mut placement = ExpertPlacement::balanced(experts, 16, 2);
    placement.add_replica(experts - 1, DeviceId(0)).unwrap();
    let mut loads = vec![1.0; experts];
    loads[0] = 100.0 * experts as f64;
    loads[experts - 1] = 0.0;
    let ctx = BalanceContext {
        layer: 0,
        expert_loads: &loads,
        placement: &placement,
        table: &table,
    };
    balancer.plan_layer(&ctx);
    let before = allocations();
    let actions = balancer.plan_layer(&ctx);
    (allocations() - before, actions.len())
}

#[test]
fn plan_allocations_do_not_grow_with_expert_count() {
    let _serial = serial();
    let experts = [16, 128, 256];
    let topology_aware = experts.map(|e| plan_allocations(&mut TopologyAwareBalancer::new(4), e));
    let greedy = experts.map(|e| plan_allocations(&mut GreedyBalancer::new(4), e));
    for (name, plans) in [("topology-aware", topology_aware), ("greedy", greedy)] {
        // One release and four replications at every size, so the
        // returned action lists allocate alike.
        assert!(
            plans.iter().all(|&(_, actions)| actions == 5),
            "{name} on {experts:?} experts: {plans:?} (allocations, actions)"
        );
        assert!(
            plans.iter().all(|&plan| plan == plans[0]),
            "{name} on {experts:?} experts: {plans:?} (allocations, actions)"
        );
    }
}
