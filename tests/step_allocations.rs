//! Allocation regression test for the engine's per-layer MoE loop.
//!
//! In steady state `InferenceEngine::step` reuses its gating trace, its
//! cached mixed distributions and one layer's scratch buffers, so the heap
//! allocations a step makes must not grow with the number of sparse
//! layers. A counting global allocator measures that directly.
//!
//! The counter is thread-local, so allocations made by other test threads
//! (or the harness) never reach the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use moentwine::model::InferencePhase;
use moentwine::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations made by `steps` steady-state steps of a fixed-batch,
/// unbalanced, analytic engine over the tiny model with `sparse_layers`
/// sparse layers.
fn steady_state_allocations(sparse_layers: u32, steps: usize) -> u64 {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
        .unwrap()
        .plan();
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
    let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
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
    let steps = 24;
    let shallow = steady_state_allocations(4, steps);
    let deep = steady_state_allocations(16, steps);
    assert_eq!(
        shallow, deep,
        "{steps} steps allocate {shallow} times with 4 sparse layers but {deep} with 16"
    );
}
