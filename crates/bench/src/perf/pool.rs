//! A hand-rolled scoped worker pool for independent jobs.
//!
//! The container cannot reach crates.io, so instead of `rayon` this is a
//! minimal `std::thread::scope` pool: jobs are claimed from a shared atomic
//! counter, results land in their submission slot, and the output vector is
//! **always in submission order** regardless of which worker ran which job.
//! That slot discipline is what makes every parallel consumer in this crate
//! — fleet replica stepping, the `serve_sweep` / `fleet_sweep` grids, and
//! `repro_all` — byte-identical to its serial order: parallelism only
//! changes *when* a job runs, never how results are merged.
//!
//! With one thread the pool degenerates to an in-caller-thread loop (no
//! spawn, no locks beyond the same code path), so `--threads 1` runs one
//! job at a time. A large engine step inside a job may still sample on a
//! helper thread while a core is free (DESIGN.md §6).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use moentwine_core::fleet::ReplicaPool;

/// A fixed-width scoped worker pool. See the [module docs](self).
#[derive(Copy, Clone, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`,
    /// 1 when unknown).
    pub fn sized_to_machine() -> Self {
        Self::new(Self::available())
    }

    /// The machine's available parallelism (1 when unknown).
    pub fn available() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns the results **in submission order**.
    ///
    /// Jobs may borrow from the caller's stack (they only need to outlive
    /// this call, not `'static`). A panicking job propagates: the scope
    /// joins every worker, then the panic resumes on the caller thread.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let n = jobs.len();
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("each job claimed once");
                    let out = job();
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job ran")
            })
            .collect()
    }
}

/// Fleet replicas step on the same pool: unit jobs, completion-only
/// contract (see [`ReplicaPool`]).
impl ReplicaPool for WorkerPool {
    fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
        let _: Vec<()> = WorkerPool::run(self, jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..100u64)
            .map(|i| {
                move || {
                    // Uneven work so completion order scrambles.
                    let mut acc = i;
                    for k in 0..((i % 7) * 1000) {
                        acc = acc.wrapping_mul(31).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i
                }
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn single_thread_pool_is_serial() {
        let pool = WorkerPool::new(1);
        let order = Mutex::new(Vec::new());
        // Jobs borrow the caller's stack — allowed because the pool is
        // scoped — and with one thread they run in submission order.
        let jobs: Vec<_> = (0..5)
            .map(|i| {
                let order = &order;
                move || order.lock().unwrap().push(i)
            })
            .collect();
        pool.run(jobs);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert!(WorkerPool::available() >= 1);
    }

    #[test]
    fn jobs_can_borrow_caller_state() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = WorkerPool::new(3);
        let chunks: Vec<&[u64]> = data.chunks(100).collect();
        let jobs: Vec<_> = chunks
            .iter()
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let sums = pool.run(jobs);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn drives_fleet_replicas() {
        use moe_model::ModelConfig;
        use moe_workload::{RouterPolicy, Scenario, SchedulingMode, WorkloadMix};
        use moentwine_core::engine::{BatchMode, EngineConfig};
        use moentwine_core::fleet::{Fleet, FleetConfig};
        use moentwine_core::mapping::ErMapping;
        use wsc_topology::{Mesh, PlatformParams, RouteTable};

        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let model = ModelConfig::tiny();
        let mut engine = EngineConfig::new(model)
            .with_seed(9)
            .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
            .with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 0.0,
                iteration_period: 0.02,
            });
        engine.kv_hbm_fraction = 1.0e-3;
        let run = |pool: &dyn moentwine_core::fleet::ReplicaPool| {
            let config = FleetConfig::new(3, RouterPolicy::LeastQueueDepth, 6.0e3, engine.clone());
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run_with(60, pool);
            fleet.summary()
        };
        let serial = run(&moentwine_core::fleet::SerialReplicaPool);
        let pooled = run(&WorkerPool::new(4));
        assert_eq!(serial.routed, pooled.routed);
        assert_eq!(serial.per_replica, pooled.per_replica);
        assert_eq!(serial.aggregate, pooled.aggregate);
    }
}
