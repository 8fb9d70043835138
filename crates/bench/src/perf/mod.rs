//! Wall-clock measurement of the congestion-backend hot paths, tracked
//! across PRs as `target/figs/bench_backend.json`.
//!
//! Two ratios of record (the perf contract of the incremental fair-share /
//! schedule-cache work, gated in CI by the `bench_backend` binary):
//!
//! * `incremental_speedup` — full-recompute (PR-1) DES over incremental DES
//!   on the contended EP-group dispatch workload (all-to-all within each
//!   expert-parallel device group, skewed per-pair sizes — the paper's
//!   load-imbalance scenario). Contention is group-local, so the
//!   incremental allocator reprices one group per completion while the
//!   full recompute re-waterfills every active flow; expected ≥ 5×.
//! * `cached_speedup` — uncached flow-sim over `flow-sim-cached` pricing
//!   the same engine-layer dispatch/combine transfer lists `repeats` times
//!   through the memoised full-estimate path; expected ≥ 5× (≥ 20× on a
//!   full, non-`--quick` run). This is a best case for a repeated
//!   schedule, not a figure any engine run reaches: sampled per-step
//!   shapes do not repeat, and the engine prices them through the
//!   unmemoised time-only path.
//!
//! The globally-coupled uniform all-to-all is also recorded
//! (`global_incremental_speedup`): its contention graph is one connected
//! component, so component scoping cannot fragment it — the residual
//! speedup there comes from eliminating per-event route cloning, full
//! drains, and per-round membership scans.

pub mod availability;
pub mod fleet;
pub mod pool;

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use moe_model::{ModelConfig, Precision};
use moentwine_core::comm::A2aModel;
use moentwine_core::mapping::ErMapping;
use moentwine_core::placement::ExpertPlacement;
use wsc_collectives::{all_to_all_concurrent, uniform_all_to_all_matrix};
use wsc_sim::{CongestionBackend, FlowSpec, NetworkSim};
use wsc_topology::{Mesh, PlatformParams, Topology};

use crate::json::Value;
use crate::platforms::balanced_gating;

/// EP-group dispatch workload: an all-to-all inside every 2×2 device group
/// with skewed (deterministically varied) per-pair payloads, modelling
/// expert-parallel dispatch under load imbalance. XY routes between group
/// members stay inside the group, so each group is an independent
/// contention component — clustered contention, the incremental
/// allocator's target case.
pub fn grouped_dispatch_flows(topo: &Topology, base_bytes: f64) -> Vec<FlowSpec> {
    let dims = topo
        .mesh_dims()
        .expect("grouped dispatch needs a mesh topology");
    let n = dims.n;
    let mut flows = Vec::new();
    for by in (0..n.saturating_sub(1)).step_by(2) {
        for bx in (0..n.saturating_sub(1)).step_by(2) {
            let group: Vec<_> = [(0u16, 0u16), (1, 0), (0, 1), (1, 1)]
                .iter()
                .filter_map(|&(dx, dy)| topo.device_at_xy(bx + dx, by + dy))
                .collect();
            for (i, &src) in group.iter().enumerate() {
                for (j, &dst) in group.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let skew = 1 + (i * 4 + j + (bx + by) as usize) % 7;
                    flows.push(FlowSpec::new(
                        topo.route(src, dst),
                        base_bytes * skew as f64,
                    ));
                }
            }
        }
    }
    flows
}

/// One measured backend-perf snapshot. All times are seconds per call
/// (median of `samples` timed calls).
#[derive(Clone, Debug)]
pub struct BackendPerf {
    /// Mesh side length of the DES workloads.
    pub mesh_n: u16,
    /// Flows in the EP-group dispatch workload.
    pub grouped_flows: usize,
    /// Full-recompute (reference) DES time on the EP-group dispatch.
    pub grouped_full_des_seconds: f64,
    /// Incremental DES time on the EP-group dispatch.
    pub grouped_incremental_des_seconds: f64,
    /// Headline ratio: `grouped_full / grouped_incremental`.
    pub incremental_speedup: f64,
    /// Flows in the globally-coupled uniform all-to-all.
    pub global_flows: usize,
    /// Full-recompute DES time on the uniform all-to-all.
    pub global_full_des_seconds: f64,
    /// Incremental DES time on the uniform all-to-all.
    pub global_incremental_des_seconds: f64,
    /// `global_full / global_incremental` (single-component workload).
    pub global_incremental_speedup: f64,
    /// Times the engine-layer dispatch/combine is priced per measurement.
    pub repeats: usize,
    /// Uncached flow-sim time for all `repeats` layer pricings.
    pub flow_sim_repeat_seconds: f64,
    /// `flow-sim-cached` time for all `repeats` layer pricings.
    pub cached_repeat_seconds: f64,
    /// `flow_sim_repeat / cached_repeat`: the best case of the cached tier,
    /// one schedule repeated through the memoised full-estimate path.
    /// Engine runs do not reach it: sampled per-step shapes do not repeat
    /// (0 hits in 14,100 replayed `wafer_ni_balance` pricings), and the
    /// engine's time-only all-to-all pricing is not memoised at all.
    pub cached_speedup: f64,
    /// Analytic time for the same layer pricings (ladder context).
    pub analytic_repeat_seconds: f64,
}

/// Median of `samples` timed executions of `f`, seconds.
fn median_seconds<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Runs the measurement. `quick` shrinks the mesh and sample counts for CI
/// smoke runs; the speedup contract must hold in either mode.
pub fn measure_backend_perf(quick: bool) -> BackendPerf {
    let (n, samples, repeats) = if quick { (8u16, 3, 50) } else { (12u16, 5, 50) };
    let topo = Mesh::new(n, PlatformParams::dojo_like()).build();

    // Clustered contention: EP-group dispatch with skewed sizes.
    let grouped = grouped_dispatch_flows(&topo, 1.0e6);
    let grouped_full_des_seconds = median_seconds(samples, || {
        NetworkSim::new(&topo)
            .use_reference_allocator(true)
            .run_concurrent(&grouped)
    });
    let grouped_incremental_des_seconds =
        median_seconds(samples, || NetworkSim::new(&topo).run_concurrent(&grouped));

    // Globally-coupled contention: uniform all-to-all (one component). Kept
    // smaller — the full-recompute reference is quadratic-ish in flows.
    let global_topo = Mesh::new(6, PlatformParams::dojo_like()).build();
    let global = all_to_all_concurrent(
        &global_topo,
        &uniform_all_to_all_matrix(&global_topo, 1.0e6),
    );
    let global_flows = global.phases()[0].flows.len();
    let global_full_des_seconds = median_seconds(samples, || {
        NetworkSim::new(&global_topo)
            .use_reference_allocator(true)
            .run_concurrent(&global.phases()[0].flows)
    });
    let global_incremental_des_seconds = median_seconds(samples, || {
        NetworkSim::new(&global_topo).run_concurrent(&global.phases()[0].flows)
    });

    // Repeated engine-layer schedules: the same MoE dispatch/combine priced
    // `repeats` times through one backend instance, so the cached tier
    // simulates the shape once and replays it. A best case: sampled gating
    // never repeats a shape in a real run.
    let model = ModelConfig::qwen3_235b();
    let a2a_topo = Mesh::new(6, PlatformParams::dojo_like()).build();
    let table = wsc_topology::RouteTable::build(&a2a_topo);
    let plan = ErMapping::with_tp_degree(a2a_topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let a2a = A2aModel::new(&a2a_topo, &table, &plan);
    let placement =
        ExpertPlacement::balanced(model.num_experts as usize, a2a_topo.num_devices(), 1);
    let gating = balanced_gating(
        a2a.num_groups(),
        model.num_experts as usize,
        256,
        model.experts_per_token,
    );
    let token_bytes = model.token_bytes(Precision::Fp16);
    let time_repeats = |backend: CongestionBackend| {
        median_seconds(samples, || {
            let pricer = backend.build(&a2a_topo);
            let mut acc = 0.0;
            for _ in 0..repeats {
                acc += a2a
                    .estimate_with(pricer.as_ref(), &gating, &placement, token_bytes, 256)
                    .total_time();
            }
            acc
        })
    };
    let flow_sim_repeat_seconds = time_repeats(CongestionBackend::FlowSim);
    let cached_repeat_seconds = time_repeats(CongestionBackend::FlowSimCached);
    let analytic_repeat_seconds = time_repeats(CongestionBackend::Analytic);

    BackendPerf {
        mesh_n: n,
        grouped_flows: grouped.len(),
        grouped_full_des_seconds,
        grouped_incremental_des_seconds,
        incremental_speedup: grouped_full_des_seconds / grouped_incremental_des_seconds,
        global_flows,
        global_full_des_seconds,
        global_incremental_des_seconds,
        global_incremental_speedup: global_full_des_seconds / global_incremental_des_seconds,
        repeats,
        flow_sim_repeat_seconds,
        cached_repeat_seconds,
        cached_speedup: flow_sim_repeat_seconds / cached_repeat_seconds,
        analytic_repeat_seconds,
    }
}

impl BackendPerf {
    /// The JSON manifest written to `target/figs/bench_backend.json`.
    pub fn to_json(&self, quick: bool) -> Value {
        let num = |v: f64| Value::Num(v);
        Value::Obj(vec![
            ("quick".into(), Value::Bool(quick)),
            ("mesh_n".into(), num(self.mesh_n as f64)),
            ("grouped_flows".into(), num(self.grouped_flows as f64)),
            (
                "grouped_full_des_seconds".into(),
                num(self.grouped_full_des_seconds),
            ),
            (
                "grouped_incremental_des_seconds".into(),
                num(self.grouped_incremental_des_seconds),
            ),
            ("incremental_speedup".into(), num(self.incremental_speedup)),
            ("global_flows".into(), num(self.global_flows as f64)),
            (
                "global_full_des_seconds".into(),
                num(self.global_full_des_seconds),
            ),
            (
                "global_incremental_des_seconds".into(),
                num(self.global_incremental_des_seconds),
            ),
            (
                "global_incremental_speedup".into(),
                num(self.global_incremental_speedup),
            ),
            ("repeats".into(), num(self.repeats as f64)),
            (
                "flow_sim_repeat_seconds".into(),
                num(self.flow_sim_repeat_seconds),
            ),
            (
                "cached_repeat_seconds".into(),
                num(self.cached_repeat_seconds),
            ),
            ("cached_speedup".into(), num(self.cached_speedup)),
            (
                "analytic_repeat_seconds".into(),
                num(self.analytic_repeat_seconds),
            ),
        ])
    }

    /// Writes the manifest, creating parent directories as needed.
    pub fn save(&self, path: impl AsRef<Path>, quick: bool) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_json(quick).pretty())
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        format!(
            "backend perf:\n\
             \x20 EP-group dispatch ({}x{}, {} flows)  full-recompute {:>9.3} ms  incremental {:>9.3} ms  speedup {:>6.1}x\n\
             \x20 uniform a2a (6x6, {} flows)          full-recompute {:>9.3} ms  incremental {:>9.3} ms  speedup {:>6.1}x\n\
             \x20 {}x engine-layer a2a pricings        flow-sim {:>15.3} ms  cached      {:>9.3} ms  speedup {:>6.1}x\n\
             \x20 analytic same pricings {:>37.3} ms",
            self.mesh_n,
            self.mesh_n,
            self.grouped_flows,
            self.grouped_full_des_seconds * 1e3,
            self.grouped_incremental_des_seconds * 1e3,
            self.incremental_speedup,
            self.global_flows,
            self.global_full_des_seconds * 1e3,
            self.global_incremental_des_seconds * 1e3,
            self.global_incremental_speedup,
            self.repeats,
            self.flow_sim_repeat_seconds * 1e3,
            self.cached_repeat_seconds * 1e3,
            self.cached_speedup,
            self.analytic_repeat_seconds * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_dispatch_stays_group_local() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let flows = grouped_dispatch_flows(&topo, 1.0e6);
        // 4 groups of 4 devices, 12 ordered pairs each.
        assert_eq!(flows.len(), 4 * 12);
        // Every route stays inside a 2×2 block: at most 2 hops.
        assert!(flows
            .iter()
            .all(|f| f.route.hops() <= 2 && !f.route.is_empty()));
    }

    #[test]
    fn manifest_has_the_gated_ratios() {
        let perf = BackendPerf {
            mesh_n: 8,
            grouped_flows: 192,
            grouped_full_des_seconds: 1.0,
            grouped_incremental_des_seconds: 0.1,
            incremental_speedup: 10.0,
            global_flows: 1260,
            global_full_des_seconds: 1.0,
            global_incremental_des_seconds: 0.5,
            global_incremental_speedup: 2.0,
            repeats: 50,
            flow_sim_repeat_seconds: 2.0,
            cached_repeat_seconds: 0.05,
            cached_speedup: 40.0,
            analytic_repeat_seconds: 0.01,
        };
        let json = perf.to_json(true);
        assert_eq!(
            json.get("incremental_speedup").and_then(Value::as_f64),
            Some(10.0)
        );
        assert_eq!(
            json.get("cached_speedup").and_then(Value::as_f64),
            Some(40.0)
        );
        assert!(perf.summary().contains("speedup"));
    }
}
