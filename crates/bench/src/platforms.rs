//! Platform constructors and communication measurement helpers shared by
//! the figure experiments.

use moe_model::{ModelConfig, Precision};
use moe_workload::LayerGating;
use moentwine_core::comm::{A2aModel, ParallelLayout};
use moentwine_core::mapping::MappingPlan;
use moentwine_core::placement::ExpertPlacement;
use moentwine_spec::{MappingSpec, PlatformSpec};
use wsc_sim::CongestionBackend;
use wsc_topology::{RouteTable, Topology};

/// A topology plus its precomputed route table. All constructors go
/// through the declarative [`PlatformSpec`] layer, so every figure uses
/// exactly the platforms a scenario file can name.
pub struct Platform {
    /// The interconnect.
    pub topo: Topology,
    /// All-pairs routes.
    pub table: RouteTable,
}

impl Platform {
    /// Materializes a [`PlatformSpec`].
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec (zero extents) — a programming error in
    /// a figure.
    pub fn from_spec(spec: &PlatformSpec) -> Self {
        let (topo, table) = spec.materialize().expect("valid platform spec");
        Platform { topo, table }
    }

    /// Single wafer `n × n`.
    pub fn wsc(n: u16) -> Self {
        Self::from_spec(&PlatformSpec::wsc(n))
    }

    /// Multi-wafer grid.
    pub fn multi_wsc(wafers_x: u16, wafers_y: u16, n: u16) -> Self {
        Self::from_spec(&PlatformSpec::multi_wsc(wafers_x, wafers_y, n))
    }

    /// DGX cluster of `nodes` 8-GPU boxes.
    pub fn dgx(nodes: u16) -> Self {
        Self::from_spec(&PlatformSpec::dgx(nodes))
    }

    /// NVL72 supernode.
    pub fn nvl72() -> Self {
        Self::from_spec(&PlatformSpec::Nvl72)
    }
}

/// Which WSC mapping to construct.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WscMapping {
    /// Corner-block baseline.
    Baseline,
    /// Entwined Ring Mapping.
    Er,
    /// Hierarchical ER (multi-wafer).
    Her,
}

/// Builds a mapping plan for a WSC platform with total TP degree `tp`,
/// through the declarative [`MappingSpec`] layer.
///
/// # Panics
///
/// Panics if the TP degree does not tile the platform.
pub fn wsc_plan(platform: &Platform, tp: usize, mapping: WscMapping) -> MappingPlan {
    let spec = match mapping {
        WscMapping::Baseline => MappingSpec::Baseline { tp },
        WscMapping::Er => MappingSpec::Er { tp },
        WscMapping::Her => MappingSpec::Her { tp },
    };
    match spec.layout(&platform.topo).expect("TP tiles platform") {
        moentwine_spec::Layout::Plan(plan) => plan,
        moentwine_spec::Layout::Cluster(_) => unreachable!("WSC mappings produce plans"),
    }
}

/// A balanced gating outcome: every expert receives an equal share of each
/// group's `tokens × top_k` selections (remainders spread round-robin).
pub fn balanced_gating(groups: usize, experts: usize, tokens: u32, top_k: u32) -> LayerGating {
    let selections = tokens as u64 * top_k as u64;
    let base = (selections / experts as u64) as u32;
    let rem = (selections % experts as u64) as usize;
    let counts = (0..groups)
        .map(|_| {
            (0..experts)
                .map(|e| base + u32::from(e < rem))
                .collect::<Vec<_>>()
        })
        .collect();
    LayerGating { counts }
}

/// Attention all-reduce + MoE all-to-all latency for one layer under
/// balanced gating.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CommLatency {
    /// All-reduce time, seconds.
    pub all_reduce: f64,
    /// Dispatch + combine time, seconds.
    pub all_to_all: f64,
    /// Per-hop link latency share of the all-to-all (decode-relevant).
    pub link_latency_share: f64,
}

impl CommLatency {
    /// Total communication time.
    pub fn total(&self) -> f64 {
        self.all_reduce + self.all_to_all
    }
}

/// Measures one layer's communication for any layout (WSC mapping or GPU
/// cluster) with balanced gating of `tokens_per_group` tokens per group,
/// priced through `backend` like every other consumer of the congestion
/// model (`CongestionBackend::FlowSim` for the DES, `Analytic` for the
/// bottleneck model).
pub fn comm_latency(
    platform: &Platform,
    layout: &dyn ParallelLayout,
    model: &ModelConfig,
    tokens_per_group: u32,
    backend: CongestionBackend,
) -> CommLatency {
    let topo = &platform.topo;
    let pricer = backend.build(topo);
    let token_bytes = model.token_bytes(Precision::Fp16);
    let ar_bytes = tokens_per_group as f64 * token_bytes;
    let all_reduce = pricer
        .price_schedule(&layout.all_reduce_schedule(topo, ar_bytes))
        .total_time;

    let placement = ExpertPlacement::balanced(model.num_experts as usize, topo.num_devices(), 1);
    let gating = balanced_gating(
        layout.num_groups(),
        model.num_experts as usize,
        tokens_per_group,
        model.experts_per_token,
    );
    let est = A2aModel::new(topo, &platform.table, layout).estimate_with(
        &*pricer,
        &gating,
        &placement,
        token_bytes,
        tokens_per_group,
    );
    let all_to_all = est.total_time();
    let latency_part = est.dispatch.latency_time + est.combine.latency_time;
    CommLatency {
        all_reduce,
        all_to_all,
        link_latency_share: if all_to_all > 0.0 {
            latency_part / all_to_all
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moentwine_core::comm::ClusterLayout;

    #[test]
    fn balanced_gating_conserves_selections() {
        let g = balanced_gating(3, 7, 100, 4);
        for group in &g.counts {
            let sum: u64 = group.iter().map(|&c| c as u64).sum();
            assert_eq!(sum, 400);
        }
    }

    #[test]
    fn des_and_analytic_agree_on_small_mesh() {
        let platform = Platform::wsc(4);
        let plan = wsc_plan(&platform, 4, WscMapping::Er);
        let model = ModelConfig::qwen3_235b();
        let des = comm_latency(&platform, &plan, &model, 256, CongestionBackend::FlowSim);
        let analytic = comm_latency(&platform, &plan, &model, 256, CongestionBackend::Analytic);
        // AR is phase-synchronous: exact agreement. A2A: analytic is a
        // bottleneck bound; allow a 2x band.
        assert!((des.all_reduce - analytic.all_reduce).abs() / des.all_reduce < 1e-6);
        let ratio = des.all_to_all / analytic.all_to_all;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn wsc_beats_dgx_at_same_scale() {
        // Fig. 13's headline: the unified wafer network beats DGX clusters.
        let wsc = Platform::wsc(6);
        let plan = wsc_plan(&wsc, 4, WscMapping::Baseline);
        let model = ModelConfig::qwen3_235b();
        let wsc_comm = comm_latency(&wsc, &plan, &model, 256, CongestionBackend::Analytic);

        let dgx = Platform::dgx(4);
        let layout = ClusterLayout::new(&dgx.topo, 8);
        let dgx_comm = comm_latency(&dgx, &layout, &model, 256, CongestionBackend::Analytic);
        assert!(
            wsc_comm.total() < dgx_comm.total(),
            "wsc {} vs dgx {}",
            wsc_comm.total(),
            dgx_comm.total()
        );
    }
}
