//! Expert Sharding Parallelism (paper §VI-B5, Fig. 14a).
//!
//! Models with few but large experts (DBRX, Mixtral) can slice each expert
//! across an *ESP group* of devices. The communication pattern changes:
//! tokens must be **gathered by every member** of their expert's ESP group
//! (each member holds only a slice of the weights), and the members'
//! partial outputs are **all-reduced** within the group.
//!
//! Under ER-Mapping the natural ESP group is the FTD: all TP groups' tokens
//! already reside inside each FTD after the attention all-gather, so the
//! cross-mesh token all-to-all is eliminated and only the intra-group
//! all-reduce remains. On GPU clusters the ESP group is the node.

use wsc_collectives::{ring_all_reduce, Ring};
use wsc_sim::{AnalyticEstimate, AnalyticModel, CongestionModel, FlowSchedule};
use wsc_topology::{DeviceId, RouteTable, Topology};

use crate::comm::ParallelLayout;
use crate::mapping::MappingPlan;

/// Communication estimate for one MoE layer under ESP.
#[derive(Clone, Debug)]
pub struct EspEstimate {
    /// Token gather into the ESP groups.
    pub gather: AnalyticEstimate,
    /// Partial-sum all-reduce within each ESP group, seconds.
    pub reduce_time: f64,
}

impl EspEstimate {
    /// Total ESP communication time.
    pub fn total_time(&self) -> f64 {
        self.gather.total_time + self.reduce_time
    }
}

/// The canonical ESP groups for a wafer mapping: its FTDs.
pub fn esp_groups_from_plan(plan: &MappingPlan) -> Vec<Vec<DeviceId>> {
    plan.ftds().iter().map(|f| f.devices().to_vec()).collect()
}

/// ESP groups for a switch cluster: one group per run of `group_size`
/// consecutive devices (a node for DGX).
///
/// # Panics
///
/// Panics if `group_size` is zero or does not divide the device count.
pub fn esp_groups_by_node(topo: &Topology, group_size: usize) -> Vec<Vec<DeviceId>> {
    assert!(group_size > 0, "group size must be positive");
    assert_eq!(
        topo.num_devices() % group_size,
        0,
        "groups must tile devices"
    );
    (0..topo.num_devices() / group_size)
        .map(|g| {
            (0..group_size)
                .map(|r| DeviceId((g * group_size + r) as u32))
                .collect()
        })
        .collect()
}

/// Prices one layer's ESP communication: every ESP group receives an equal
/// share of the routed tokens; each member gathers the full share, then the
/// group all-reduces its partial outputs.
///
/// `layout` provides token sources (where each TP group's tokens live).
pub fn esp_estimate(
    topo: &Topology,
    table: &RouteTable,
    layout: &dyn ParallelLayout,
    esp_groups: &[Vec<DeviceId>],
    tokens_per_group: u32,
    top_k: u32,
    token_bytes: f64,
) -> EspEstimate {
    let num_tp_groups = layout.num_groups();
    // Tokens routed to each ESP group, from each TP group.
    let tokens_per_esp_from_tp = tokens_per_group as f64 * top_k as f64 / esp_groups.len() as f64;
    let bytes_per_esp_from_tp = tokens_per_esp_from_tp * token_bytes;

    // Gather: every member of the ESP group fetches every TP group's share.
    let mut pairs: Vec<(DeviceId, DeviceId, f64)> = Vec::new();
    for group in esp_groups {
        for &member in group {
            for g in 0..num_tp_groups {
                for source in layout.token_sources(topo, g, member) {
                    if source.device != member {
                        pairs.push((
                            source.device,
                            member,
                            bytes_per_esp_from_tp * source.fraction,
                        ));
                    }
                }
            }
        }
    }
    let analytic = AnalyticModel::new(topo);
    let gather = analytic.price_pairs(table, &pairs);

    // All-reduce of partial outputs within each ESP group.
    let reduce_bytes = tokens_per_esp_from_tp * num_tp_groups as f64 * token_bytes;
    let schedules: Vec<FlowSchedule> = esp_groups
        .iter()
        .filter(|g| g.len() >= 2)
        .map(|g| ring_all_reduce(topo, &Ring::new(g.clone()), reduce_bytes))
        .collect();
    let reduce_time = if schedules.is_empty() {
        0.0
    } else {
        analytic
            .price_schedule(&FlowSchedule::merge_lockstep(schedules.iter()))
            .total_time
    };

    EspEstimate {
        gather,
        reduce_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ClusterLayout;
    use crate::mapping::{ErMapping, TpShape};
    use wsc_topology::{DgxCluster, Mesh, PlatformParams};

    #[test]
    fn er_ftd_esp_gather_is_cheap() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let groups = esp_groups_from_plan(&plan);
        let est = esp_estimate(&topo, &table, &plan, &groups, 256, 2, 12288.0);
        // Gather stays within 2x2 FTDs: max 2 hops.
        assert!(est.gather.max_hops <= 2);
        assert!(est.reduce_time > 0.0);
    }

    #[test]
    fn gpu_esp_gather_crosses_nodes() {
        let topo = DgxCluster::new(4, PlatformParams::dgx_b200()).build();
        let table = RouteTable::build(&topo);
        let layout = ClusterLayout::new(&topo, 8);
        let groups = esp_groups_by_node(&topo, 8);
        let est = esp_estimate(&topo, &table, &layout, &groups, 256, 2, 12288.0);
        assert!(est.gather.max_hops >= 2);
        assert!(est.total_time() > 0.0);
    }

    #[test]
    fn wsc_esp_beats_gpu_esp() {
        // The Fig. 14a headline: WSC outperforms DGX by ~50% under ESP.
        let gpu_topo = DgxCluster::new(4, PlatformParams::dgx_b200()).build();
        let gpu_table = RouteTable::build(&gpu_topo);
        let gpu_layout = ClusterLayout::new(&gpu_topo, 8);
        let gpu = esp_estimate(
            &gpu_topo,
            &gpu_table,
            &gpu_layout,
            &esp_groups_by_node(&gpu_topo, 8),
            256,
            2,
            12288.0,
        );

        let wsc_topo = Mesh::new(6, PlatformParams::dojo_like()).build();
        let wsc_table = RouteTable::build(&wsc_topo);
        let plan = ErMapping::new(wsc_topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let wsc = esp_estimate(
            &wsc_topo,
            &wsc_table,
            &plan,
            &esp_groups_from_plan(&plan),
            256,
            2,
            12288.0,
        );
        assert!(
            wsc.total_time() < gpu.total_time(),
            "wsc {} vs gpu {}",
            wsc.total_time(),
            gpu.total_time()
        );
    }
}
