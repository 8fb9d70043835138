//! Two-level (hierarchical) all-reduce for switch-based clusters.
//!
//! The DGX baseline accelerates cross-node collectives the way
//! DeepSpeed-MoE does (paper §VI-B): reduce-scatter inside each node over
//! NVLink, all-reduce the shards across nodes over InfiniBand, then
//! all-gather inside each node. Only `1/local` of the buffer crosses the
//! slow inter-node links.

use wsc_sim::FlowSchedule;
use wsc_topology::{DeviceId, Topology};

use crate::ring::{ring_all_gather, ring_all_reduce, ring_reduce_scatter, Ring};

/// Builds a hierarchical all-reduce over `group`, treating devices that
/// share a node (per `node_of`) as one tier.
///
/// * If the whole group lives on one node (or `group` spans a single tier),
///   this degenerates to a flat ring all-reduce.
/// * Otherwise: intra-node reduce-scatter → per-shard inter-node ring
///   all-reduce (each local rank joins a ring with its peers on other
///   nodes) → intra-node all-gather.
///
/// `bytes_per_device` is the full buffer size on each member.
///
/// # Panics
///
/// Panics if `group` has fewer than two devices or nodes have unequal
/// member counts.
pub fn hierarchical_all_reduce(
    topo: &Topology,
    group: &[DeviceId],
    bytes_per_device: f64,
    node_of: impl Fn(DeviceId) -> u16,
) -> FlowSchedule {
    assert!(group.len() >= 2, "group needs at least two devices");

    // Partition the group by node, preserving order.
    let mut nodes: Vec<(u16, Vec<DeviceId>)> = Vec::new();
    for &d in group {
        let n = node_of(d);
        match nodes.iter_mut().find(|(id, _)| *id == n) {
            Some((_, members)) => members.push(d),
            None => nodes.push((n, vec![d])),
        }
    }

    if nodes.len() == 1 {
        return ring_all_reduce(topo, &Ring::new(group.to_vec()), bytes_per_device);
    }
    let local = nodes[0].1.len();
    assert!(
        nodes.iter().all(|(_, m)| m.len() == local),
        "nodes must contribute equal member counts"
    );

    let mut schedule = FlowSchedule::new();
    let append = |schedule: &mut FlowSchedule, other: FlowSchedule| {
        for phase in other.phases() {
            schedule.push_phase(phase.label.clone(), phase.flows.clone());
        }
    };

    // Stage 1: intra-node reduce-scatter (skipped for single-member nodes).
    if local > 1 {
        let stages: Vec<FlowSchedule> = nodes
            .iter()
            .map(|(_, members)| {
                ring_reduce_scatter(topo, &Ring::new(members.clone()), bytes_per_device)
            })
            .collect();
        append(&mut schedule, FlowSchedule::merge_lockstep(stages.iter()));
    }

    // Stage 2: inter-node all-reduce of each shard. Rank r of every node
    // forms a ring; all rings run concurrently over the uplinks.
    let shard = bytes_per_device / local as f64;
    let inter: Vec<FlowSchedule> = (0..local)
        .map(|r| {
            let ring: Vec<DeviceId> = nodes.iter().map(|(_, m)| m[r]).collect();
            ring_all_reduce(topo, &Ring::new(ring), shard)
        })
        .collect();
    append(&mut schedule, FlowSchedule::merge_lockstep(inter.iter()));

    // Stage 3: intra-node all-gather.
    if local > 1 {
        let stages: Vec<FlowSchedule> = nodes
            .iter()
            .map(|(_, members)| {
                ring_all_gather(topo, &Ring::new(members.clone()), bytes_per_device)
            })
            .collect();
        append(&mut schedule, FlowSchedule::merge_lockstep(stages.iter()));
    }

    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_sim::{CongestionModel, FlowSimBackend};
    use wsc_topology::{DgxCluster, Location, PlatformParams};

    fn node_of(topo: &Topology) -> impl Fn(DeviceId) -> u16 + '_ {
        |d| match topo.location(d) {
            Location::Cluster { node, .. } => node,
            Location::Mesh { .. } => 0,
        }
    }

    #[test]
    fn single_node_degenerates_to_flat_ring() {
        let topo = DgxCluster::new(1, PlatformParams::dgx_b200()).build();
        let group: Vec<DeviceId> = topo.devices().collect();
        let sched = hierarchical_all_reduce(&topo, &group, 1.0e6, node_of(&topo));
        assert_eq!(sched.num_phases(), 2 * (8 - 1));
    }

    #[test]
    fn hierarchical_beats_flat_ring_across_nodes() {
        let topo = DgxCluster::new(4, PlatformParams::dgx_b200()).build();
        let group: Vec<DeviceId> = topo.devices().collect();
        let bytes = 64.0e6;
        let hier = hierarchical_all_reduce(&topo, &group, bytes, node_of(&topo));
        let flat = ring_all_reduce(&topo, &Ring::new(group), bytes);
        let des = FlowSimBackend::new(&topo);
        let (hier, flat) = (des.price_schedule(&hier), des.price_schedule(&flat));
        assert!(
            hier.total_time < flat.total_time,
            "hierarchical {} vs flat {}",
            hier.total_time,
            flat.total_time
        );
    }

    #[test]
    fn cross_node_group_with_one_member_per_node() {
        let topo = DgxCluster::new(4, PlatformParams::dgx_b200()).build();
        // One GPU per node: stage 1 and 3 vanish.
        let group = vec![DeviceId(0), DeviceId(8), DeviceId(16), DeviceId(24)];
        let sched = hierarchical_all_reduce(&topo, &group, 1.0e6, node_of(&topo));
        assert_eq!(sched.num_phases(), 2 * (4 - 1));
    }

    #[test]
    #[should_panic(expected = "equal member counts")]
    fn unbalanced_nodes_rejected() {
        let topo = DgxCluster::new(2, PlatformParams::dgx_b200()).build();
        let group = vec![DeviceId(0), DeviceId(1), DeviceId(8)];
        hierarchical_all_reduce(&topo, &group, 1.0, node_of(&topo));
    }
}
