//! All-to-all (dispatch / combine) schedules.

use serde::{Deserialize, Serialize};
use wsc_sim::{FlowSchedule, FlowSpec};
use wsc_topology::{DeviceId, Topology};

/// One point-to-point transfer of an all-to-all exchange.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Transfer {
    /// Sending device.
    pub src: DeviceId,
    /// Receiving device.
    pub dst: DeviceId,
    /// Payload bytes.
    pub bytes: f64,
}

impl Transfer {
    /// Creates a transfer.
    pub fn new(src: DeviceId, dst: DeviceId, bytes: f64) -> Self {
        Transfer { src, dst, bytes }
    }
}

/// Schedules the whole exchange as one concurrent phase.
///
/// This matches how MoE dispatch kernels behave in practice: every device
/// posts all its sends at once and the fabric arbitrates. Congestion then
/// emerges from the flow-level simulation (or the bottleneck term of the
/// analytical model) rather than from the schedule.
pub fn all_to_all_concurrent(topo: &Topology, transfers: &[Transfer]) -> FlowSchedule {
    let mut schedule = FlowSchedule::new();
    let flows = transfers
        .iter()
        .filter(|t| t.bytes > 0.0 && t.src != t.dst)
        .map(|t| FlowSpec::new(topo.route(t.src, t.dst), t.bytes))
        .collect();
    schedule.push_phase("a2a", flows);
    schedule
}

/// Schedules the exchange in `num_phases` stride-phased rounds: transfer
/// `(src, dst)` goes in round `(dst - src) mod num_phases`. Spreading the
/// permutation classes reduces transient hot-spotting on switch-based
/// fabrics at the cost of barrier overhead.
///
/// # Panics
///
/// Panics if `num_phases == 0`.
pub fn all_to_all_phased(
    topo: &Topology,
    transfers: &[Transfer],
    num_phases: usize,
) -> FlowSchedule {
    assert!(num_phases > 0, "need at least one phase");
    let mut buckets: Vec<Vec<FlowSpec>> = vec![Vec::new(); num_phases];
    let n = topo.num_devices() as i64;
    for t in transfers {
        if t.bytes <= 0.0 || t.src == t.dst {
            continue;
        }
        let stride = (t.dst.0 as i64 - t.src.0 as i64).rem_euclid(n) as usize;
        buckets[stride % num_phases].push(FlowSpec::new(topo.route(t.src, t.dst), t.bytes));
    }
    let mut schedule = FlowSchedule::new();
    for (i, flows) in buckets.into_iter().enumerate() {
        if !flows.is_empty() {
            schedule.push_phase(format!("a2a-round{i}"), flows);
        }
    }
    schedule
}

/// Builds the full uniform all-to-all transfer matrix: every device sends
/// `bytes_per_pair` to every other device. A convenient workload for
/// topology stress tests.
pub fn uniform_all_to_all_matrix(topo: &Topology, bytes_per_pair: f64) -> Vec<Transfer> {
    let mut transfers = Vec::new();
    for src in topo.devices() {
        for dst in topo.devices() {
            if src != dst {
                transfers.push(Transfer::new(src, dst, bytes_per_pair));
            }
        }
    }
    transfers
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_sim::{CongestionModel, FlowSimBackend};
    use wsc_topology::{DgxCluster, Mesh, PlatformParams};

    #[test]
    fn concurrent_drops_empty_and_local() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let sched = all_to_all_concurrent(
            &topo,
            &[
                Transfer::new(a, b, 10.0),
                Transfer::new(a, a, 999.0),
                Transfer::new(b, a, 0.0),
            ],
        );
        assert_eq!(sched.phases()[0].flows.len(), 1);
    }

    #[test]
    fn uniform_matrix_size() {
        let topo = Mesh::new(3, PlatformParams::dojo_like()).build();
        let m = uniform_all_to_all_matrix(&topo, 1.0);
        assert_eq!(m.len(), 9 * 8);
    }

    #[test]
    fn phased_covers_all_transfers() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let m = uniform_all_to_all_matrix(&topo, 7.0);
        let sched = all_to_all_phased(&topo, &m, 3);
        let total: f64 = sched.total_bytes();
        assert!((total - 7.0 * 12.0).abs() < 1e-9);
        assert!(sched.num_phases() <= 3);
    }

    #[test]
    fn mesh_center_congestion_exceeds_edge() {
        // Uniform all-to-all on a mesh loads central links more than corner
        // links — the congestion phenomenon of paper §III-B. Under XY
        // routing on 6×6 the central x-link carries 3·3·6 flows vs 1·5·6 on
        // the edge (1.8×).
        let topo = Mesh::new(6, PlatformParams::dojo_like()).build();
        let m = uniform_all_to_all_matrix(&topo, 1.0e6);
        let sched = all_to_all_concurrent(&topo, &m);
        let volume = FlowSimBackend::new(&topo)
            .price_schedule(&sched)
            .link_volume;
        // Central horizontal link (2,2)->(3,2) vs edge link (0,0)->(1,0).
        let center_src = topo.device_at_xy(2, 2).unwrap();
        let center_dst = topo.device_at_xy(3, 2).unwrap();
        let edge_src = topo.device_at_xy(0, 0).unwrap();
        let edge_dst = topo.device_at_xy(1, 0).unwrap();
        let center_link = topo
            .link_between(topo.device_node(center_src), topo.device_node(center_dst))
            .unwrap();
        let edge_link = topo
            .link_between(topo.device_node(edge_src), topo.device_node(edge_dst))
            .unwrap();
        assert!(volume[center_link.index()] > 1.5 * volume[edge_link.index()]);
    }

    #[test]
    fn dgx_inter_node_a2a_bottlenecked_by_infiniband() {
        let params = PlatformParams::dgx_b200();
        let topo = DgxCluster::new(2, params).build();
        let m = uniform_all_to_all_matrix(&topo, 1.0e6);
        let sched = all_to_all_concurrent(&topo, &m);
        let t = FlowSimBackend::new(&topo).price_schedule(&sched).total_time;
        // 8 GPUs × 8 peers × 1 MB cross the single 400 GB/s uplink each way.
        let ib_bytes = 8.0 * 8.0 * 1.0e6;
        let lower_bound = ib_bytes / params.infiniband_bw;
        assert!(t > lower_bound, "{t} vs {lower_bound}");
    }
}
