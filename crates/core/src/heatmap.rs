//! Hot/cold link analysis (paper Fig. 11).
//!
//! The NI-Balancer's correctness argument rests on the observation that the
//! attention all-reduce and the MoE all-to-all stress **complementary**
//! subsets of the mesh links under ER-Mapping: all-reduce traffic
//! concentrates on the multi-hop ring legs crossing FTD boundaries, while
//! all-to-all traffic is confined within FTDs. This module measures that
//! complementarity for any mapping.

use moe_workload::LayerGating;
use wsc_sim::{AnalyticModel, CongestionModel};
use wsc_topology::{LinkId, RouteTable, Topology};

use crate::comm::{A2aModel, ParallelLayout};
use crate::mapping::MappingPlan;
use crate::placement::ExpertPlacement;

/// Fraction of the per-phase maximum link volume above which a link counts
/// as **hot**. The paper's Fig. 11 distinguishes links with "constant
/// activity" (e.g. entwined-ring legs used in *both* parity sub-phases,
/// carrying 2× the volume of single-parity legs) from links that "work for
/// one cycle and then remain idle for the next" — a 0.75 threshold cleanly
/// separates the two populations.
pub const HOT_FRACTION: f64 = 0.75;

/// Per-phase link volumes and their overlap statistics.
#[derive(Clone, Debug)]
pub struct PhaseHeatmaps {
    /// Bytes per link during the attention all-reduce.
    pub all_reduce: Vec<f64>,
    /// Bytes per link during MoE dispatch + combine.
    pub all_to_all: Vec<f64>,
    /// `|hot_AR ∩ hot_A2A| / |hot_AR ∪ hot_A2A|` (Jaccard overlap of the
    /// hot-link sets).
    pub overlap: f64,
}

impl PhaseHeatmaps {
    /// `1 − overlap`: 1.0 means the phases' hot links are perfectly
    /// complementary (the property NI-Balancer exploits).
    pub fn complementarity(&self) -> f64 {
        1.0 - self.overlap
    }

    /// Links at least half-idle during the all-reduce phase (candidates for
    /// Local migration).
    pub fn cold_in_all_reduce(&self) -> Vec<LinkId> {
        cold_links(&self.all_reduce)
    }

    /// Links at least half-idle during the all-to-all phase (candidates for
    /// Global migration).
    pub fn cold_in_all_to_all(&self) -> Vec<LinkId> {
        cold_links(&self.all_to_all)
    }
}

fn hot_mask(volume: &[f64]) -> Vec<bool> {
    let max = volume.iter().copied().fold(0.0, f64::max);
    if max <= 0.0 {
        return vec![false; volume.len()];
    }
    volume.iter().map(|&v| v > HOT_FRACTION * max).collect()
}

fn cold_links(volume: &[f64]) -> Vec<LinkId> {
    hot_mask(volume)
        .into_iter()
        .enumerate()
        .filter(|&(_, hot)| !hot)
        .map(|(i, _)| LinkId(i as u32))
        .collect()
}

/// Measures both phases' link volumes for `plan` with balanced gating of
/// `tokens_per_group` tokens per group (`top_k` selections each).
pub fn phase_heatmaps(
    topo: &Topology,
    table: &RouteTable,
    plan: &MappingPlan,
    tokens_per_group: u32,
    top_k: u32,
    token_bytes: f64,
    num_experts: usize,
) -> PhaseHeatmaps {
    // All-reduce volumes from the schedule.
    let ar_bytes = tokens_per_group as f64 * token_bytes;
    let sched = plan.all_reduce_schedule(topo, ar_bytes);
    let ar = AnalyticModel::new(topo).price_schedule(&sched).link_volume;

    // All-to-all volumes from a balanced gating outcome.
    let placement = ExpertPlacement::balanced(num_experts, topo.num_devices(), 1);
    let per_expert = (tokens_per_group as u64 * top_k as u64 / num_experts as u64).max(1) as u32;
    let gating = LayerGating {
        counts: vec![vec![per_expert; num_experts]; plan.num_groups()],
    };
    let model = A2aModel::new(topo, table, plan);
    let est = model.estimate(&gating, &placement, token_bytes, tokens_per_group);
    let a2a: Vec<f64> = est
        .dispatch
        .link_volume
        .iter()
        .zip(&est.combine.link_volume)
        .map(|(a, b)| a + b)
        .collect();

    let mut both = 0usize;
    let mut either = 0usize;
    for (bx, by) in hot_mask(&ar).into_iter().zip(hot_mask(&a2a)) {
        if bx && by {
            both += 1;
        }
        if bx || by {
            either += 1;
        }
    }
    let overlap = if either == 0 {
        0.0
    } else {
        both as f64 / either as f64
    };
    PhaseHeatmaps {
        all_reduce: ar,
        all_to_all: a2a,
        overlap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{BaselineMapping, ErMapping, TpShape};
    use wsc_topology::{Mesh, PlatformParams};

    fn heatmap_for(er: bool) -> (Topology, PhaseHeatmaps) {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let dims = topo.mesh_dims().unwrap();
        let plan = if er {
            ErMapping::new(dims, TpShape::new(2, 2)).unwrap().plan()
        } else {
            BaselineMapping::new(dims, TpShape::new(2, 2))
                .unwrap()
                .plan()
        };
        let hm = phase_heatmaps(&topo, &table, &plan, 256, 8, 2048.0, 16);
        (topo, hm)
    }

    #[test]
    fn er_phases_are_mostly_complementary() {
        let (_, hm) = heatmap_for(true);
        assert!(
            hm.complementarity() > 0.5,
            "ER overlap too high: {}",
            hm.overlap
        );
    }

    #[test]
    fn er_more_complementary_than_baseline() {
        let (_, er) = heatmap_for(true);
        let (_, base) = heatmap_for(false);
        assert!(
            er.complementarity() >= base.complementarity(),
            "er {} vs baseline {}",
            er.complementarity(),
            base.complementarity()
        );
    }

    #[test]
    fn cold_sets_exist_in_both_phases() {
        let (topo, hm) = heatmap_for(true);
        assert!(!hm.cold_in_all_reduce().is_empty());
        assert!(!hm.cold_in_all_to_all().is_empty());
        assert!(hm.cold_in_all_reduce().len() < topo.num_links());
    }
}
