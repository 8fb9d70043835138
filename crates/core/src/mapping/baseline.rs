//! Baseline corner-block mapping (paper Fig. 8b).

use wsc_topology::{DeviceId, MeshDims};

use super::ftd::Ftd;
use super::{
    build_staggered_rings, grid_ring_order, MappingError, MappingKind, MappingPlan, TpShape,
};

/// The baseline mapping ported from GPU practice: each TP group occupies a
/// contiguous `TPx × TPy` block of dies, "each located in a separate corner
/// of the mesh".
///
/// All-reduce rings are 1-hop neighbour rings (cheap), but the Full Token
/// Domains — one device from each block, at matching intra-block offsets —
/// span almost the whole mesh and all overlap in the centre, which is what
/// makes baseline all-to-all expensive (paper Fig. 8b: 3×3-area FTDs,
/// average 2.7 hops, centre congestion).
///
/// # Example
///
/// ```
/// use moentwine_core::mapping::{BaselineMapping, TpShape};
/// use wsc_topology::{Mesh, PlatformParams};
///
/// let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
/// let plan = BaselineMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
///     .unwrap()
///     .plan();
/// let hops = plan.average_ftd_hops(&topo);
/// assert!((hops - 8.0 / 3.0).abs() < 1e-9); // paper: 2.7 hops
/// assert!(plan.ftd_intersections(&topo) > 0);
/// ```
#[derive(Clone, Debug)]
pub struct BaselineMapping {
    dims: MeshDims,
    tp: TpShape,
}

impl BaselineMapping {
    /// Creates the mapping for a mesh of `dims` with TP shape `tp`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::ShapeDoesNotTile`] if `tp` does not divide
    /// the global die grid, and [`MappingError::SingleDeviceGroup`] if it
    /// is one device.
    pub fn new(dims: MeshDims, tp: TpShape) -> Result<Self, MappingError> {
        let w = dims.wafers_x * dims.n;
        let h = dims.wafers_y * dims.n;
        if !w.is_multiple_of(tp.x) || !h.is_multiple_of(tp.y) {
            return Err(MappingError::ShapeDoesNotTile {
                shape: tp,
                n: dims.n,
            });
        }
        if tp.size() < 2 {
            return Err(MappingError::SingleDeviceGroup { shape: tp });
        }
        Ok(BaselineMapping { dims, tp })
    }

    /// Convenience constructor picking the TP shape via [`TpShape::factor`].
    pub fn with_tp_degree(dims: MeshDims, tp: usize) -> Result<Self, MappingError> {
        let shape = TpShape::factor(tp, dims.wafers_x * dims.n)?;
        Self::new(dims, shape)
    }

    /// Resolves the full mapping plan.
    pub fn plan(&self) -> MappingPlan {
        let dims = self.dims;
        let tp = self.tp;
        let w = (dims.wafers_x * dims.n) as usize;
        let h = (dims.wafers_y * dims.n) as usize;
        let n = dims.n as usize;
        let blocks_x = w / tp.x as usize;
        let num_groups = blocks_x * (h / tp.y as usize);
        let num_ftds = tp.size();
        let num_devices = w * h;

        let dev = |gx: usize, gy: usize| {
            let (wx, x) = (gx / n, gx % n);
            let (wy, y) = (gy / n, gy % n);
            DeviceId(((wy * dims.wafers_x as usize + wx) * n * n + y * n + x) as u32)
        };

        let mut groups = vec![vec![DeviceId(0); tp.size()]; num_groups];
        let mut group_of = vec![(0usize, 0usize); num_devices];
        let mut ftd_members = vec![vec![DeviceId(0); num_groups]; num_ftds];
        let mut ftd_of = vec![0usize; num_devices];

        for gy in 0..h {
            for gx in 0..w {
                let d = dev(gx, gy);
                let (bx, by) = (gx / tp.x as usize, gy / tp.y as usize);
                let group = by * blocks_x + bx;
                let (i, j) = (gx % tp.x as usize, gy % tp.y as usize);
                let rank = j * tp.x as usize + i;
                groups[group][rank] = d;
                group_of[d.index()] = (group, rank);
                let ftd = j * tp.x as usize + i;
                ftd_members[ftd][group] = d;
                ftd_of[d.index()] = ftd;
            }
        }

        let ftds = ftd_members
            .into_iter()
            .enumerate()
            .map(|(i, devices)| Ftd::new(i, devices))
            .collect();

        // Contiguous blocks: neighbour rings, no intersections, one parity.
        let order = grid_ring_order(tp.x as usize, tp.y as usize);
        let rings = build_staggered_rings(&groups, vec![0; num_groups], 1, &order, tp.x as usize);

        MappingPlan {
            kind: MappingKind::Baseline,
            dims,
            tp,
            groups,
            group_of,
            ftds,
            ftd_of,
            rings,
            inter_wafer_rings: Vec::new(),
            retain_all_gather: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_collectives::stagger::{phases_are_link_disjoint, staggered_ring_all_reduce};
    use wsc_topology::{Mesh, PlatformParams, Topology};

    fn mesh4() -> Topology {
        Mesh::new(4, PlatformParams::dojo_like()).build()
    }

    fn plan4() -> MappingPlan {
        BaselineMapping::new(
            Mesh::new(4, PlatformParams::dojo_like())
                .build()
                .mesh_dims()
                .unwrap(),
            TpShape::new(2, 2),
        )
        .unwrap()
        .plan()
    }

    #[test]
    fn one_device_groups_are_a_typed_error() {
        let dims = mesh4().mesh_dims().unwrap();
        let shape = TpShape::new(1, 1);
        assert_eq!(
            BaselineMapping::new(dims, shape).unwrap_err(),
            MappingError::SingleDeviceGroup { shape }
        );
        assert!(BaselineMapping::with_tp_degree(dims, 1).is_err());
    }

    #[test]
    fn a_single_group_has_no_ftd_hops() {
        let topo = mesh4();
        let plan = BaselineMapping::new(topo.mesh_dims().unwrap(), TpShape::new(4, 4))
            .unwrap()
            .plan();
        assert_eq!(plan.num_groups(), 1);
        assert_eq!(plan.average_ftd_hops(&topo), 0.0);
    }

    #[test]
    fn groups_are_contiguous_blocks() {
        let topo = mesh4();
        let plan = plan4();
        // Device (1,1) is in the top-left block = group 0.
        let d = topo.device_at_xy(1, 1).unwrap();
        assert_eq!(plan.group_of(d).0, 0);
        // Device (2,2) is in block (1,1) = group 3.
        let d = topo.device_at_xy(2, 2).unwrap();
        assert_eq!(plan.group_of(d).0, 3);
    }

    #[test]
    fn ftds_span_and_intersect() {
        // Paper Fig. 8(b): 3×3-area FTDs, all pairs overlapping.
        let topo = mesh4();
        let plan = plan4();
        for ftd in plan.ftds() {
            assert_eq!(ftd.area(&topo), 9);
        }
        assert_eq!(plan.ftd_intersections(&topo), 6); // all C(4,2) pairs
    }

    #[test]
    fn baseline_hops_exceed_er_hops() {
        let topo = mesh4();
        let base = plan4().average_ftd_hops(&topo);
        let er = super::super::ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan()
            .average_ftd_hops(&topo);
        // Paper: 2.7 vs 1.3 — a 2× reduction.
        assert!((base / er - 2.0).abs() < 1e-9, "{base} vs {er}");
    }

    #[test]
    fn neighbour_rings_are_conflict_free() {
        let topo = mesh4();
        let plan = plan4();
        let sched = staggered_ring_all_reduce(&topo, plan.rings(), 1.0e6);
        assert!(phases_are_link_disjoint(&sched, &topo));
    }

    #[test]
    fn every_device_in_exactly_one_ftd() {
        let topo = mesh4();
        let plan = plan4();
        let mut count = vec![0usize; topo.num_devices()];
        for ftd in plan.ftds() {
            for &d in ftd.devices() {
                count[d.index()] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }
}
