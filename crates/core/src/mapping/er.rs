//! Entwined Ring Mapping (paper Fig. 10a).

use wsc_topology::{DeviceId, MeshDims};

use super::ftd::Ftd;
use super::{
    build_staggered_rings, grid_ring_order, MappingError, MappingKind, MappingPlan, TpShape,
};

/// The Entwined Ring Mapping: TP groups are coordinate-modulus classes
/// (`TPGroup_{i,j} = {D_{x,y} | x mod a = i, y mod b = j}` with
/// `a = W/TPx`, `b = H/TPy`), so each contiguous `a × b` block of dies is a
/// Full Token Domain containing exactly one member of every group.
///
/// Compared to the baseline this shrinks FTDs (fewer token-fetch hops, no
/// FTD intersections) at the price of multi-hop, time-staggered all-reduce
/// rings.
///
/// Applied to a multi-wafer system this is the *pure* (non-hierarchical) ER
/// variant: coordinates are global, so rings cross wafer borders — the
/// expensive case that motivates [`HierarchicalErMapping`].
///
/// [`HierarchicalErMapping`]: super::HierarchicalErMapping
///
/// # Example
///
/// ```
/// use moentwine_core::mapping::{ErMapping, TpShape};
/// use wsc_topology::{Mesh, PlatformParams};
///
/// let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
/// let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
///     .unwrap()
///     .plan();
/// assert_eq!(plan.num_groups(), 4);
/// assert_eq!(plan.ftds().len(), 4);
/// assert_eq!(plan.ftd_intersections(&topo), 0);
/// ```
#[derive(Clone, Debug)]
pub struct ErMapping {
    dims: MeshDims,
    tp: TpShape,
}

impl ErMapping {
    /// Creates the mapping for a mesh of `dims` with TP shape `tp`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::ShapeDoesNotTile`] if `tp` does not divide
    /// the global die grid, and [`MappingError::NoConflictFreeRing`] if its
    /// groups cannot form link-disjoint staggered rings.
    pub fn new(dims: MeshDims, tp: TpShape) -> Result<Self, MappingError> {
        let w = dims.wafers_x * dims.n;
        let h = dims.wafers_y * dims.n;
        if !w.is_multiple_of(tp.x) || !h.is_multiple_of(tp.y) {
            return Err(MappingError::ShapeDoesNotTile {
                shape: tp,
                n: dims.n,
            });
        }
        check_entwined_ring(tp)?;
        Ok(ErMapping { dims, tp })
    }

    /// Convenience constructor picking the TP shape via
    /// [`TpShape::factor`] on the global grid.
    pub fn with_tp_degree(dims: MeshDims, tp: usize) -> Result<Self, MappingError> {
        // Factor against the global width (square systems in the paper).
        let shape = TpShape::factor(tp, dims.wafers_x * dims.n)?;
        Self::new(dims, shape)
    }

    /// Resolves the full mapping plan.
    pub fn plan(&self) -> MappingPlan {
        build_er_plan(self.dims, self.tp, MappingKind::EntwinedRing)
    }
}

/// Rejects a TP shape whose groups have no conflict-free staggered ring.
/// A group's ring visits its `x × y` member grid in `grid_ring_order`,
/// and every step of one ring transmits in the same parity sub-phase, so
/// the stagger separates rings but never a ring from itself. The ring is
/// link-disjoint only when every step is one stride: a two-member group
/// (which exchanges directly) or a grid with both extents above 1 and one
/// of them even (a snake cycle). A line of three or more members, or an
/// odd × odd grid (no Hamiltonian cycle: the grid graph is bipartite with
/// an odd vertex count), closes with a multi-stride hop over its own
/// steps' links; a single member has no ring.
pub(crate) fn check_entwined_ring(tp: TpShape) -> Result<(), MappingError> {
    let unit_cycle = tp.x > 1 && tp.y > 1 && (tp.x.is_multiple_of(2) || tp.y.is_multiple_of(2));
    if tp.size() == 2 || unit_cycle {
        Ok(())
    } else {
        Err(MappingError::NoConflictFreeRing { shape: tp })
    }
}

/// Shared ER construction, reused per-wafer by the hierarchical variant.
pub(crate) fn build_er_plan(dims: MeshDims, tp: TpShape, kind: MappingKind) -> MappingPlan {
    let w = (dims.wafers_x * dims.n) as usize;
    let h = (dims.wafers_y * dims.n) as usize;
    let n = dims.n as usize;
    let a = w / tp.x as usize;
    let b = h / tp.y as usize;
    let num_groups = a * b;
    let num_ftds = tp.size();
    let num_devices = w * h;

    // Device id from global coordinates (wafer-major, then row-major).
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
            let (i, j) = (gx % a, gy % b);
            let group = j * a + i;
            let (p, q) = (gx / a, gy / b);
            let rank = q * tp.x as usize + p;
            groups[group][rank] = d;
            group_of[d.index()] = (group, rank);
            let ftd = q * tp.x as usize + p;
            ftd_members[ftd][group] = d;
            ftd_of[d.index()] = ftd;
        }
    }

    let ftds = ftd_members
        .into_iter()
        .enumerate()
        .map(|(i, devices)| Ftd::new(i, devices))
        .collect();

    // Staggered rings: parity from the group's coordinate offset.
    let x_classes = if tp.x > 1 { a } else { 1 };
    let y_classes = if tp.y > 1 { b } else { 1 };
    let num_parities = x_classes.max(y_classes).max(1);
    let parity: Vec<usize> = (0..num_groups)
        .map(|g| {
            let (i, j) = (g % a, g / a);
            (i + j) % num_parities
        })
        .collect();
    let order = grid_ring_order(tp.x as usize, tp.y as usize);
    let rings = build_staggered_rings(&groups, parity, num_parities, &order, tp.x as usize);

    MappingPlan {
        kind,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::HierarchicalErMapping;
    use wsc_collectives::stagger::{phases_are_link_disjoint, staggered_ring_all_reduce};
    use wsc_topology::{Mesh, MultiWafer, PlatformParams};

    fn mesh4() -> wsc_topology::Topology {
        Mesh::new(4, PlatformParams::dojo_like()).build()
    }

    #[test]
    fn paper_example_ftd_hops() {
        // Paper Fig. 8(c): 2×2-area FTDs, average 1.33 hops.
        let topo = mesh4();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let hops = plan.average_ftd_hops(&topo);
        assert!((hops - 4.0 / 3.0).abs() < 1e-9, "{hops}");
    }

    #[test]
    fn ftds_are_compact_blocks() {
        let topo = mesh4();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        for ftd in plan.ftds() {
            assert_eq!(ftd.area(&topo), 4);
        }
        assert_eq!(plan.ftd_intersections(&topo), 0);
    }

    #[test]
    fn groups_are_modulus_classes() {
        let topo = mesh4();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        // Device (1,3): a=b=2 → group (1%2, 3%2) = (1,1) → index 1*2+1 = 3.
        let d = topo.device_at_xy(1, 3).unwrap();
        assert_eq!(plan.group_of(d).0, 3);
        // Every group has TP members.
        for g in plan.groups() {
            assert_eq!(g.len(), 4);
        }
    }

    #[test]
    fn every_ftd_has_one_member_per_group() {
        let topo = mesh4();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        for ftd in plan.ftds() {
            let mut seen = vec![false; plan.num_groups()];
            for &d in ftd.devices() {
                let (g, _) = plan.group_of(d);
                assert!(!seen[g], "group {g} twice in FTD {}", ftd.index());
                seen[g] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn er_rings_are_conflict_free() {
        let topo = mesh4();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let sched = staggered_ring_all_reduce(&topo, plan.rings(), 1.0e6);
        assert!(phases_are_link_disjoint(&sched, &topo));
    }

    #[test]
    fn er_rings_conflict_free_on_6x6_tp4() {
        // The paper's Fig. 11(c) case: 6×6 WSC, DP=9? No—DP=8,TP=4 uses a
        // 6x6 with TP=(2,2): a=b=3 ⇒ 9 groups. Verify the stagger holds.
        let topo = Mesh::new(6, PlatformParams::dojo_like()).build();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        assert_eq!(plan.num_groups(), 9);
        let sched = staggered_ring_all_reduce(&topo, plan.rings(), 1.0e6);
        assert!(phases_are_link_disjoint(&sched, &topo));
    }

    /// On 4×4, 6×6 and 8×8 wafers, every TP shape that tiles the wafer
    /// (a superset of `TpShape::factor`'s pick for every degree) is either
    /// rejected with the typed ring error or gets link-disjoint staggered
    /// rings; the TP 4 and TP 8 shapes the figures use are accepted.
    #[test]
    fn every_tiling_shape_is_rejected_or_link_disjoint() {
        for n in [4u16, 6, 8] {
            let topo = Mesh::new(n, PlatformParams::dojo_like()).build();
            let dims = topo.mesh_dims().unwrap();
            let divisors: Vec<u16> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
            let shapes: Vec<TpShape> = divisors
                .iter()
                .flat_map(|&x| divisors.iter().map(move |&y| TpShape::new(x, y)))
                .collect();
            for tp in 1..=(n as usize).pow(2) {
                if let Ok(shape) = TpShape::factor(tp, n) {
                    assert!(shapes.contains(&shape), "{shape} on {n}x{n}");
                }
            }
            for shape in shapes {
                match ErMapping::new(dims, shape) {
                    Ok(er) => {
                        let sched = staggered_ring_all_reduce(&topo, er.plan().rings(), 1.0e6);
                        assert!(
                            phases_are_link_disjoint(&sched, &topo),
                            "{shape} on {n}x{n}"
                        );
                    }
                    Err(e) => assert_eq!(e, MappingError::NoConflictFreeRing { shape }),
                }
            }
            for tp in [4, 8] {
                if let Ok(shape) = TpShape::factor(tp, n) {
                    assert!(ErMapping::new(dims, shape).is_ok(), "{shape} on {n}x{n}");
                }
            }
        }
        let six = MeshDims {
            wafers_x: 1,
            wafers_y: 1,
            n: 6,
        };
        let odd = TpShape::new(3, 3);
        let rejected = Err(MappingError::NoConflictFreeRing { shape: odd });
        assert_eq!(ErMapping::new(six, odd).map(|_| ()), rejected);
        assert_eq!(HierarchicalErMapping::new(six, odd).map(|_| ()), rejected);
    }

    #[test]
    fn multi_wafer_pure_er_spans_borders() {
        let topo = MultiWafer::grid(2, 2, 4, PlatformParams::dojo_like()).build();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        // a = 8/2 = 4: ring strides of 4 cross wafer borders somewhere.
        let crosses = plan.rings().rings.iter().any(|ring| {
            let devs = ring.devices();
            (0..devs.len()).any(|i| {
                let r = topo.route(devs[i], devs[(i + 1) % devs.len()]);
                r.links()
                    .iter()
                    .any(|&l| topo.link(l).kind == wsc_topology::LinkKind::WaferBorder)
            })
        });
        assert!(crosses, "pure ER on multi-wafer must cross borders");
    }

    #[test]
    fn indivisible_shape_rejected() {
        let dims = MeshDims {
            wafers_x: 1,
            wafers_y: 1,
            n: 6,
        };
        assert!(ErMapping::new(dims, TpShape::new(4, 2)).is_err());
    }
}
