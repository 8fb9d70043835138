//! Hierarchical ER-Mapping for multi-WSC systems (paper §IV-B4).

use wsc_topology::{DeviceId, MeshDims, Topology};

use super::er::{build_er_plan, check_entwined_ring};
use super::ftd::Ftd;
use super::{MappingError, MappingKind, MappingPlan, TpShape};

/// Hierarchical ER-Mapping: ER within each wafer, with the attention
/// all-reduce decoupled into an **intra-wafer reduce-scatter** followed by
/// an **inter-wafer all-gather** (paper Fig. 10c).
///
/// After both steps every wafer holds tokens from all wafers — "enabling
/// the entire wafer to function as a unified FTD" — so MoE dispatch and
/// combine never cross wafer borders.
///
/// The TP shape is *per wafer*: groups never span wafers (unlike the pure
/// [`ErMapping`](super::ErMapping) applied to a multi-wafer grid, whose
/// entwined rings cross the expensive border links).
///
/// # Example
///
/// ```
/// use moentwine_core::mapping::{HierarchicalErMapping, TpShape};
/// use wsc_topology::{MultiWafer, PlatformParams};
///
/// let topo = MultiWafer::grid(2, 2, 4, PlatformParams::dojo_like()).build();
/// let plan = HierarchicalErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
///     .unwrap()
///     .plan();
/// // 4 wafers × 4 per-wafer groups.
/// assert_eq!(plan.num_groups(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct HierarchicalErMapping {
    dims: MeshDims,
    tp: TpShape,
}

impl HierarchicalErMapping {
    /// Creates the mapping; `tp` is the per-wafer TP shape.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::ShapeDoesNotTile`] if `tp` does not divide a
    /// single wafer, and [`MappingError::NoConflictFreeRing`] if its groups
    /// cannot form link-disjoint staggered rings.
    pub fn new(dims: MeshDims, tp: TpShape) -> Result<Self, MappingError> {
        if !dims.n.is_multiple_of(tp.x) || !dims.n.is_multiple_of(tp.y) {
            return Err(MappingError::ShapeDoesNotTile {
                shape: tp,
                n: dims.n,
            });
        }
        check_entwined_ring(tp)?;
        Ok(HierarchicalErMapping { dims, tp })
    }

    /// Convenience constructor picking the TP shape via
    /// [`TpShape::factor`] against a single wafer.
    pub fn with_tp_degree(dims: MeshDims, tp: usize) -> Result<Self, MappingError> {
        let shape = TpShape::factor(tp, dims.n)?;
        Self::new(dims, shape)
    }

    /// Resolves the full mapping plan.
    pub fn plan(&self) -> MappingPlan {
        let dims = self.dims;
        let wafers = dims.num_wafers();
        let per_wafer_dims = MeshDims {
            wafers_x: 1,
            wafers_y: 1,
            n: dims.n,
        };
        // Build the single-wafer ER plan and replicate it per wafer with
        // shifted device ids.
        let base = build_er_plan(per_wafer_dims, self.tp, MappingKind::EntwinedRing);
        let per_wafer = (dims.n as usize).pow(2);

        let shift = |d: DeviceId, w: usize| DeviceId(d.0 + (w * per_wafer) as u32);

        let mut groups = Vec::with_capacity(wafers * base.groups.len());
        let mut ftds: Vec<Ftd> = Vec::with_capacity(wafers * base.ftds.len());
        let mut group_of = vec![(0usize, 0usize); wafers * per_wafer];
        let mut ftd_of = vec![0usize; wafers * per_wafer];
        let mut rings = Vec::new();
        let mut parity = Vec::new();
        for w in 0..wafers {
            for (g, members) in base.groups.iter().enumerate() {
                let global_g = w * base.groups.len() + g;
                let shifted: Vec<DeviceId> = members.iter().map(|&d| shift(d, w)).collect();
                for (rank, &d) in shifted.iter().enumerate() {
                    group_of[d.index()] = (global_g, rank);
                }
                groups.push(shifted);
            }
            for ftd in &base.ftds {
                let global_f = w * base.ftds.len() + ftd.index();
                let shifted: Vec<DeviceId> = ftd.devices().iter().map(|&d| shift(d, w)).collect();
                for &d in &shifted {
                    ftd_of[d.index()] = global_f;
                }
                ftds.push(Ftd::new(global_f, shifted));
            }
            for (r, ring) in base.rings.rings.iter().enumerate() {
                rings.push(wsc_collectives::Ring::new(
                    ring.devices().iter().map(|&d| shift(d, w)).collect(),
                ));
                parity.push(base.rings.parity[r]);
            }
        }

        MappingPlan {
            kind: MappingKind::HierarchicalEntwinedRing,
            dims,
            tp: self.tp,
            groups,
            group_of,
            ftds,
            ftd_of,
            rings: wsc_collectives::StaggeredRings::new(rings, parity, base.rings.num_parities),
            inter_wafer_rings: self.inter_wafer_rings_arith(),
            retain_all_gather: true,
        }
    }

    /// Computes the inter-wafer rings arithmetically (no topology needed):
    /// device id = `(wy·Wx + wx)·n² + y·n + x`.
    fn inter_wafer_rings_arith(&self) -> Vec<wsc_collectives::Ring> {
        let dims = self.dims;
        if dims.num_wafers() < 2 {
            return Vec::new();
        }
        let n = dims.n as u32;
        let per_wafer = n * n;
        let mut wafer_order: Vec<u32> = Vec::new();
        for wy in 0..dims.wafers_y as u32 {
            let xs: Vec<u32> = if wy % 2 == 0 {
                (0..dims.wafers_x as u32).collect()
            } else {
                (0..dims.wafers_x as u32).rev().collect()
            };
            for wx in xs {
                wafer_order.push(wy * dims.wafers_x as u32 + wx);
            }
        }
        let mut rings = Vec::new();
        for y in 0..n {
            for x in 0..n {
                let members: Vec<DeviceId> = wafer_order
                    .iter()
                    .map(|&w| DeviceId(w * per_wafer + y * n + x))
                    .collect();
                rings.push(wsc_collectives::Ring::new(members));
            }
        }
        rings
    }

    /// The inter-wafer all-gather rings: one ring per die coordinate,
    /// linking that die's counterparts across all wafers in boustrophedon
    /// wafer order.
    pub fn inter_wafer_rings(&self, topo: &Topology) -> Vec<wsc_collectives::Ring> {
        let dims = self.dims;
        let mut wafer_order: Vec<(u16, u16)> = Vec::new();
        for wy in 0..dims.wafers_y {
            let xs: Vec<u16> = if wy % 2 == 0 {
                (0..dims.wafers_x).collect()
            } else {
                (0..dims.wafers_x).rev().collect()
            };
            for wx in xs {
                wafer_order.push((wx, wy));
            }
        }
        if wafer_order.len() < 2 {
            return Vec::new();
        }
        let mut rings = Vec::new();
        for y in 0..dims.n {
            for x in 0..dims.n {
                let members: Vec<DeviceId> = wafer_order
                    .iter()
                    .map(|&(wx, wy)| topo.device_at(wx, wy, x, y).expect("die"))
                    .collect();
                rings.push(wsc_collectives::Ring::new(members));
            }
        }
        rings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_topology::{LinkKind, MultiWafer, PlatformParams};

    fn topo4() -> Topology {
        MultiWafer::grid(2, 2, 4, PlatformParams::dojo_like()).build()
    }

    #[test]
    fn groups_stay_within_wafers() {
        let topo = topo4();
        let plan = HierarchicalErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        for group in plan.groups() {
            let wafers: Vec<_> = group
                .iter()
                .map(|&d| topo.location(d).wafer().unwrap())
                .collect();
            assert!(wafers.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn intra_wafer_rings_avoid_borders() {
        let topo = topo4();
        let mapping =
            HierarchicalErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2)).unwrap();
        let plan = mapping.plan();
        for ring in &plan.rings().rings {
            let devs = ring.devices();
            for i in 0..devs.len() {
                let r = topo.route(devs[i], devs[(i + 1) % devs.len()]);
                assert!(r
                    .links()
                    .iter()
                    .all(|&l| topo.link(l).kind != LinkKind::WaferBorder));
            }
        }
    }

    #[test]
    fn inter_wafer_rings_cover_all_coordinates() {
        let topo = topo4();
        let mapping =
            HierarchicalErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2)).unwrap();
        let rings = mapping.inter_wafer_rings(&topo);
        assert_eq!(rings.len(), 16); // one per die coordinate
        for ring in &rings {
            assert_eq!(ring.len(), 4); // one member per wafer
        }
    }

    #[test]
    fn token_sources_are_wafer_local() {
        let topo = topo4();
        let plan = HierarchicalErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        // A device on wafer (1,1) asking for group 0 (wafer (0,0)) tokens
        // must be served from its own wafer.
        let d = topo.device_at(1, 1, 0, 0).unwrap();
        for src in plan.token_sources(&topo, 0, d) {
            assert_eq!(
                topo.location(src.device).wafer(),
                topo.location(d).wafer(),
                "HER dispatch must stay on-wafer"
            );
        }
    }

    #[test]
    fn single_wafer_has_no_inter_rings() {
        let topo = wsc_topology::Mesh::new(4, PlatformParams::dojo_like()).build();
        let mapping =
            HierarchicalErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2)).unwrap();
        assert!(mapping.inter_wafer_rings(&topo).is_empty());
    }
}
