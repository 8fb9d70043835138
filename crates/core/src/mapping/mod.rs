//! Parallelism mappings: how attention TP groups and MoE experts are placed
//! on the device grid.
//!
//! A [`MappingPlan`] fixes, for every device: its TP group and rank, its
//! Full Token Domain (FTD), and the all-reduce ring structure. Three
//! builders produce plans:
//!
//! * [`BaselineMapping`] — TP groups are contiguous blocks "each located in
//!   a separate corner of the mesh" (paper Fig. 8b). All-reduce rings are
//!   1-hop neighbour rings ("zero-hop rings"), but FTDs are large and all
//!   intersect in the mesh centre.
//! * [`ErMapping`] — the Entwined Ring Mapping of Fig. 10(a): TP groups are
//!   coordinate-modulus classes, FTDs are compact contiguous blocks, and
//!   all-reduce runs on time-staggered multi-hop rings.
//! * [`HierarchicalErMapping`] — per-wafer ER plus the two-step hierarchical
//!   all-reduce for multi-WSC systems (paper §IV-B4).

mod baseline;
mod er;
mod ftd;
mod hier;
mod render;

pub use baseline::BaselineMapping;
pub use er::ErMapping;
pub use ftd::Ftd;
pub use hier::HierarchicalErMapping;
pub use render::{render_ftds, render_groups};

use std::fmt;

use serde::{Deserialize, Serialize};
use wsc_collectives::{Ring, StaggeredRings};
use wsc_topology::{DeviceId, MeshDims, Topology};

/// The shape of a TP group on the mesh: `x × y` devices.
///
/// The paper writes `Att_TP = (TPx, TPy)`; total TP degree is `x · y`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct TpShape {
    /// Extent along X.
    pub x: u16,
    /// Extent along Y.
    pub y: u16,
}

impl TpShape {
    /// Creates a TP shape.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(x: u16, y: u16) -> Self {
        assert!(x > 0 && y > 0, "TP extents must be positive");
        TpShape { x, y }
    }

    /// Total TP degree.
    pub fn size(&self) -> usize {
        self.x as usize * self.y as usize
    }

    /// Chooses the most square factorization `x × y = tp` such that `x`
    /// divides `n` and `y` divides `n`. Prefers shapes with an even extent
    /// (so contiguous blocks admit Hamiltonian rings).
    pub fn factor(tp: usize, n: u16) -> Result<TpShape, MappingError> {
        let mut best: Option<TpShape> = None;
        for x in 1..=tp {
            if !tp.is_multiple_of(x) {
                continue;
            }
            let y = tp / x;
            if x > n as usize || y > n as usize {
                continue;
            }
            if !(n as usize).is_multiple_of(x) || !(n as usize).is_multiple_of(y) {
                continue;
            }
            let candidate = TpShape::new(x as u16, y as u16);
            let better = match best {
                None => true,
                Some(b) => {
                    let sq = |s: TpShape| (s.x as i32 - s.y as i32).abs();
                    let even = |s: TpShape| s.x.is_multiple_of(2) || s.y.is_multiple_of(2);
                    (sq(candidate), !even(candidate)) < (sq(b), !even(b))
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        best.ok_or(MappingError::TpDoesNotFit { tp, n })
    }
}

impl fmt::Display for TpShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP{}=({}x{})", self.size(), self.x, self.y)
    }
}

/// Which mapping family produced a plan.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MappingKind {
    /// Corner-block TP groups (paper Fig. 8b).
    Baseline,
    /// Entwined Ring Mapping (paper Fig. 8c/10a).
    EntwinedRing,
    /// Hierarchical ER for multi-wafer systems (paper §IV-B4).
    HierarchicalEntwinedRing,
}

impl fmt::Display for MappingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MappingKind::Baseline => "baseline",
            MappingKind::EntwinedRing => "ER-Mapping",
            MappingKind::HierarchicalEntwinedRing => "HER-Mapping",
        };
        f.write_str(s)
    }
}

/// Errors from mapping construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MappingError {
    /// The TP shape does not tile the wafer.
    ShapeDoesNotTile {
        /// Requested shape.
        shape: TpShape,
        /// Wafer side length.
        n: u16,
    },
    /// No factorization of `tp` fits an `n × n` wafer.
    TpDoesNotFit {
        /// Requested TP degree.
        tp: usize,
        /// Wafer side length.
        n: u16,
    },
    /// The topology is not a mesh (or has the wrong wafer count).
    NotAMesh,
    /// An entwined (ER/HER) mapping cannot give TP groups of this shape
    /// link-disjoint staggered rings. A single device has no ring at all;
    /// a line of three or more, or a grid with both extents odd, has no
    /// cycle of unit steps, so the ring's wrap-around hop retraces links
    /// its own steps use in the same sub-phase, which no parity separates.
    NoConflictFreeRing {
        /// Requested shape.
        shape: TpShape,
    },
    /// A TP group of one device has no all-reduce ring to build.
    SingleDeviceGroup {
        /// Requested shape.
        shape: TpShape,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::ShapeDoesNotTile { shape, n } => {
                write!(f, "TP shape {shape} does not tile a {n}x{n} wafer")
            }
            MappingError::TpDoesNotFit { tp, n } => {
                write!(f, "no factorization of TP={tp} tiles a {n}x{n} wafer")
            }
            MappingError::NotAMesh => f.write_str("topology is not a wafer mesh"),
            MappingError::NoConflictFreeRing { shape } => write!(
                f,
                "TP shape {shape} has no conflict-free entwined ring \
                 (a group needs exactly two members, or both extents above 1 and one even)"
            ),
            MappingError::SingleDeviceGroup { shape } => write!(
                f,
                "TP shape {shape} gives one-device groups, which have no all-reduce ring"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Where a destination device fetches a source group's tokens from during
/// MoE dispatch.
#[derive(Clone, PartialEq, Debug)]
pub struct TokenSource {
    /// The device holding (part of) the tokens.
    pub device: DeviceId,
    /// Fraction of the group's token bytes served by this device.
    pub fraction: f64,
}

/// A fully resolved parallelism mapping.
///
/// See the [module documentation](self) for the three families.
#[derive(Clone, Debug)]
pub struct MappingPlan {
    pub(crate) kind: MappingKind,
    pub(crate) dims: MeshDims,
    pub(crate) tp: TpShape,
    /// `groups[g][r]` — rank `r` of TP group `g`.
    pub(crate) groups: Vec<Vec<DeviceId>>,
    /// Per device: `(group, rank)`.
    pub(crate) group_of: Vec<(usize, usize)>,
    /// Full Token Domains.
    pub(crate) ftds: Vec<Ftd>,
    /// Per device: FTD index.
    pub(crate) ftd_of: Vec<usize>,
    /// All-reduce ring structure (staggered; baseline plans use parity 0
    /// everywhere since neighbour rings never intersect).
    pub(crate) rings: StaggeredRings,
    /// HER only: the inter-wafer all-gather rings (one per die coordinate,
    /// linking wafer counterparts). Empty for single-level mappings.
    pub(crate) inter_wafer_rings: Vec<Ring>,
    /// Whether attention retains the all-gather (paper §IV-A). Affects
    /// token-source selection.
    pub(crate) retain_all_gather: bool,
}

impl MappingPlan {
    /// The mapping family.
    pub fn kind(&self) -> MappingKind {
        self.kind
    }

    /// Mesh dimensions the plan covers.
    pub fn dims(&self) -> MeshDims {
        self.dims
    }

    /// The TP shape.
    pub fn tp(&self) -> TpShape {
        self.tp
    }

    /// Number of TP groups (the DP degree).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// TP group member lists, rank-ordered.
    pub fn groups(&self) -> &[Vec<DeviceId>] {
        &self.groups
    }

    /// The `(group, rank)` of a device.
    pub fn group_of(&self, device: DeviceId) -> (usize, usize) {
        self.group_of[device.index()]
    }

    /// The Full Token Domains.
    pub fn ftds(&self) -> &[Ftd] {
        &self.ftds
    }

    /// The FTD containing a device.
    pub fn ftd_of(&self, device: DeviceId) -> usize {
        self.ftd_of[device.index()]
    }

    /// The all-reduce ring structure.
    pub fn rings(&self) -> &StaggeredRings {
        &self.rings
    }

    /// HER only: inter-wafer all-gather rings (empty for single-level
    /// mappings).
    pub fn inter_wafer_rings(&self) -> &[Ring] {
        &self.inter_wafer_rings
    }

    /// Whether the attention all-gather is retained.
    pub fn retains_all_gather(&self) -> bool {
        self.retain_all_gather
    }

    /// Returns a copy with the all-gather dropped (the ablation of paper
    /// Fig. 14b: dispatch must then fetch each token from its single shard
    /// owner instead of the nearest group member).
    pub fn without_all_gather(mut self) -> Self {
        self.retain_all_gather = false;
        self
    }

    /// The nearest member of `group` to `device` (by routed hop count,
    /// ties broken by device id).
    pub fn nearest_group_member(
        &self,
        topo: &Topology,
        group: usize,
        device: DeviceId,
    ) -> DeviceId {
        self.groups[group]
            .iter()
            .copied()
            .min_by_key(|&m| (topo.hops(m, device), m))
            .expect("groups are non-empty")
    }

    /// Where `device` fetches group `group`'s tokens during dispatch.
    ///
    /// * With all-gather retained: the member of the group inside the
    ///   destination's **own Full Token Domain** — the paper's access model
    ///   ("within an FTD, any device can access all required tokens,
    ///   confining communication to this domain"). Under HER-Mapping the
    ///   *counterpart* group on the destination's wafer serves (tokens were
    ///   replicated wafer-wide by the inter-wafer all-gather).
    /// * Without all-gather: every rank of the group serves its `1/TP`
    ///   shard (Fig. 14b ablation — fewer source options, longer paths).
    pub fn token_sources(
        &self,
        topo: &Topology,
        group: usize,
        device: DeviceId,
    ) -> Vec<TokenSource> {
        let effective_group = match self.kind {
            MappingKind::HierarchicalEntwinedRing => self.counterpart_group(topo, group, device),
            _ => group,
        };
        if self.retain_all_gather {
            // FTD member lists are indexed by the wafer-local group index.
            let per_wafer_groups = self.groups.len() / self.dims.num_wafers().max(1);
            let local_index = match self.kind {
                MappingKind::HierarchicalEntwinedRing => effective_group % per_wafer_groups,
                _ => effective_group,
            };
            let ftd = &self.ftds[self.ftd_of(device)];
            vec![TokenSource {
                device: ftd.devices()[local_index],
                fraction: 1.0,
            }]
        } else {
            let members = &self.groups[effective_group];
            let f = 1.0 / members.len() as f64;
            members
                .iter()
                .map(|&m| TokenSource {
                    device: m,
                    fraction: f,
                })
                .collect()
        }
    }

    /// For HER: the group on `device`'s wafer holding (a replica of)
    /// `group`'s tokens after the inter-wafer all-gather — the group with
    /// the same intra-wafer offset.
    fn counterpart_group(&self, topo: &Topology, group: usize, device: DeviceId) -> usize {
        let per_wafer_groups = self.groups.len() / self.dims.num_wafers().max(1);
        if per_wafer_groups == 0 {
            return group;
        }
        let offset = group % per_wafer_groups;
        let wafer = topo
            .location(device)
            .wafer()
            .map(|(wx, wy)| wy as usize * self.dims.wafers_x as usize + wx as usize)
            .unwrap_or(0);
        wafer * per_wafer_groups + offset
    }

    /// The paper's FTD hop metric: the average, over every device and every
    /// *other* TP group, of the hop distance to the nearest token source.
    /// Baseline 4×4/TP4 yields 2.67; ER yields 1.33 (paper Fig. 8). A plan
    /// of one group has no cross-group traffic and yields 0.
    pub fn average_ftd_hops(&self, topo: &Topology) -> f64 {
        let mut total = 0.0;
        let mut count = 0.0;
        for device in topo.devices() {
            let (own, _) = self.group_of(device);
            for g in 0..self.groups.len() {
                if g == own {
                    continue;
                }
                let sources = self.token_sources(topo, g, device);
                let hops: f64 = sources
                    .iter()
                    .map(|s| s.fraction * topo.hops(s.device, device) as f64)
                    .sum();
                total += hops;
                count += 1.0;
            }
        }
        if count == 0.0 {
            return 0.0;
        }
        total / count
    }

    /// Number of unordered FTD pairs whose bounding boxes overlap — the
    /// paper's congestion indicator ("all FTDs overlap at the central four
    /// devices" under baseline mapping; zero under ER-Mapping).
    pub fn ftd_intersections(&self, topo: &Topology) -> usize {
        let boxes: Vec<_> = self.ftds.iter().map(|f| f.bounding_box(topo)).collect();
        let mut overlaps = 0;
        for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                let (a, b) = (&boxes[i], &boxes[j]);
                let disjoint = a.2 < b.0 || b.2 < a.0 || a.3 < b.1 || b.3 < a.1 || a.4 != b.4;
                if !disjoint {
                    overlaps += 1;
                }
            }
        }
        overlaps
    }
}

/// Builds a ring order over the member grid of one TP group, given the
/// member at each grid position. Produces a Hamiltonian-style cycle over the
/// `w × h` position grid (boustrophedon with a return column when an extent
/// is even; plain boustrophedon otherwise).
pub(crate) fn grid_ring_order(w: usize, h: usize) -> Vec<(usize, usize)> {
    assert!(w * h >= 2, "ring needs at least two members");
    if h == 1 {
        return (0..w).map(|x| (x, 0)).collect();
    }
    if w == 1 {
        return (0..h).map(|y| (0, y)).collect();
    }
    if h.is_multiple_of(2) {
        // Snake down column 0 is the return path.
        let mut order = vec![(0, 0)];
        for y in 0..h {
            let xs: Vec<usize> = if y % 2 == 0 {
                (1..w).collect()
            } else {
                (1..w).rev().collect()
            };
            for x in xs {
                order.push((x, y));
            }
        }
        for y in (1..h).rev() {
            order.push((0, y));
        }
        order
    } else if w.is_multiple_of(2) {
        grid_ring_order(h, w)
            .into_iter()
            .map(|(y, x)| (x, y))
            .collect()
    } else {
        // Both odd: no Hamiltonian cycle exists on the grid graph; use a
        // boustrophedon path (the wrap hop is multi-stride).
        let mut order = Vec::with_capacity(w * h);
        for y in 0..h {
            let xs: Vec<usize> = if y % 2 == 0 {
                (0..w).collect()
            } else {
                (0..w).rev().collect()
            };
            for x in xs {
                order.push((x, y));
            }
        }
        order
    }
}

pub(crate) fn build_staggered_rings(
    groups: &[Vec<DeviceId>],
    parity: Vec<usize>,
    num_parities: usize,
    order: &[(usize, usize)],
    grid_w: usize,
) -> StaggeredRings {
    let rings = groups
        .iter()
        .map(|members| {
            Ring::new(
                order
                    .iter()
                    .map(|&(x, y)| members[y * grid_w + x])
                    .collect(),
            )
        })
        .collect();
    StaggeredRings::new(rings, parity, num_parities)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tp_factor_prefers_square() {
        let s = TpShape::factor(4, 4).unwrap();
        assert_eq!((s.x, s.y), (2, 2));
        let s = TpShape::factor(16, 8).unwrap();
        assert_eq!((s.x, s.y), (4, 4));
    }

    #[test]
    fn tp_factor_respects_divisibility() {
        // TP=6 on a 6x6 wafer: (2,3) or (3,2); both divide 6.
        let s = TpShape::factor(6, 6).unwrap();
        assert_eq!(s.size(), 6);
        assert_eq!(6 % s.x, 0);
        assert_eq!(6 % s.y, 0);
        // TP=18 on 6x6: (3,6)/(6,3).
        let s = TpShape::factor(18, 6).unwrap();
        assert_eq!(s.size(), 18);
    }

    #[test]
    fn tp_factor_rejects_impossible() {
        assert!(TpShape::factor(5, 4).is_err());
        assert!(TpShape::factor(64, 4).is_err());
    }

    #[test]
    fn grid_ring_order_even_is_cycle_of_unit_steps() {
        for (w, h) in [(2usize, 2usize), (4, 2), (2, 4), (4, 4), (3, 6), (6, 3)] {
            let order = grid_ring_order(w, h);
            assert_eq!(order.len(), w * h, "{w}x{h}");
            for i in 0..order.len() {
                let a = order[i];
                let b = order[(i + 1) % order.len()];
                let d = (a.0 as i32 - b.0 as i32).abs() + (a.1 as i32 - b.1 as i32).abs();
                assert_eq!(d, 1, "{w}x{h}: step {a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn grid_ring_order_line() {
        assert_eq!(grid_ring_order(3, 1), vec![(0, 0), (1, 0), (2, 0)]);
        assert_eq!(grid_ring_order(1, 2), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn mapping_error_display() {
        let e = MappingError::TpDoesNotFit { tp: 5, n: 4 };
        assert_eq!(e.to_string(), "no factorization of TP=5 tiles a 4x4 wafer");
    }
}
