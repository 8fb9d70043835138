//! Compiling mappings and gating outcomes into communication work.
//!
//! Two halves:
//!
//! * [`ParallelLayout`] — the interface the engine uses to price attention
//!   all-reduce and MoE all-to-all for *any* platform. Implemented by
//!   [`MappingPlan`] (wafer meshes) and [`ClusterLayout`] (DGX / NVL72).
//! * [`A2aModel`] — the fast analytical dispatch/combine estimator: expands
//!   a [`LayerGating`] outcome over an [`ExpertPlacement`] into per-link
//!   volumes via precomputed routes, yielding congestion-aware latencies
//!   plus the per-device token/expert loads the compute model needs.

use moe_workload::LayerGating;
use wsc_collectives::{
    hierarchical_all_reduce, ring_all_gather, ring_all_reduce, ring_reduce_scatter, StaggeredRings,
};
use wsc_sim::{AnalyticModel, CongestionModel, FlowSchedule, RouteSetSim, RoutedTransfer};
use wsc_topology::{DeviceId, Location, RouteTable, Topology};

use crate::mapping::{MappingKind, MappingPlan, TokenSource};
use crate::placement::ExpertPlacement;

/// A parallelism layout: which devices form each TP group, where a device
/// fetches a group's tokens from, and how the attention all-reduce runs.
///
/// This trait is object-safe; the engine stores a `&dyn ParallelLayout`.
///
/// `Sync` is a supertrait so several replica engines (and the worker-pool
/// threads stepping them) can share one layout by reference — layouts are
/// immutable precomputed data, so every implementation is trivially `Sync`.
pub trait ParallelLayout: Sync {
    /// TP group member lists, rank-ordered.
    fn groups(&self) -> &[Vec<DeviceId>];

    /// Token sources for dispatching group `group`'s tokens to `device`.
    fn token_sources(&self, topo: &Topology, group: usize, device: DeviceId) -> Vec<TokenSource>;

    /// The attention all-reduce schedule for `bytes_per_device` per member.
    fn all_reduce_schedule(&self, topo: &Topology, bytes_per_device: f64) -> FlowSchedule;

    /// The FTD index of a device, when the layout defines FTDs (wafer
    /// mappings). `None` on switch-based clusters.
    fn ftd_of_device(&self, device: DeviceId) -> Option<usize>;

    /// Per-device node indices when the platform has a slow inter-node tier
    /// whose all-to-all should be node-aggregated (the DeepSpeed-MoE-style
    /// hierarchical optimization the paper grants its DGX baseline).
    /// `None` for flat/mesh fabrics.
    fn hierarchical_nodes(&self, _topo: &Topology) -> Option<Vec<u16>> {
        None
    }

    /// Number of TP groups.
    fn num_groups(&self) -> usize {
        self.groups().len()
    }

    /// TP degree.
    fn tp_degree(&self) -> usize {
        self.groups().first().map_or(1, Vec::len)
    }
}

impl ParallelLayout for MappingPlan {
    fn groups(&self) -> &[Vec<DeviceId>] {
        MappingPlan::groups(self)
    }

    fn token_sources(&self, topo: &Topology, group: usize, device: DeviceId) -> Vec<TokenSource> {
        MappingPlan::token_sources(self, topo, group, device)
    }

    fn all_reduce_schedule(&self, topo: &Topology, bytes_per_device: f64) -> FlowSchedule {
        match self.kind() {
            MappingKind::Baseline | MappingKind::EntwinedRing => {
                if self.retains_all_gather() {
                    concurrent_rings(topo, self.rings(), bytes_per_device, false)
                } else {
                    // Fig. 14b ablation: reduce-scatter only.
                    concurrent_rings(topo, self.rings(), bytes_per_device, true)
                }
            }
            MappingKind::HierarchicalEntwinedRing => {
                // §IV-B4: intra-wafer reduce-scatter, then inter-wafer
                // all-gather of the per-device shards.
                let mut schedule = concurrent_rings(topo, self.rings(), bytes_per_device, true);
                let shard = bytes_per_device / self.tp().size() as f64;
                let wafers = self.dims().num_wafers() as f64;
                let inter: Vec<FlowSchedule> = self
                    .inter_wafer_rings()
                    .iter()
                    .map(|ring| ring_all_gather(topo, ring, wafers * shard))
                    .collect();
                for phase in FlowSchedule::merge_lockstep(inter.iter()).phases() {
                    schedule.push_phase(phase.label.clone(), phase.flows.clone());
                }
                schedule
            }
        }
    }

    fn ftd_of_device(&self, device: DeviceId) -> Option<usize> {
        Some(self.ftd_of(device))
    }
}

/// Timing model for entwined rings: all rings execute each logical step
/// concurrently, packet-interleaved on shared links (the paper's
/// time-staggering at packet granularity). Bandwidth-wise this is identical
/// to sub-phase staggering — a link shared by `p` rings serves each at
/// `1/p` rate — but the per-hop latency is paid once per logical step, not
/// once per sub-phase, reproducing the paper's "two-hop doubles the
/// all-reduce latency" for the 4×4/TP4 case. The explicitly staggered
/// schedule ([`wsc_collectives::staggered_ring_all_reduce`]) remains the
/// conflict-freedom witness (Fig. 8d).
fn concurrent_rings(
    topo: &Topology,
    rings: &StaggeredRings,
    bytes_per_device: f64,
    reduce_scatter_only: bool,
) -> FlowSchedule {
    let schedules: Vec<FlowSchedule> = rings
        .rings
        .iter()
        .map(|ring| {
            if reduce_scatter_only {
                ring_reduce_scatter(topo, ring, bytes_per_device)
            } else {
                ring_all_reduce(topo, ring, bytes_per_device)
            }
        })
        .collect();
    FlowSchedule::merge_lockstep(schedules.iter())
}

/// TP layout for switch-based clusters (DGX, NVL72): groups are contiguous
/// device ranges; all-reduce is the two-level hierarchical scheme; token
/// sources prefer same-node members (fewest switch hops).
#[derive(Clone, Debug)]
pub struct ClusterLayout {
    groups: Vec<Vec<DeviceId>>,
}

impl ClusterLayout {
    /// Partitions the cluster into contiguous TP groups of `tp` devices.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero or does not divide the device count.
    pub fn new(topo: &Topology, tp: usize) -> Self {
        assert!(tp > 0, "TP degree must be positive");
        assert_eq!(
            topo.num_devices() % tp,
            0,
            "TP={tp} must divide {} devices",
            topo.num_devices()
        );
        let groups = (0..topo.num_devices() / tp)
            .map(|g| {
                (0..tp)
                    .map(|r| DeviceId((g * tp + r) as u32))
                    .collect::<Vec<_>>()
            })
            .collect();
        ClusterLayout { groups }
    }

    fn node_of(topo: &Topology, d: DeviceId) -> u16 {
        match topo.location(d) {
            Location::Cluster { node, .. } => node,
            Location::Mesh { .. } => 0,
        }
    }
}

impl ParallelLayout for ClusterLayout {
    fn groups(&self) -> &[Vec<DeviceId>] {
        &self.groups
    }

    fn token_sources(&self, topo: &Topology, group: usize, device: DeviceId) -> Vec<TokenSource> {
        // Prefer same-node members (NVLink); spread the load across the
        // equidistant candidates — by destination rank for intra-node pulls
        // and by destination *node* for cross-node pulls, so that each
        // remote node's aggregated fetch leaves through a different member's
        // uplink.
        let members = &self.groups[group];
        let dst_node = Self::node_of(topo, device);
        let same_node: Vec<DeviceId> = members
            .iter()
            .copied()
            .filter(|&m| Self::node_of(topo, m) == dst_node)
            .collect();
        let pick = if same_node.is_empty() {
            members[dst_node as usize % members.len()]
        } else {
            same_node[device.0 as usize % same_node.len()]
        };
        vec![TokenSource {
            device: pick,
            fraction: 1.0,
        }]
    }

    fn all_reduce_schedule(&self, topo: &Topology, bytes_per_device: f64) -> FlowSchedule {
        let per_group: Vec<FlowSchedule> = self
            .groups
            .iter()
            .map(|group| {
                hierarchical_all_reduce(topo, group, bytes_per_device, |d| Self::node_of(topo, d))
            })
            .collect();
        FlowSchedule::merge_lockstep(per_group.iter())
    }

    fn ftd_of_device(&self, _device: DeviceId) -> Option<usize> {
        None
    }

    fn hierarchical_nodes(&self, topo: &Topology) -> Option<Vec<u16>> {
        let nodes: Vec<u16> = topo.devices().map(|d| Self::node_of(topo, d)).collect();
        // A flat supernode (one node) has no slow tier to aggregate over.
        let distinct = nodes.iter().collect::<std::collections::HashSet<_>>().len();
        (distinct > 1).then_some(nodes)
    }
}

/// Result of pricing one MoE layer's all-to-all.
#[derive(Clone, Debug)]
pub struct A2aEstimate {
    /// Dispatch (token scatter) estimate.
    pub dispatch: wsc_sim::AnalyticEstimate,
    /// Combine (result gather) estimate.
    pub combine: wsc_sim::AnalyticEstimate,
    /// Expected token load per device (replica shares applied).
    pub device_tokens: Vec<f64>,
    /// Number of resident experts with non-zero load per device (each
    /// streams its weights from HBM once).
    pub device_active_experts: Vec<f64>,
}

impl A2aEstimate {
    /// Dispatch + combine time.
    pub fn total_time(&self) -> f64 {
        self.dispatch.total_time + self.combine.total_time
    }

    /// `max / mean` of the per-device token loads (the load-ratio metric of
    /// paper Figs. 15–16). Returns 1 for a perfectly balanced layer.
    pub fn load_ratio(&self) -> f64 {
        let max = self.device_tokens.iter().copied().fold(0.0, f64::max);
        let mean = self.device_tokens.iter().sum::<f64>() / self.device_tokens.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// A `(source, destination, bytes)` transfer list, as consumed by
/// [`CongestionModel::price_pairs`].
type PairList = Vec<(DeviceId, DeviceId, f64)>;

/// One layer's expansion of a gating outcome, in buffers reused across
/// layers and steps: [`A2aModel::fill_layer`] and [`A2aModel::price_layer`]
/// overwrite the fields they use, so a caller that keeps one scratch
/// expands layers without allocating.
#[derive(Debug, Default)]
pub(crate) struct LayerScratch {
    /// `[group * D + device]` dispatch bytes, dedup-capped (pricing only).
    volume: Vec<f64>,
    /// Expected token load per device (replica shares applied).
    pub(crate) device_tokens: Vec<f64>,
    /// Resident experts with non-zero load per device.
    pub(crate) device_active: Vec<f64>,
    /// Tokens routed to each expert across all groups.
    pub(crate) expert_totals: Vec<u64>,
    /// Dispatch transfers: written by [`A2aModel::fill_layer`] when
    /// pricing, and by [`A2aModel::price_layer`] on node-aggregated fabrics
    /// only (a flat fabric prices its precomputed route sets instead).
    dispatch: PairList,
    /// Combine transfers: the dispatch pairs reversed, written when
    /// `dispatch` is.
    combine: PairList,
    /// Per-node destination buckets of the node-aggregated expansion.
    per_node: Vec<Vec<usize>>,
    /// The backend's simulators of the dispatch and combine route sets
    /// (flat fabrics on a simulating tier), built on the first priced
    /// layer and reused by every later one.
    dispatch_sim: Option<RouteSetSim>,
    combine_sim: Option<RouteSetSim>,
}

/// Analytical all-to-all model with precomputed token-source tables.
///
/// Construction resolves, for every `(group, destination)` pair, where the
/// tokens come from; [`A2aModel::estimate`] then expands a gating outcome
/// into per-link volumes in `O(groups × devices × hops)`. On a flat fabric
/// construction also resolves every non-local `(group, destination,
/// source)` transfer's dispatch and combine routes once, so the engine
/// prices a layer straight from its per-(group, destination) volumes.
pub struct A2aModel<'a> {
    topo: &'a Topology,
    table: &'a RouteTable,
    /// `[group * D + dst]` → token sources.
    sources: Vec<Vec<TokenSource>>,
    num_groups: usize,
    /// Per-device node indices when the fabric has a slow inter-node tier
    /// (triggers node-aggregated dispatch/combine).
    nodes: Option<Vec<u16>>,
    /// Flat fabrics only (empty when `nodes` is set): one transfer per
    /// non-local `(group, destination, source)`, in the order
    /// [`A2aModel::fill_layer`] lists them, each carrying its source's
    /// fraction of volume `[group * D + destination]` from the source to
    /// the destination.
    dispatch_routes: Vec<RoutedTransfer<'a>>,
    /// The same transfers over the reverse routes (destination to source).
    combine_routes: Vec<RoutedTransfer<'a>>,
}

impl<'a> A2aModel<'a> {
    /// Builds the source table for `layout` over `topo`.
    pub fn new(topo: &'a Topology, table: &'a RouteTable, layout: &dyn ParallelLayout) -> Self {
        let num_devices = topo.num_devices();
        let num_groups = layout.num_groups();
        let mut sources = Vec::with_capacity(num_groups * num_devices);
        for g in 0..num_groups {
            for d in topo.devices() {
                sources.push(layout.token_sources(topo, g, d));
            }
        }
        let nodes = layout.hierarchical_nodes(topo);
        let mut dispatch_routes = Vec::new();
        let mut combine_routes = Vec::new();
        if nodes.is_none() {
            for (index, sources) in sources.iter().enumerate() {
                let dst = DeviceId((index % num_devices) as u32);
                for source in sources.iter().filter(|s| s.device != dst) {
                    let (src, fraction) = (source.device, source.fraction);
                    let there = table.route(src, dst).links();
                    let back = table.route(dst, src).links();
                    dispatch_routes.push(RoutedTransfer::new(topo, index, fraction, there));
                    combine_routes.push(RoutedTransfer::new(topo, index, fraction, back));
                }
            }
        }
        A2aModel {
            topo,
            table,
            sources,
            num_groups,
            nodes,
            dispatch_routes,
            combine_routes,
        }
    }

    /// Number of TP groups the model was built for.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The dispatch route set a flat fabric's layers are priced over: one
    /// transfer per non-local `(group, destination, source)`, carrying its
    /// source's share of volume `[group * D + destination]`. Empty on a
    /// node-aggregated fabric.
    pub fn dispatch_routes(&self) -> &[RoutedTransfer<'a>] {
        &self.dispatch_routes
    }

    /// Prices one layer's dispatch and combine with the fast analytical
    /// backend: shorthand for [`A2aModel::estimate_with`] over an
    /// [`AnalyticModel`].
    ///
    /// # Panics
    ///
    /// Panics if the gating group count does not match the layout.
    pub fn estimate(
        &self,
        gating: &LayerGating,
        placement: &ExpertPlacement,
        token_bytes: f64,
        tokens_per_group: u32,
    ) -> A2aEstimate {
        self.estimate_with(
            &AnalyticModel::new(self.topo),
            gating,
            placement,
            token_bytes,
            tokens_per_group,
        )
    }

    /// Prices one layer's dispatch and combine through any
    /// [`CongestionModel`] backend, given the gating outcome and the current
    /// expert placement. `tokens_per_group` bounds the unique tokens a group
    /// can contribute, enabling the dedup caps below.
    ///
    /// The transfer lists are handed to the backend as `(src, dst, bytes)`
    /// pairs resolved through the shared CSR route table, so every fidelity
    /// tier prices borrowed routes with no per-call route allocation.
    ///
    /// Two hierarchical-fabric refinements mirror the paper's baselines:
    ///
    /// * **Per-device dedup** — a token selecting several experts colocated
    ///   on one device is sent once, so `volume(g→d) ≤ tokens × bytes`.
    /// * **Node aggregation** (clusters only) — cross-node traffic is
    ///   aggregated per destination node (dispatch) and locally reduced
    ///   before returning (combine), the DeepSpeed-MoE-style optimization
    ///   the paper grants the DGX baseline (§VI-B).
    ///
    /// Both refinements are applied while expanding the gating outcome into
    /// explicit `(source, destination, bytes)` transfer lists, so every
    /// backend — closed-form or DES — prices exactly the same traffic.
    ///
    /// # Panics
    ///
    /// Panics if the gating group count does not match the layout.
    pub fn estimate_with(
        &self,
        backend: &dyn CongestionModel,
        gating: &LayerGating,
        placement: &ExpertPlacement,
        token_bytes: f64,
        tokens_per_group: u32,
    ) -> A2aEstimate {
        let mut scratch = LayerScratch::default();
        self.fill_layer(
            gating,
            placement,
            Some((token_bytes, tokens_per_group)),
            &mut scratch,
        );
        A2aEstimate {
            dispatch: backend.price_pairs(self.table, &scratch.dispatch),
            combine: backend.price_pairs(self.table, &scratch.combine),
            device_tokens: scratch.device_tokens,
            device_active_experts: scratch.device_active,
        }
    }

    /// Expands one layer's gating outcome over `placement` into `scratch`:
    /// the per-device loads and per-expert totals always, and, given
    /// `pricing = Some((token_bytes, tokens_per_group))`, the dispatch and
    /// combine transfer lists [`A2aModel::estimate_with`] prices. With
    /// `None` the transfer lists are left empty; the engine passes `None`
    /// on the layers whose all-to-all it does not price
    /// (`comm_layer_stride > 1`).
    ///
    /// # Panics
    ///
    /// Panics if the gating group count does not match the layout.
    pub(crate) fn fill_layer(
        &self,
        gating: &LayerGating,
        placement: &ExpertPlacement,
        pricing: Option<(f64, u32)>,
        scratch: &mut LayerScratch,
    ) {
        self.expand(gating, placement, pricing.map(|(b, _)| b), scratch);
        scratch.dispatch.clear();
        scratch.combine.clear();
        let Some((token_bytes, tokens_per_group)) = pricing else {
            return;
        };
        let group_bytes_cap = tokens_per_group as f64 * token_bytes;
        cap_volumes(&mut scratch.volume, group_bytes_cap);
        self.transfer_pairs(group_bytes_cap, scratch);
    }

    /// Prices one layer's dispatch and combine time through `backend`, as
    /// `(dispatch, combine)`: the `total_time`s of
    /// [`A2aModel::estimate_with`], bit for bit, with `scratch` holding the
    /// layer's loads as [`A2aModel::fill_layer`] leaves them.
    ///
    /// A flat fabric builds no pair list: the capped per-(group,
    /// destination) volumes are priced over the precomputed route sets
    /// ([`CongestionModel::price_route_set_time`]), which add the same
    /// bytes to the same links in the same order as the pair lists would. A
    /// node-aggregated fabric picks its aggregation points from the loaded
    /// destinations, so it still builds and prices the pair lists.
    ///
    /// # Panics
    ///
    /// Panics if the gating group count does not match the layout.
    pub(crate) fn price_layer(
        &self,
        backend: &dyn CongestionModel,
        gating: &LayerGating,
        placement: &ExpertPlacement,
        (token_bytes, tokens_per_group): (f64, u32),
        scratch: &mut LayerScratch,
    ) -> (f64, f64) {
        if self.nodes.is_some() {
            self.fill_layer(
                gating,
                placement,
                Some((token_bytes, tokens_per_group)),
                scratch,
            );
            return (
                backend.price_pairs_time(self.table, &scratch.dispatch),
                backend.price_pairs_time(self.table, &scratch.combine),
            );
        }
        self.expand(gating, placement, Some(token_bytes), scratch);
        cap_volumes(&mut scratch.volume, tokens_per_group as f64 * token_bytes);
        let LayerScratch {
            volume,
            dispatch_sim,
            combine_sim,
            ..
        } = scratch;
        (
            backend.price_route_set_time(&self.dispatch_routes, dispatch_sim, volume),
            backend.price_route_set_time(&self.combine_routes, combine_sim, volume),
        )
    }

    /// Step 1 of pricing: expands a gating outcome over `placement` into
    /// per-device token and active-expert loads, per-expert totals and,
    /// given `token_bytes`, the uncapped per-(group, device) dispatch
    /// volumes (left empty otherwise).
    fn expand(
        &self,
        gating: &LayerGating,
        placement: &ExpertPlacement,
        token_bytes: Option<f64>,
        scratch: &mut LayerScratch,
    ) {
        assert_eq!(
            gating.num_groups(),
            self.num_groups,
            "gating groups must match layout groups"
        );
        let num_devices = self.topo.num_devices();
        let LayerScratch {
            volume,
            device_tokens,
            device_active,
            expert_totals,
            ..
        } = scratch;
        reset(
            volume,
            token_bytes.map_or(0, |_| self.num_groups * num_devices),
        );
        reset(device_tokens, num_devices);
        reset(device_active, num_devices);
        reset(expert_totals, placement.num_experts());
        for (g, counts) in gating.counts.iter().enumerate() {
            for (e, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                expert_totals[e] += c as u64;
                let replicas = placement.replicas(e);
                let share = 1.0 / replicas.len() as f64;
                for &d in replicas {
                    if let Some(token_bytes) = token_bytes {
                        volume[g * num_devices + d.index()] += c as f64 * share * token_bytes;
                    }
                    device_tokens[d.index()] += c as f64 * share;
                }
            }
        }
        for (e, &total) in expert_totals.iter().enumerate() {
            if total > 0 {
                for &d in placement.replicas(e) {
                    device_active[d.index()] += 1.0;
                }
            }
        }
    }

    /// Step 2 of pricing: expands the per-(group, device) volumes into the
    /// explicit dispatch and combine transfer lists through the source
    /// table, applying node aggregation on hierarchical fabrics.
    fn transfer_pairs(&self, group_bytes_cap: f64, scratch: &mut LayerScratch) {
        for g in 0..self.num_groups {
            match &self.nodes {
                Some(nodes) => self.hierarchical_pairs(g, nodes, group_bytes_cap, scratch),
                None => self.flat_pairs(g, scratch),
            }
        }
    }

    /// Direct transfer expansion for one group: every source of every
    /// loaded destination sends its fraction of the group's volume there.
    fn flat_pairs(&self, g: usize, scratch: &mut LayerScratch) {
        let num_devices = self.topo.num_devices();
        let LayerScratch {
            volume,
            dispatch,
            combine,
            ..
        } = scratch;
        let group_volume = &volume[g * num_devices..(g + 1) * num_devices];
        for (d, &bytes) in group_volume.iter().enumerate() {
            if bytes <= 0.0 {
                continue;
            }
            let dst = DeviceId(d as u32);
            for source in &self.sources[g * num_devices + d] {
                if source.device == dst {
                    continue;
                }
                let part = bytes * source.fraction;
                dispatch.push((source.device, dst, part));
                combine.push((dst, source.device, part));
            }
        }
    }

    /// Node-aggregated transfer expansion for one group on a hierarchical
    /// cluster.
    fn hierarchical_pairs(
        &self,
        g: usize,
        nodes: &[u16],
        group_bytes_cap: f64,
        scratch: &mut LayerScratch,
    ) {
        let num_devices = self.topo.num_devices();
        let LayerScratch {
            volume,
            dispatch,
            combine,
            per_node,
            ..
        } = scratch;
        let volume = &volume[g * num_devices..(g + 1) * num_devices];
        // The cluster source table always has a single nearest source.
        let source_of = |d: usize| self.sources[g * num_devices + d][0].device;
        // Partition destinations by node.
        let max_node = nodes.iter().copied().max().unwrap_or(0) as usize;
        per_node.resize_with(max_node + 1, Vec::new);
        for bucket in per_node.iter_mut() {
            bucket.clear();
        }
        for (d, &bytes) in volume.iter().enumerate() {
            if bytes > 0.0 {
                per_node[nodes[d] as usize].push(d);
            }
        }
        for dsts in per_node.iter().filter(|v| !v.is_empty()) {
            // All members of one node share the same nearest source (the
            // layout picks by hop count, identical within a node).
            let src = source_of(dsts[0]);
            let src_node = nodes[src.index()];
            let dst_node = nodes[dsts[0]];
            if src_node == dst_node {
                // Intra-node: direct transfers.
                for &d in dsts {
                    let dst = DeviceId(d as u32);
                    if src == dst {
                        continue;
                    }
                    dispatch.push((src, dst, volume[d]));
                    combine.push((dst, src, volume[d]));
                }
            } else {
                // Cross-node: one aggregated transfer over the slow tier,
                // then intra-node distribution from the aggregation point.
                let total: f64 = dsts.iter().map(|&d| volume[d]).sum();
                let cross = total.min(group_bytes_cap);
                let agg = DeviceId(dsts[0] as u32);
                dispatch.push((src, agg, cross));
                combine.push((agg, src, cross));
                for &d in &dsts[1..] {
                    let dst = DeviceId(d as u32);
                    dispatch.push((agg, dst, volume[d]));
                    combine.push((dst, agg, volume[d]));
                }
            }
        }
    }
}

/// Applies the per-device dedup cap: a group sends a device at most
/// `group_bytes_cap` bytes however many of its experts the device hosts.
fn cap_volumes(volume: &mut [f64], group_bytes_cap: f64) {
    for v in volume {
        *v = v.min(group_bytes_cap);
    }
}

/// Clears `v` and refills it with `len` zeros, keeping its allocation.
fn reset<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{BaselineMapping, ErMapping, TpShape};
    use wsc_topology::{DgxCluster, Mesh, PlatformParams};

    fn uniform_gating(groups: usize, experts: usize, per_pair: u32) -> LayerGating {
        LayerGating {
            counts: vec![vec![per_pair; experts]; groups],
        }
    }

    #[test]
    fn er_beats_baseline_on_a2a() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let dims = topo.mesh_dims().unwrap();
        let placement = ExpertPlacement::balanced(16, 16, 1);
        let gating = uniform_gating(4, 16, 8);
        let token_bytes = 7168.0 * 2.0;

        let base_plan = BaselineMapping::new(dims, TpShape::new(2, 2))
            .unwrap()
            .plan();
        let er_plan = ErMapping::new(dims, TpShape::new(2, 2)).unwrap().plan();
        let base = A2aModel::new(&topo, &table, &base_plan).estimate(
            &gating,
            &placement,
            token_bytes,
            8 * 16,
        );
        let er = A2aModel::new(&topo, &table, &er_plan).estimate(
            &gating,
            &placement,
            token_bytes,
            8 * 16,
        );
        assert!(
            er.total_time() < base.total_time(),
            "ER {} vs baseline {}",
            er.total_time(),
            base.total_time()
        );
    }

    #[test]
    fn device_loads_conserved() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let placement = ExpertPlacement::balanced(16, 16, 1);
        let gating = uniform_gating(4, 16, 8);
        let est = A2aModel::new(&topo, &table, &plan).estimate(&gating, &placement, 1024.0, 128);
        let total: f64 = est.device_tokens.iter().sum();
        assert!((total - (4.0 * 16.0 * 8.0)).abs() < 1e-6);
        assert!((est.load_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replication_halves_hot_device_load() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 1))
            .unwrap()
            .plan();
        let mut placement = ExpertPlacement::balanced(4, 4, 1);
        let mut gating = uniform_gating(2, 4, 1);
        gating.counts[0][0] = 100; // expert 0 is hot
        let model = A2aModel::new(&topo, &table, &plan);
        let before = model.estimate(&gating, &placement, 1024.0, 1000);
        placement.add_replica(0, DeviceId(3)).unwrap();
        let after = model.estimate(&gating, &placement, 1024.0, 1000);
        assert!(after.load_ratio() < before.load_ratio());
    }

    #[test]
    fn estimate_with_backends_wafer_and_cluster() {
        use wsc_sim::CongestionBackend;
        // Wafer mesh (flat expansion) and DGX cluster (node-aggregated
        // expansion): the analytic backend must reproduce `estimate`
        // exactly, and the DES backend must stay within the documented
        // conservative-bound relationship on the same transfer lists.
        let wafer = Mesh::new(4, PlatformParams::dojo_like()).build();
        let wafer_table = RouteTable::build(&wafer);
        let wafer_plan = ErMapping::new(wafer.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let cluster = DgxCluster::new(2, PlatformParams::dgx_b200()).build();
        let cluster_table = RouteTable::build(&cluster);
        let cluster_layout = ClusterLayout::new(&cluster, 8);
        let cases: [(&Topology, &RouteTable, &dyn ParallelLayout); 2] = [
            (&wafer, &wafer_table, &wafer_plan),
            (&cluster, &cluster_table, &cluster_layout),
        ];
        for (topo, table, layout) in cases {
            let model = A2aModel::new(topo, table, layout);
            let placement = ExpertPlacement::balanced(16, topo.num_devices(), 1);
            let mut gating = uniform_gating(model.num_groups(), 16, 8);
            gating.counts[0][3] += 40; // some imbalance
            let fast = model.estimate(&gating, &placement, 1024.0, 256);
            let analytic = model.estimate_with(
                CongestionBackend::Analytic.build(topo).as_ref(),
                &gating,
                &placement,
                1024.0,
                256,
            );
            assert_eq!(fast.dispatch, analytic.dispatch);
            assert_eq!(fast.combine, analytic.combine);
            assert_eq!(fast.device_tokens, analytic.device_tokens);

            let des = model.estimate_with(
                CongestionBackend::FlowSim.build(topo).as_ref(),
                &gating,
                &placement,
                1024.0,
                256,
            );
            // The memoizing tier must reproduce the DES bit-for-bit, both on
            // the first (miss) and second (hit) pricing of the same layer.
            let cached_backend = CongestionBackend::FlowSimCached.build(topo);
            for _ in 0..2 {
                let cached =
                    model.estimate_with(cached_backend.as_ref(), &gating, &placement, 1024.0, 256);
                assert_eq!(cached.dispatch, des.dispatch);
                assert_eq!(cached.combine, des.combine);
            }
            assert_eq!(des.device_tokens, analytic.device_tokens);
            assert!(
                (des.dispatch.total_bytes - analytic.dispatch.total_bytes).abs() < 1e-6,
                "backends must price identical traffic"
            );
            assert!(des.total_time() > 0.0);
            assert!(
                des.dispatch.total_time >= analytic.dispatch.serialization_time * 0.999,
                "DES {} beats the serialization bound {}",
                des.dispatch.total_time,
                analytic.dispatch.serialization_time
            );
        }
    }

    proptest::proptest! {
        /// On every fidelity tier, [`A2aModel::price_layer`] prices a layer
        /// bit-identically to [`CongestionModel::price_pairs_time`] over
        /// [`A2aModel::fill_layer`]'s pair lists, and leaves the same
        /// loads; on a flat fabric it builds no pair list. The layouts cover
        /// single-source tables, `1/TP` source fractions (no all-gather),
        /// HER's counterpart groups on two wafers and a single-node DGX,
        /// plus a 2-node DGX on the kept pair path. Placements carry
        /// replicated experts (share ½) and zero-count experts, and the
        /// counts often exceed the per-device cap. Each model and backend
        /// prices several layers through the same scratches, so state left
        /// over from one layer would show in the next.
        #[test]
        fn price_layer_matches_pair_pricing(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            use wsc_sim::CongestionBackend;
            use wsc_topology::MultiWafer;
            use crate::mapping::HierarchicalErMapping;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA2A);
            let (topo, layout): (Topology, Box<dyn ParallelLayout>) = match seed % 6 {
                0..=2 => {
                    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
                    let dims = topo.mesh_dims().unwrap();
                    let plan = match seed % 6 {
                        0 => ErMapping::new(dims, TpShape::new(2, 2)).unwrap().plan(),
                        1 => BaselineMapping::new(dims, TpShape::new(2, 2)).unwrap().plan(),
                        _ => ErMapping::new(dims, TpShape::new(2, 2))
                            .unwrap()
                            .plan()
                            .without_all_gather(),
                    };
                    (topo, Box::new(plan))
                }
                3 => {
                    let topo = MultiWafer::grid(2, 1, 4, PlatformParams::dojo_like()).build();
                    let dims = topo.mesh_dims().unwrap();
                    let plan = HierarchicalErMapping::new(dims, TpShape::new(2, 2)).unwrap().plan();
                    (topo, Box::new(plan))
                }
                nodes => {
                    let params = PlatformParams::dgx_b200();
                    let topo = DgxCluster::new(nodes as u16 - 3, params).build();
                    let layout = ClusterLayout::new(&topo, 4);
                    (topo, Box::new(layout))
                }
            };
            let table = RouteTable::build(&topo);
            let model = A2aModel::new(&topo, &table, layout.as_ref());
            let flat = layout.hierarchical_nodes(&topo).is_none();
            let num_devices = topo.num_devices();
            let num_experts = num_devices * rng.gen_range(1usize..3);
            let mut placement = ExpertPlacement::balanced(num_experts, num_devices, 2);
            let (mut routed, mut paired) = (LayerScratch::default(), LayerScratch::default());
            for backend in CongestionBackend::all() {
                let backend = backend.build(&topo);
                for layer in 0..4 {
                    for _ in 0..rng.gen_range(0usize..3) {
                        let e = rng.gen_range(0..num_experts);
                        let d = DeviceId(rng.gen_range(0..num_devices as u32));
                        let _ = placement.add_replica(e, d);
                    }
                    let tokens = rng.gen_range(1u32..16);
                    let counts = (0..model.num_groups())
                        .map(|_| {
                            (0..num_experts)
                                .map(|_| match rng.gen_range(0u32..3) {
                                    0 => 0,
                                    _ => rng.gen_range(0..=tokens),
                                })
                                .collect()
                        })
                        .collect();
                    let gating = LayerGating { counts };
                    let pricing = (rng.gen_range(64.0f64..16384.0), tokens);
                    let (dispatch, combine) = model.price_layer(
                        backend.as_ref(),
                        &gating,
                        &placement,
                        pricing,
                        &mut routed,
                    );
                    model.fill_layer(&gating, &placement, Some(pricing), &mut paired);
                    let name = backend.name();
                    let priced = [(dispatch, &paired.dispatch), (combine, &paired.combine)];
                    for (time, pairs) in priced {
                        let expected = backend.price_pairs_time(&table, pairs);
                        proptest::prop_assert_eq!(
                            time.to_bits(),
                            expected.to_bits(),
                            "{} layer {}: {} vs {}", name, layer, time, expected
                        );
                    }
                    proptest::prop_assert_eq!(&routed.device_tokens, &paired.device_tokens);
                    proptest::prop_assert_eq!(&routed.device_active, &paired.device_active);
                    proptest::prop_assert_eq!(&routed.expert_totals, &paired.expert_totals);
                    if flat {
                        proptest::prop_assert!(routed.dispatch.is_empty());
                        proptest::prop_assert!(routed.combine.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_layout_all_reduce_and_sources() {
        let topo = DgxCluster::new(2, PlatformParams::dgx_b200()).build();
        let layout = ClusterLayout::new(&topo, 8);
        assert_eq!(layout.num_groups(), 2);
        assert_eq!(layout.tp_degree(), 8);
        // Token sources prefer same-node members; cross-node pulls are
        // spread by destination node (node 1 pulls from member 1).
        let sources = layout.token_sources(&topo, 0, DeviceId(9));
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].device, DeviceId(1));
        // A destination inside the group's own node is served locally.
        let local = layout.token_sources(&topo, 0, DeviceId(3));
        assert_eq!(local[0].device, DeviceId(3));
        let sched = layout.all_reduce_schedule(&topo, 1.0e6);
        assert!(sched.num_phases() > 0);
        assert!(layout.ftd_of_device(DeviceId(0)).is_none());
    }

    #[test]
    fn without_all_gather_halves_ar_schedule() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        let with_ag = plan.all_reduce_schedule(&topo, 1.0e6).num_phases();
        let without = plan
            .clone()
            .without_all_gather()
            .all_reduce_schedule(&topo, 1.0e6)
            .num_phases();
        assert_eq!(without * 2, with_ag);
    }
}
