//! Expert load-balancing strategies (paper §V).
//!
//! A balancer inspects per-expert historical loads and the current
//! [`ExpertPlacement`] of one layer and
//! proposes actions: *replicate* an expert into a shadow slot elsewhere, or
//! *release* a stale shadow replica. Whether executing those actions stalls
//! inference is the engine's concern (invasive vs non-invasive execution,
//! see [`migration`](crate::migration)).
//!
//! Implementations:
//!
//! * [`GreedyBalancer`] — the EPLB-style baseline: replicate the globally
//!   hottest expert onto the globally coldest device, ignoring distance.
//! * [`TopologyAwareBalancer`] — the paper's Algorithm 1: migrate the most
//!   popular expert of the *hottest* device to the **topologically nearest**
//!   device that stays below the current peak heat.

mod greedy;
mod topo_aware;
mod trigger;

pub use greedy::GreedyBalancer;
pub use topo_aware::TopologyAwareBalancer;
pub use trigger::{cumulative_imbalance, Trigger};

use serde::{Deserialize, Serialize};
use wsc_topology::{DeviceId, RouteTable};

use crate::placement::{ExpertId, ExpertPlacement};

/// Everything a balancer sees when planning one layer.
pub struct BalanceContext<'a> {
    /// Sparse-layer index.
    pub layer: usize,
    /// Smoothed historical load per expert (the `Load_e` of Algorithm 1).
    pub expert_loads: &'a [f64],
    /// Current placement of the layer.
    pub placement: &'a ExpertPlacement,
    /// Route table for topology distances.
    pub table: &'a RouteTable,
}

/// One balancing action.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum BalanceAction {
    /// Copy `expert`'s weights from `source` into a shadow slot on `target`.
    Replicate {
        /// Layer the expert belongs to.
        layer: usize,
        /// The expert to replicate.
        expert: ExpertId,
        /// Replica to copy from (weights travel from here).
        source: DeviceId,
        /// Device receiving the new replica.
        target: DeviceId,
    },
    /// Drop the shadow replica of `expert` on `device` (no data movement).
    Release {
        /// Layer the expert belongs to.
        layer: usize,
        /// The expert whose replica is dropped.
        expert: ExpertId,
        /// Device freeing the slot.
        device: DeviceId,
    },
}

/// A load-balancing strategy. Object-safe; the engine holds a boxed
/// balancer. `Send` is a supertrait so an engine owning one can be moved
/// across worker-pool threads (see `crate::fleet`).
pub trait Balancer: Send {
    /// Plans actions for one layer. Implementations must not mutate the
    /// placement; the engine applies actions according to its execution
    /// policy.
    fn plan_layer(&mut self, ctx: &BalanceContext<'_>) -> Vec<BalanceAction>;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Which balancer (and execution style) an engine run uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BalancerKind {
    /// No balancing at all.
    None,
    /// EPLB-style greedy, executed invasively (migration on the critical
    /// path).
    Greedy,
    /// Algorithm 1, executed invasively.
    TopologyAware,
    /// Algorithm 1, executed non-invasively on cold links (the full
    /// NI-Balancer).
    NonInvasive,
}

impl BalancerKind {
    /// Stable lowercase name (`"no-balance"` / `"greedy"` /
    /// `"topology-aware"` / `"non-invasive"`), matching the `FromStr`
    /// spelling and the scenario-spec JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::None => "no-balance",
            BalancerKind::Greedy => "greedy",
            BalancerKind::TopologyAware => "topology-aware",
            BalancerKind::NonInvasive => "non-invasive",
        }
    }
}

impl std::fmt::Display for BalancerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BalancerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "no-balance" | "none" => Ok(BalancerKind::None),
            "greedy" => Ok(BalancerKind::Greedy),
            "topology-aware" => Ok(BalancerKind::TopologyAware),
            "non-invasive" | "ni" => Ok(BalancerKind::NonInvasive),
            other => Err(format!(
                "unknown balancer kind {other:?} (expected \"no-balance\", \
                 \"greedy\", \"topology-aware\", or \"non-invasive\")"
            )),
        }
    }
}

/// Planning state a balancer keeps across [`Balancer::plan_layer`] calls,
/// so that a plan allocates only the actions it returns.
///
/// A plan reads the context's placement in place. It copies that placement
/// into `placement` (with `clone_from`, which reuses every list) only when
/// it first mutates it, by releasing a stale replica or by replicating an
/// expert; most plans do neither and copy nothing. `heats` holds the
/// tentative placement's per-device heats (`Σ Load_e / Num_e`, Algorithm 1
/// line 1). They are summed once per plan, and after a mutation only the
/// devices whose hosted set or shares changed are summed again, each over
/// its experts in ascending order (`ExpertPlacement::device_load`), so
/// every heat has the bits a full `device_loads_into` would give it. A
/// settled layer ([`is_settled`]) is not planned at all: its plan is empty
/// and sums no heat.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanScratch {
    placement: Option<ExpertPlacement>,
    heats: Vec<f64>,
    hosted: Vec<ExpertId>,
}

impl PlanScratch {
    /// Opens a plan for `ctx`: returns the releases of its stale replicas
    /// (see [`stale_replicas`]) and the plan, with those releases applied
    /// to its tentative placement and heats. Returns `None` for a settled
    /// layer (see [`is_settled`]), whose plan is empty.
    pub(crate) fn begin<'a>(
        &'a mut self,
        ctx: &BalanceContext<'a>,
        release_threshold: f64,
    ) -> Option<(Vec<BalanceAction>, Plan<'a>)> {
        if is_settled(ctx, release_threshold) {
            return None;
        }
        self.heats.resize(ctx.placement.num_devices(), 0.0);
        ctx.placement
            .device_loads_into(ctx.expert_loads, &mut self.heats);
        let actions = stale_replicas(
            ctx.placement,
            ctx.expert_loads,
            &self.heats,
            ctx.layer,
            release_threshold,
        );
        let mut plan = Plan {
            base: ctx.placement,
            expert_loads: ctx.expert_loads,
            copied: false,
            scratch: self,
        };
        for a in &actions {
            if let BalanceAction::Release { expert, device, .. } = *a {
                let (placement, heats, hosted) = plan.copy_on_write();
                placement.remove_replica(expert, device);
                refresh_heats(
                    placement,
                    ctx.expert_loads,
                    heats,
                    hosted,
                    expert,
                    Some(device),
                );
            }
        }
        Some((actions, plan))
    }
}

/// Relative margin by which every shadow share must clear the release
/// bound for [`is_settled`]. The exact path's mean heat and the settled
/// check's mean are float sums of the same non-negative loads, each within
/// `(terms) · 2⁻⁵³` relative of the real mean; the margin covers both for
/// any placement of fewer than about 10⁹ experts and replicas.
const SETTLED_MARGIN: f64 = 1e-6;

/// Whether `ctx`'s layer is settled: every shadow slot is taken and no
/// shadow replica is due for release. Both balancers replicate only into a
/// free slot, so a settled layer's plan is empty, and this check decides
/// it without summing any heat.
///
/// The exact release test ([`stale_replicas`]) compares a replica's share
/// with `threshold ×` the mean device heat. Here the mean is `Σ Load_e / D`
/// instead, and a share must clear it by [`SETTLED_MARGIN`], so that the two
/// means' rounding cannot decide the test. A share closer to the bound, a
/// negative or non-finite load, a total load near overflow, or a threshold
/// that is not a finite non-negative number leaves the layer to the exact
/// path.
fn is_settled(ctx: &BalanceContext<'_>, release_threshold: f64) -> bool {
    let placement = ctx.placement;
    let devices = (0..placement.num_devices()).map(|d| DeviceId(d as u32));
    if devices.clone().any(|d| placement.has_free_slot(d))
        || !(release_threshold.is_finite() && release_threshold >= 0.0)
    {
        return false;
    }
    // Four independent lanes: the bound holds for any summation order, and
    // a serial chain of adds would cost more than the rest of the check.
    let (mut sum, mut min) = ([0.0f64; 4], [0.0f64; 4]);
    let mut chunks = ctx.expert_loads[..placement.num_experts()].chunks_exact(4);
    for chunk in &mut chunks {
        for k in 0..4 {
            sum[k] += chunk[k];
            min[k] = min[k].min(chunk[k]);
        }
    }
    for (k, &load) in chunks.remainder().iter().enumerate() {
        sum[k] += load;
        min[k] = min[k].min(load);
    }
    let total = (sum[0] + sum[1]) + (sum[2] + sum[3]);
    // A NaN or infinite load makes the total non-finite. Far from
    // overflow, the exact path's heats cannot overflow where this sum did
    // not.
    if !(2.0 * total).is_finite() || min.iter().any(|&m| m < 0.0) {
        return false;
    }
    let bound =
        release_threshold * (total / placement.num_devices() as f64) * (1.0 + SETTLED_MARGIN);
    devices
        .flat_map(|d| placement.shadow_experts(d))
        .all(|&e| ctx.expert_loads[e] / placement.num_replicas(e) as f64 >= bound)
}

/// One plan in progress, opened by [`PlanScratch::begin`]: the tentative
/// placement (the context's own until the plan first mutates it) and its
/// device heats.
pub(crate) struct Plan<'a> {
    base: &'a ExpertPlacement,
    expert_loads: &'a [f64],
    /// Whether `scratch.placement` holds the tentative placement.
    copied: bool,
    scratch: &'a mut PlanScratch,
}

impl Plan<'_> {
    /// The tentative placement.
    pub(crate) fn placement(&self) -> &ExpertPlacement {
        match &self.scratch.placement {
            Some(copy) if self.copied => copy,
            _ => self.base,
        }
    }

    /// The tentative placement's heat per device.
    pub(crate) fn heats(&self) -> &[f64] {
        &self.scratch.heats
    }

    /// Adds a replica of `expert` on `target` to the tentative placement
    /// and updates the heats.
    ///
    /// # Panics
    ///
    /// Panics if `target` already hosts `expert` or has no free slot; the
    /// balancers pick only targets that pass both checks.
    pub(crate) fn replicate(&mut self, expert: ExpertId, target: DeviceId) {
        let expert_loads = self.expert_loads;
        let (placement, heats, hosted) = self.copy_on_write();
        placement
            .add_replica(expert, target)
            .expect("target validated");
        refresh_heats(placement, expert_loads, heats, hosted, expert, None);
    }

    /// The scratch copy of the tentative placement, refilled from the
    /// context on the plan's first call, beside the heats and the scratch
    /// for their summation order.
    fn copy_on_write(&mut self) -> (&mut ExpertPlacement, &mut [f64], &mut Vec<ExpertId>) {
        let PlanScratch {
            placement,
            heats,
            hosted,
        } = &mut *self.scratch;
        let placement = match placement {
            Some(copy) => {
                if !self.copied {
                    copy.clone_from(self.base);
                }
                copy
            }
            slot @ None => slot.insert(self.base.clone()),
        };
        self.copied = true;
        (placement, heats, hosted)
    }
}

/// Re-sums the `heats` that a changed replica count of `expert` moves:
/// those of its hosts in `placement` and of `released`, the device that
/// just dropped it.
fn refresh_heats(
    placement: &ExpertPlacement,
    expert_loads: &[f64],
    heats: &mut [f64],
    hosted: &mut Vec<ExpertId>,
    expert: ExpertId,
    released: Option<DeviceId>,
) {
    for &d in placement.replicas(expert).iter().chain(&released) {
        heats[d.index()] = placement.device_load(expert_loads, d, hosted);
    }
}

/// Releases of the shadow replicas that no longer pull their weight, given
/// the placement's device `heats`. A replica is stale when its per-replica
/// share is below `threshold ×` the mean device heat — this keeps slots
/// available as the scenario mixture drifts (paper §V-B: "continuous
/// fine-tuning of slot assignments").
fn stale_replicas(
    placement: &ExpertPlacement,
    expert_loads: &[f64],
    heats: &[f64],
    layer: usize,
    threshold: f64,
) -> Vec<BalanceAction> {
    let mean = heats.iter().sum::<f64>() / heats.len() as f64;
    if mean <= 0.0 {
        return Vec::new();
    }
    let mut actions = Vec::new();
    for d in 0..placement.num_devices() {
        let device = DeviceId(d as u32);
        for &e in placement.shadow_experts(device) {
            let share = expert_loads[e] / placement.num_replicas(e) as f64;
            if share < threshold * mean {
                actions.push(BalanceAction::Release {
                    layer,
                    expert: e,
                    device,
                });
            }
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wsc_topology::{Mesh, PlatformParams};

    /// The clone-based plan the copy-on-write plans must equal: a fresh
    /// clone of the context's placement with the releases applied, and
    /// every device's heat re-summed before each search. The search bodies
    /// are those of [`TopologyAwareBalancer`] and [`GreedyBalancer`].
    fn reference_plan(
        ctx: &BalanceContext<'_>,
        greedy: bool,
        max_actions: usize,
        release_threshold: f64,
    ) -> Vec<BalanceAction> {
        let heats = ctx.placement.device_loads(ctx.expert_loads);
        let mut actions = stale_replicas(
            ctx.placement,
            ctx.expert_loads,
            &heats,
            ctx.layer,
            release_threshold,
        );
        let mut placement = ctx.placement.clone();
        for a in &actions {
            if let BalanceAction::Release { expert, device, .. } = *a {
                placement.remove_replica(expert, device);
            }
        }
        for _ in 0..max_actions {
            let heats = placement.device_loads(ctx.expert_loads);
            let step = if greedy {
                reference_greedy_step(ctx, &placement, &heats)
            } else {
                reference_topology_aware_step(ctx, &placement, &heats)
            };
            let Some((expert, source, target)) = step else {
                break;
            };
            placement.add_replica(expert, target).unwrap();
            actions.push(BalanceAction::Replicate {
                layer: ctx.layer,
                expert,
                source,
                target,
            });
        }
        actions
    }

    fn reference_topology_aware_step(
        ctx: &BalanceContext<'_>,
        placement: &ExpertPlacement,
        heats: &[f64],
    ) -> Option<(ExpertId, DeviceId, DeviceId)> {
        let hottest = (0..placement.num_devices())
            .map(|d| DeviceId(d as u32))
            .max_by(|&a, &b| heats[a.index()].partial_cmp(&heats[b.index()]).unwrap())?;
        let (src_e, src_share) = placement
            .primary_experts(hottest)
            .iter()
            .chain(placement.shadow_experts(hottest))
            .map(|&e| (e, ctx.expert_loads[e] / placement.num_replicas(e) as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())?;
        if src_share <= 0.0 {
            return None;
        }
        let new_share = ctx.expert_loads[src_e] / (placement.num_replicas(src_e) + 1) as f64;
        let target = (0..placement.num_devices())
            .map(|d| DeviceId(d as u32))
            .filter(|&d| {
                heats[d.index()] + new_share < heats[hottest.index()]
                    && placement.has_free_slot(d)
                    && !placement.hosts(d, src_e)
            })
            .min_by_key(|&d| (ctx.table.hops(hottest, d), d))?;
        Some((src_e, hottest, target))
    }

    fn reference_greedy_step(
        ctx: &BalanceContext<'_>,
        placement: &ExpertPlacement,
        heats: &[f64],
    ) -> Option<(ExpertId, DeviceId, DeviceId)> {
        let (expert, _) = (0..placement.num_experts())
            .map(|e| (e, ctx.expert_loads[e] / placement.num_replicas(e) as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())?;
        let target = (0..placement.num_devices())
            .map(|d| DeviceId(d as u32))
            .filter(|&d| placement.has_free_slot(d) && !placement.hosts(d, expert))
            .min_by(|&a, &b| heats[a.index()].partial_cmp(&heats[b.index()]).unwrap())?;
        let new_share = ctx.expert_loads[expert] / (placement.num_replicas(expert) + 1) as f64;
        if heats[target.index()] + new_share >= heats.iter().copied().fold(0.0, f64::max) {
            return None;
        }
        Some((expert, placement.primary_device(expert), target))
    }

    /// A random layer over `devices` devices: its placement, with most
    /// shadow slots filled, and its expert loads, often zero or tied, now
    /// and then large enough to overflow a heat.
    fn random_layer(rng: &mut StdRng, devices: usize) -> (ExpertPlacement, Vec<f64>) {
        let experts = rng.gen_range(1..=3 * devices);
        let slots = rng.gen_range(0..=3usize);
        let mut placement = ExpertPlacement::balanced(experts, devices, slots);
        let fill = [1.0, 1.0, 0.8, 0.3][rng.gen_range(0..4usize)];
        for d in 0..devices {
            for _ in 0..slots {
                if rng.gen_bool(fill) {
                    // Four draws that are all hosted already leave the slot
                    // free.
                    (0..4).any(|_| {
                        let e = rng.gen_range(0..experts);
                        placement.add_replica(e, DeviceId(d as u32)).is_ok()
                    });
                }
            }
        }
        let loads = match rng.gen_range(0..5u32) {
            // Few distinct values: tied shares and tied heats.
            0 | 1 => {
                let levels = [0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 48.0];
                (0..experts)
                    .map(|_| levels[rng.gen_range(0..levels.len())])
                    .collect()
            }
            2 => (0..experts)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen_range(0.0..100.0) * rng.gen_range(0.0..1.0)
                    }
                })
                .collect(),
            // Loads whose heats overflow.
            3 => {
                let levels = [0.0, 1e300, 1e307, f64::MAX / 3.0];
                (0..experts)
                    .map(|_| levels[rng.gen_range(0..levels.len())])
                    .collect()
            }
            _ => vec![0.0; experts],
        };
        (placement, loads)
    }

    /// A release threshold that puts the smallest shadow share within two
    /// ulps of `threshold ×` the mean device heat of the exact path, on
    /// either side, or `None` if the layer has no shadow replica or no
    /// load.
    fn boundary_threshold(
        rng: &mut StdRng,
        placement: &ExpertPlacement,
        loads: &[f64],
    ) -> Option<f64> {
        let heats = placement.device_loads(loads);
        let mean = heats.iter().sum::<f64>() / heats.len() as f64;
        let share = (0..placement.num_devices())
            .flat_map(|d| placement.shadow_experts(DeviceId(d as u32)))
            .map(|&e| loads[e] / placement.num_replicas(e) as f64)
            .min_by(f64::total_cmp)?;
        if mean <= 0.0 {
            return None;
        }
        let ulps = rng.gen_range(0..5u32) as f64 - 2.0;
        Some(share / mean * (1.0 + ulps * f64::EPSILON))
    }

    proptest::proptest! {
        /// [`TopologyAwareBalancer`] and [`GreedyBalancer`] plan exactly
        /// what [`reference_plan`] plans: the same actions in the same
        /// order. Each case runs one reused balancer of each kind over
        /// consecutive layer contexts (meshes of 4–16 devices, most shadow
        /// slots filled, release thresholds from none to most replicas due
        /// and right at a share, zero and tied loads, a layer of another
        /// shape now and then), so scratch state carried from one plan to
        /// the next would show, and so would a settled layer
        /// ([`is_settled`]) whose exact plan is not empty.
        #[test]
        fn copy_on_write_plans_match_clone_based_plans(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1A);
            let topo = Mesh::new(rng.gen_range(2..=4u16), PlatformParams::dojo_like()).build();
            let table = RouteTable::build(&topo);
            let devices = topo.num_devices();
            let max_actions = rng.gen_range(0..=6usize);
            let (mut placement, mut loads) = random_layer(&mut rng, devices);
            let threshold = match rng.gen_range(0..4u32) {
                // A shadow share right at the release bound of the first
                // layer (and of every later layer that keeps its loads).
                0 | 1 => boundary_threshold(&mut rng, &placement, &loads).unwrap_or(0.05),
                _ => [0.0, 0.05, 0.3, 1.0, 2.0][rng.gen_range(0..5usize)],
            };
            let mut topology_aware =
                TopologyAwareBalancer::new(max_actions).with_release_threshold(threshold);
            let mut greedy = GreedyBalancer::new(max_actions).with_release_threshold(threshold);
            for layer in 0..8 {
                match if layer == 0 { 3 } else { rng.gen_range(0..4u32) } {
                    0 => (placement, loads) = random_layer(&mut rng, devices),
                    // The same shape with fresh loads, as consecutive
                    // layers of one engine have.
                    1 | 2 => {
                        for load in &mut loads {
                            *load = [0.0, 1.0, 3.0, *load][rng.gen_range(0..4usize)];
                        }
                    }
                    _ => {}
                }
                let ctx = BalanceContext {
                    layer,
                    expert_loads: &loads,
                    placement: &placement,
                    table: &table,
                };
                proptest::prop_assert_eq!(
                    topology_aware.plan_layer(&ctx),
                    reference_plan(&ctx, false, max_actions, threshold),
                    "topology-aware, seed {} layer {}", seed, layer
                );
                proptest::prop_assert_eq!(
                    greedy.plan_layer(&ctx),
                    reference_plan(&ctx, true, max_actions, threshold),
                    "greedy, seed {} layer {}", seed, layer
                );
            }
        }

        /// After releases and replications, a plan's heats keep the bits
        /// of a full [`ExpertPlacement::device_loads_into`] over its
        /// tentative placement, and the context's placement is untouched.
        #[test]
        fn plan_heats_match_a_full_resum(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4EA7);
            let topo = Mesh::new(rng.gen_range(2..=4u16), PlatformParams::dojo_like()).build();
            let table = RouteTable::build(&topo);
            let mut scratch = PlanScratch::default();
            for layer in 0..4 {
                let (placement, loads) = random_layer(&mut rng, topo.num_devices());
                let untouched = placement.clone();
                let ctx = BalanceContext {
                    layer,
                    expert_loads: &loads,
                    placement: &placement,
                    table: &table,
                };
                let threshold = [0.0, 0.3, 2.0][rng.gen_range(0..3usize)];
                let Some((_, mut plan)) = scratch.begin(&ctx, threshold) else {
                    continue;
                };
                for _ in 0..rng.gen_range(0..=6usize) {
                    let bits = |heats: &[f64]| heats.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(
                        bits(plan.heats()),
                        bits(&plan.placement().device_loads(&loads))
                    );
                    let expert = rng.gen_range(0..loads.len());
                    let Some(target) = (0..topo.num_devices())
                        .map(|d| DeviceId(d as u32))
                        .find(|&d| {
                            plan.placement().has_free_slot(d) && !plan.placement().hosts(d, expert)
                        })
                    else {
                        break;
                    };
                    plan.replicate(expert, target);
                }
                proptest::prop_assert_eq!(&placement, &untouched);
            }
        }
    }

    #[test]
    fn balancer_kind_display() {
        assert_eq!(BalancerKind::NonInvasive.to_string(), "non-invasive");
        assert_eq!(BalancerKind::Greedy.to_string(), "greedy");
    }

    #[test]
    fn settled_check_leaves_doubtful_layers_to_the_exact_path() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let mut placement = ExpertPlacement::balanced(8, 4, 1);
        for d in 0..4u32 {
            placement
                .add_replica((2 * d as usize + 2) % 8, DeviceId(d))
                .unwrap();
        }
        let settled = |placement: &ExpertPlacement, loads: &[f64], threshold: f64| {
            let ctx = BalanceContext {
                layer: 0,
                expert_loads: loads,
                placement,
                table: &table,
            };
            is_settled(&ctx, threshold)
        };
        // Every slot is taken and every shadow share is 5 against a mean
        // heat of 20: settled below a threshold of 1/4.
        let loads = [10.0; 8];
        assert!(settled(&placement, &loads, 0.05));
        assert!(settled(&placement, &loads, 0.0));
        assert!(!settled(&placement, &loads, 0.25), "a share at the bound");
        assert!(!settled(&placement, &loads, f64::NAN));
        assert!(!settled(&placement, &loads, -1.0));
        let mut odd = loads;
        odd[7] = f64::NAN;
        assert!(!settled(&placement, &odd, 0.05));
        odd[7] = -1.0;
        assert!(!settled(&placement, &odd, 0.05));
        let huge = [f64::MAX / 12.0; 8];
        assert!(!settled(&placement, &huge, 0.05), "near overflow");
        // A free slot leaves room for a replication.
        placement.remove_replica(2, DeviceId(0));
        assert!(!settled(&placement, &loads, 0.05));
    }

    #[test]
    fn stale_replica_detection() {
        let mut p = ExpertPlacement::balanced(4, 4, 1);
        p.add_replica(0, DeviceId(2)).unwrap();
        // Expert 0 has negligible load → its replica on device 2 is stale.
        let loads = [0.01, 10.0, 10.0, 10.0];
        let actions = stale_replicas(&p, &loads, &p.device_loads(&loads), 0, 0.1);
        assert_eq!(
            actions,
            vec![BalanceAction::Release {
                layer: 0,
                expert: 0,
                device: DeviceId(2)
            }]
        );
        // A busy replica is kept.
        let busy = [40.0, 10.0, 10.0, 10.0];
        assert!(stale_replicas(&p, &busy, &p.device_loads(&busy), 0, 0.1).is_empty());
    }
}
