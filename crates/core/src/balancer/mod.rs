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
/// so that a plan allocates only the actions it returns: the tentative
/// placement the plan mutates, refilled from the context with
/// `clone_from`, and its per-device heats (`Σ Load_e / Num_e`, Algorithm 1
/// line 1).
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanScratch {
    placement: Option<ExpertPlacement>,
    heats: Vec<f64>,
}

impl PlanScratch {
    /// Opens a plan for `ctx`: returns the releases of its stale replicas
    /// (see [`stale_replicas`]), the tentative placement with those
    /// releases applied, and a heat buffer with one slot per device.
    pub(crate) fn begin(
        &mut self,
        ctx: &BalanceContext<'_>,
        release_threshold: f64,
    ) -> (Vec<BalanceAction>, &mut ExpertPlacement, &mut [f64]) {
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
        let placement = self.placement.get_or_insert_with(|| ctx.placement.clone());
        placement.clone_from(ctx.placement);
        for a in &actions {
            if let BalanceAction::Release { expert, device, .. } = *a {
                placement.remove_replica(expert, device);
            }
        }
        (actions, placement, &mut self.heats)
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

    #[test]
    fn balancer_kind_display() {
        assert_eq!(BalancerKind::NonInvasive.to_string(), "non-invasive");
        assert_eq!(BalancerKind::Greedy.to_string(), "greedy");
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
