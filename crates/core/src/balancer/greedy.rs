//! The EPLB-style greedy balancer (the paper's invasive baseline).

use wsc_topology::DeviceId;

use super::{BalanceAction, BalanceContext, Balancer, PlanScratch};

/// Greedy balancing as done by EPLB and FasterMoE-style systems: repeatedly
/// replicate the globally hottest per-replica expert onto the globally
/// coldest device with a free slot — **ignoring topology**, so replicas may
/// land many hops away and migration traffic is expensive (the deficiency
/// §V-C motivates the topology-aware variant with).
///
/// # Example
///
/// ```
/// use moentwine_core::balancer::{Balancer, BalanceContext, GreedyBalancer};
/// use moentwine_core::placement::ExpertPlacement;
/// use wsc_topology::{Mesh, PlatformParams, RouteTable};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let table = RouteTable::build(&topo);
/// let placement = ExpertPlacement::balanced(4, 4, 1);
/// let loads = vec![100.0, 1.0, 1.0, 1.0];
/// let mut balancer = GreedyBalancer::new(4);
/// let actions = balancer.plan_layer(&BalanceContext {
///     layer: 0,
///     expert_loads: &loads,
///     placement: &placement,
///     table: &table,
/// });
/// assert!(!actions.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct GreedyBalancer {
    max_actions_per_layer: usize,
    release_threshold: f64,
    scratch: PlanScratch,
}

impl GreedyBalancer {
    /// Creates a greedy balancer emitting at most `max_actions_per_layer`
    /// replications per planning call.
    pub fn new(max_actions_per_layer: usize) -> Self {
        GreedyBalancer {
            max_actions_per_layer,
            release_threshold: 0.05,
            scratch: PlanScratch::default(),
        }
    }

    /// Sets the stale-replica release threshold (fraction of mean device
    /// load below which a shadow replica is dropped).
    pub fn with_release_threshold(mut self, threshold: f64) -> Self {
        self.release_threshold = threshold;
        self
    }
}

impl Balancer for GreedyBalancer {
    fn plan_layer(&mut self, ctx: &BalanceContext<'_>) -> Vec<BalanceAction> {
        let Some((mut actions, mut plan)) = self.scratch.begin(ctx, self.release_threshold) else {
            return Vec::new();
        };
        for _ in 0..self.max_actions_per_layer {
            let placement = plan.placement();
            let heats = plan.heats();
            // Globally hottest per-replica expert.
            let Some((expert, _)) = (0..placement.num_experts())
                .map(|e| (e, ctx.expert_loads[e] / placement.num_replicas(e) as f64))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            else {
                break;
            };
            // Globally coldest device that can host it.
            let Some(target) = (0..placement.num_devices())
                .map(|d| DeviceId(d as u32))
                .filter(|&d| placement.has_free_slot(d) && !placement.hosts(d, expert))
                .min_by(|&a, &b| heats[a.index()].partial_cmp(&heats[b.index()]).unwrap())
            else {
                break;
            };
            // Only replicate if it actually reduces the peak.
            let new_share = ctx.expert_loads[expert] / (placement.num_replicas(expert) + 1) as f64;
            if heats[target.index()] + new_share >= heats.iter().copied().fold(0.0, f64::max) {
                break;
            }
            let source = placement.primary_device(expert);
            plan.replicate(expert, target);
            actions.push(BalanceAction::Replicate {
                layer: ctx.layer,
                expert,
                source,
                target,
            });
        }
        actions
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ExpertPlacement;
    use wsc_topology::{Mesh, PlatformParams, RouteTable};

    fn ctx_fixture() -> (wsc_topology::Topology, RouteTable) {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        (topo, table)
    }

    #[test]
    fn replicates_hot_expert_to_cold_device() {
        let (_topo, table) = ctx_fixture();
        let placement = ExpertPlacement::balanced(4, 4, 1);
        let loads = vec![90.0, 10.0, 10.0, 2.0];
        let mut b = GreedyBalancer::new(1);
        let actions = b.plan_layer(&BalanceContext {
            layer: 3,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        assert_eq!(actions.len(), 1);
        match actions[0] {
            BalanceAction::Replicate {
                layer,
                expert,
                target,
                ..
            } => {
                assert_eq!(layer, 3);
                assert_eq!(expert, 0);
                assert_eq!(target, DeviceId(3)); // coldest device
            }
            other => panic!("expected replicate, got {other:?}"),
        }
    }

    #[test]
    fn balanced_loads_produce_no_actions() {
        let (_topo, table) = ctx_fixture();
        let placement = ExpertPlacement::balanced(4, 4, 1);
        let loads = vec![10.0; 4];
        let mut b = GreedyBalancer::new(4);
        let actions = b.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn respects_action_cap() {
        let (_topo, table) = ctx_fixture();
        let placement = ExpertPlacement::balanced(8, 4, 2);
        let loads = vec![100.0, 90.0, 80.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mut b = GreedyBalancer::new(2);
        let actions = b.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        let replications = actions
            .iter()
            .filter(|a| matches!(a, BalanceAction::Replicate { .. }))
            .count();
        assert!(replications <= 2);
    }
}
