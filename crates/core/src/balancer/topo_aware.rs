//! The topology-aware balancer (paper Algorithm 1).

use wsc_topology::DeviceId;

use super::{BalanceAction, BalanceContext, Balancer, PlanScratch};

/// Algorithm 1 of the paper:
///
/// 1. `Heat_d ← Σ Load_e / Num_e` for the experts on each device.
/// 2. Pick the hottest device; its most popular per-replica expert is the
///    migration source `src_e`.
/// 3. `cold_d ← { d : Heat_d < Heat_hottest − Load_src/Num_src }`, keeping
///    only devices with a free shadow slot not already hosting `src_e`.
/// 4. Break if `cold_d` is empty; otherwise pick the **topologically
///    nearest** member of `cold_d` to the source replica — any cold device
///    reduces the peak equally, so the tie-break minimises migration
///    distance and keeps the balancer agile (§V-C).
/// 5. Copy, increment `Num`, update heats; repeat.
///
/// # Example
///
/// ```
/// use moentwine_core::balancer::{Balancer, BalanceContext, TopologyAwareBalancer};
/// use moentwine_core::placement::ExpertPlacement;
/// use wsc_topology::{Mesh, PlatformParams, RouteTable};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let table = RouteTable::build(&topo);
/// let placement = ExpertPlacement::balanced(4, 4, 1);
/// let loads = vec![100.0, 1.0, 1.0, 1.0];
/// let mut balancer = TopologyAwareBalancer::new(4);
/// let actions = balancer.plan_layer(&BalanceContext {
///     layer: 0,
///     expert_loads: &loads,
///     placement: &placement,
///     table: &table,
/// });
/// assert!(!actions.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TopologyAwareBalancer {
    max_actions_per_layer: usize,
    release_threshold: f64,
    scratch: PlanScratch,
}

impl TopologyAwareBalancer {
    /// Creates a balancer emitting at most `max_actions_per_layer`
    /// replications per planning call.
    pub fn new(max_actions_per_layer: usize) -> Self {
        TopologyAwareBalancer {
            max_actions_per_layer,
            release_threshold: 0.05,
            scratch: PlanScratch::default(),
        }
    }

    /// Sets the stale-replica release threshold.
    pub fn with_release_threshold(mut self, threshold: f64) -> Self {
        self.release_threshold = threshold;
        self
    }
}

impl Balancer for TopologyAwareBalancer {
    fn plan_layer(&mut self, ctx: &BalanceContext<'_>) -> Vec<BalanceAction> {
        let Some((mut actions, mut plan)) = self.scratch.begin(ctx, self.release_threshold) else {
            return Vec::new();
        };
        for _ in 0..self.max_actions_per_layer {
            let placement = plan.placement();
            let heats = plan.heats();
            // Line 3: hottest device.
            let hottest = (0..placement.num_devices())
                .map(|d| DeviceId(d as u32))
                .max_by(|&a, &b| heats[a.index()].partial_cmp(&heats[b.index()]).unwrap())
                .expect("at least one device");
            // Line 4: its most popular per-replica expert.
            let Some((src_e, src_share)) = placement
                .primary_experts(hottest)
                .iter()
                .chain(placement.shadow_experts(hottest))
                .map(|&e| (e, ctx.expert_loads[e] / placement.num_replicas(e) as f64))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            else {
                break;
            };
            if src_share <= 0.0 {
                break;
            }
            // The replica we copy from is the one on the hottest device.
            let source = hottest;
            // Line 5: cold set — "devices whose Heat_d would not exceed the
            // current maximum after hosting this expert" (§V-C), with the
            // post-replication share Load/(Num+1).
            let new_share = ctx.expert_loads[src_e] / (placement.num_replicas(src_e) + 1) as f64;
            // Line 7: its topologically nearest member; line 6: break if
            // the set is empty.
            let Some(target) = (0..placement.num_devices())
                .map(|d| DeviceId(d as u32))
                .filter(|&d| {
                    heats[d.index()] + new_share < heats[hottest.index()]
                        && placement.has_free_slot(d)
                        && !placement.hosts(d, src_e)
                })
                .min_by_key(|&d| (ctx.table.hops(source, d), d))
            else {
                break;
            };
            // Lines 8–9: copy and update.
            plan.replicate(src_e, target);
            actions.push(BalanceAction::Replicate {
                layer: ctx.layer,
                expert: src_e,
                source,
                target,
            });
        }
        actions
    }

    fn name(&self) -> &'static str {
        "topology-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ExpertPlacement;
    use wsc_topology::{Mesh, PlatformParams, RouteTable, Topology};

    fn fixture() -> (Topology, RouteTable) {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        (topo, table)
    }

    #[test]
    fn prefers_nearest_cold_device() {
        let (_topo, table) = fixture();
        // 16 devices; expert 0 on device 0 is hot; devices 1 and 15 equally
        // cold — the balancer must choose device 1 (1 hop from device 0).
        let placement = ExpertPlacement::balanced(16, 16, 1);
        let mut loads = vec![1.0; 16];
        loads[0] = 50.0;
        let mut b = TopologyAwareBalancer::new(1);
        let actions = b.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        match actions.last() {
            Some(&BalanceAction::Replicate {
                expert,
                target,
                source,
                ..
            }) => {
                assert_eq!(expert, 0);
                assert_eq!(source, DeviceId(0));
                // Nearest cold devices to (0,0) are (1,0)=id1 and (0,1)=id4.
                assert_eq!(table.hops(DeviceId(0), target), 1);
            }
            other => panic!("expected replicate, got {other:?}"),
        }
    }

    #[test]
    fn terminates_when_no_cold_devices() {
        let (_topo, table) = fixture();
        let placement = ExpertPlacement::balanced(16, 16, 1);
        let loads = vec![5.0; 16];
        let mut b = TopologyAwareBalancer::new(8);
        let actions = b.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        assert!(actions.is_empty());
    }

    #[test]
    fn replication_reduces_peak_heat() {
        let (_topo, table) = fixture();
        let mut placement = ExpertPlacement::balanced(16, 16, 1);
        let mut loads = vec![1.0; 16];
        loads[5] = 64.0;
        let mut b = TopologyAwareBalancer::new(4);
        let actions = b.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        let before = placement
            .device_loads(&loads)
            .into_iter()
            .fold(0.0, f64::max);
        for a in &actions {
            if let BalanceAction::Replicate { expert, target, .. } = *a {
                placement.add_replica(expert, target).unwrap();
            }
        }
        let after = placement
            .device_loads(&loads)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn migration_distance_below_greedy() {
        // With the hot device in a corner and equally-cold candidates
        // everywhere, topology-aware migrations are short.
        let (_topo, table) = fixture();
        let placement = ExpertPlacement::balanced(16, 16, 2);
        let mut loads = vec![2.0; 16];
        loads[0] = 40.0;
        loads[1] = 30.0;
        let mut b = TopologyAwareBalancer::new(4);
        let actions = b.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        for a in actions {
            if let BalanceAction::Replicate { source, target, .. } = a {
                assert!(table.hops(source, target) <= 3, "{source}->{target}");
            }
        }
    }
}
