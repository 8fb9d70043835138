//! Property-based tests (proptest) on the core data structures and
//! invariants.

use proptest::prelude::*;

use moentwine::core::balancer::{
    BalanceAction, BalanceContext, Balancer, GreedyBalancer, TopologyAwareBalancer,
};
use moentwine::core::migration::{decompose_route, MigrationPhase};
use moentwine::core::placement::ExpertPlacement;
use moentwine::prelude::*;
use moentwine::sim::fairshare::max_min_rates;
use moentwine::sim::{FlowSpec, IncrementalMaxMin, NetworkSim};
use moentwine::workload::sample_gating_counts;

/// Relative-tolerance comparison with an absolute floor, as the incremental
/// fair-share contract specifies (1e-9 relative).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
}

proptest! {
    /// Max-min fairness never oversubscribes a link and never assigns a
    /// negative rate.
    #[test]
    fn fairshare_respects_capacities(
        seed in 0u64..1000,
        num_flows in 1usize..20,
        num_links in 1usize..10,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let capacity: Vec<f64> =
            (0..num_links).map(|_| rng.gen_range(1.0..100.0)).collect();
        let routes: Vec<Vec<usize>> = (0..num_flows)
            .map(|_| {
                let len = rng.gen_range(0..=num_links.min(4));
                let mut ls: Vec<usize> =
                    (0..len).map(|_| rng.gen_range(0..num_links)).collect();
                ls.sort_unstable();
                ls.dedup();
                ls
            })
            .collect();
        let rates = max_min_rates(&routes, &capacity);
        let mut used = vec![0.0; num_links];
        for (f, route) in routes.iter().enumerate() {
            prop_assert!(rates[f] >= 0.0);
            for &l in route {
                used[l] += rates[f];
            }
        }
        for l in 0..num_links {
            prop_assert!(used[l] <= capacity[l] * (1.0 + 1e-9));
        }
    }

    /// Max-min fairness is work-conserving: every non-empty flow is
    /// bottlenecked somewhere (some link on its route is ~saturated).
    #[test]
    fn fairshare_is_work_conserving(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let num_links = 6;
        let capacity: Vec<f64> = (0..num_links).map(|_| rng.gen_range(1.0..50.0)).collect();
        let routes: Vec<Vec<usize>> = (0..8)
            .map(|_| {
                let a: usize = rng.gen_range(0..num_links);
                let b: usize = rng.gen_range(0..num_links);
                if a == b { vec![a] } else { vec![a.min(b), a.max(b)] }
            })
            .collect();
        let rates = max_min_rates(&routes, &capacity);
        let mut used = vec![0.0; num_links];
        for (f, route) in routes.iter().enumerate() {
            for &l in route {
                used[l] += rates[f];
            }
        }
        for (f, route) in routes.iter().enumerate() {
            if route.is_empty() { continue; }
            let bottlenecked = route
                .iter()
                .any(|&l| used[l] >= capacity[l] * (1.0 - 1e-6));
            prop_assert!(bottlenecked, "flow {f} rate {} unconstrained", rates[f]);
        }
    }

    /// Incremental fair-share contract: after any arrival/completion churn,
    /// the incremental allocator's rates equal the full-recompute
    /// water-filling oracle over the surviving flow set, to 1e-9 relative
    /// tolerance, on random link sets and random routes.
    #[test]
    fn incremental_fairshare_matches_oracle(
        seed in 0u64..1000,
        num_flows in 1usize..24,
        num_links in 1usize..12,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFA1B);
        let capacity: Vec<f64> =
            (0..num_links).map(|_| rng.gen_range(1.0..100.0)).collect();
        let routes: Vec<Vec<usize>> = (0..num_flows)
            .map(|_| {
                let len = rng.gen_range(0..=num_links.min(4));
                let mut ls: Vec<usize> =
                    (0..len).map(|_| rng.gen_range(0..num_links)).collect();
                ls.sort_unstable();
                ls.dedup();
                ls
            })
            .collect();
        let mut alloc = IncrementalMaxMin::new(capacity.clone());
        let ids: Vec<u32> = routes
            .iter()
            .map(|r| {
                let links: Vec<u32> = r.iter().map(|&l| l as u32).collect();
                alloc.register(&links)
            })
            .collect();
        // Arrive one by one, rebalancing after each arrival.
        for &id in &ids {
            alloc.activate(id);
            alloc.rebalance();
        }
        // Retire a random subset, rebalancing after each completion.
        let mut active: Vec<usize> = (0..num_flows).collect();
        let retire = rng.gen_range(0..num_flows);
        for _ in 0..retire {
            let pos = rng.gen_range(0..active.len());
            let f = active.swap_remove(pos);
            alloc.deactivate(ids[f]);
            alloc.rebalance();
        }
        // Oracle over the survivors.
        let surviving: Vec<Vec<usize>> =
            active.iter().map(|&f| routes[f].clone()).collect();
        let oracle = max_min_rates(&surviving, &capacity);
        for (&f, &expect) in active.iter().zip(&oracle) {
            let got = alloc.rate(ids[f]);
            if expect.is_infinite() {
                prop_assert!(got.is_infinite(), "flow {f}: {got} vs inf");
            } else {
                prop_assert!(close(got, expect), "flow {f}: {got} vs {expect}");
            }
        }
    }

    /// Event-order invariance: permuting the submission order of a flow set
    /// changes neither the makespan nor any flow's completion time beyond
    /// floating-point tolerance.
    #[test]
    fn network_sim_is_event_order_invariant(seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0DE5);
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let n = topo.num_devices() as u32;
        let num_flows = rng.gen_range(2usize..24);
        let flows: Vec<(f64, FlowSpec)> = (0..num_flows)
            .map(|_| {
                let src = DeviceId(rng.gen_range(0..n));
                let dst = DeviceId(rng.gen_range(0..n));
                let bytes = rng.gen_range(1.0e5..5.0e7);
                let start = rng.gen_range(0.0..2.0e-4);
                (start, FlowSpec::new(topo.route(src, dst), bytes))
            })
            .collect();
        // A seed-derived permutation.
        let mut perm: Vec<usize> = (0..num_flows).collect();
        for i in (1..num_flows).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let shuffled: Vec<(f64, FlowSpec)> =
            perm.iter().map(|&i| flows[i].clone()).collect();
        let base = NetworkSim::new(&topo).run_at(&flows);
        let permuted = NetworkSim::new(&topo).run_at(&shuffled);
        prop_assert!(
            close(base.total_time, permuted.total_time),
            "makespan {} vs {}",
            base.total_time,
            permuted.total_time
        );
        for (k, &i) in perm.iter().enumerate() {
            prop_assert!(
                close(base.completion_times[i], permuted.completion_times[k]),
                "flow {i}: {} vs {}",
                base.completion_times[i],
                permuted.completion_times[k]
            );
        }
    }

    /// Gating counts always sum to tokens × top_k and respect the per-token
    /// cap, for arbitrary normalized distributions.
    #[test]
    fn gating_counts_conserved(
        seed in 0u64..1000,
        tokens in 1u32..512,
        raw in proptest::collection::vec(0.01f64..10.0, 2..32),
    ) {
        use rand::SeedableRng;
        let total: f64 = raw.iter().sum();
        let dist: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let top_k = 1 + (seed % (dist.len() as u64).min(4)) as u32;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts = sample_gating_counts(&mut rng, &dist, tokens, top_k);
        let sum: u64 = counts.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(sum, tokens as u64 * top_k as u64);
        prop_assert!(counts.iter().all(|&c| c <= tokens));
    }

    /// ER-Mapping partitions: every device is in exactly one TP group and
    /// exactly one FTD; each FTD holds one device per group.
    #[test]
    fn er_mapping_partitions(case in 0usize..6) {
        let configs = [
            (4u16, 2u16, 2u16),
            (4, 2, 1),
            (6, 2, 3),
            (6, 3, 2),
            (8, 2, 2),
            (8, 4, 2),
        ];
        let (n, tpx, tpy) = configs[case];
        let topo = Mesh::new(n, PlatformParams::dojo_like()).build();
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(tpx, tpy))
            .unwrap()
            .plan();
        let mut group_seen = vec![0usize; topo.num_devices()];
        for (g, members) in plan.groups().iter().enumerate() {
            prop_assert_eq!(members.len(), (tpx * tpy) as usize);
            for &d in members {
                group_seen[d.index()] += 1;
                prop_assert_eq!(plan.group_of(d).0, g);
            }
        }
        prop_assert!(group_seen.iter().all(|&c| c == 1));
        let mut ftd_seen = vec![0usize; topo.num_devices()];
        for ftd in plan.ftds() {
            let mut groups: Vec<usize> =
                ftd.devices().iter().map(|&d| plan.group_of(d).0).collect();
            groups.sort_unstable();
            groups.dedup();
            prop_assert_eq!(groups.len(), plan.num_groups());
            for &d in ftd.devices() {
                ftd_seen[d.index()] += 1;
            }
        }
        prop_assert!(ftd_seen.iter().all(|&c| c == 1));
    }

    /// Migration route decomposition: segments alternate phases and cover
    /// the route for arbitrary device pairs.
    #[test]
    fn migration_segments_alternate(src in 0u32..36, dst in 0u32..36) {
        let topo = Mesh::new(6, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let segs = decompose_route(
            &topo, &table, &plan,
            DeviceId(src), DeviceId(dst), 1.0e6,
        );
        if src == dst {
            prop_assert!(segs.is_empty());
        } else {
            prop_assert!(!segs.is_empty());
            for w in segs.windows(2) {
                prop_assert_ne!(w[0].phase, w[1].phase);
            }
            // Same-FTD pairs decompose to Local-only.
            if plan.ftd_of(DeviceId(src)) == plan.ftd_of(DeviceId(dst)) {
                prop_assert!(segs.iter().all(|s| s.phase == MigrationPhase::Local));
            } else {
                prop_assert!(segs.iter().any(|s| s.phase == MigrationPhase::Global));
            }
        }
    }

    /// Placement stays consistent under arbitrary add/remove sequences:
    /// replica lists and shadow slots always agree, and device loads always
    /// sum to the total expert load.
    #[test]
    fn placement_consistency(ops in proptest::collection::vec((0usize..16, 0u32..8), 0..40)) {
        let mut p = ExpertPlacement::balanced(16, 8, 2);
        for (e, d) in ops {
            let d = DeviceId(d);
            if p.hosts(d, e) {
                p.remove_replica(e, d);
            } else {
                let _ = p.add_replica(e, d);
            }
            // Consistency: every replica of e is either primary or in a
            // shadow list.
            for &dev in p.replicas(e) {
                let is_primary = p.primary_experts(dev).contains(&e);
                let is_shadow = p.shadow_experts(dev).contains(&e);
                prop_assert!(is_primary || is_shadow);
            }
            prop_assert!(p.shadow_experts(d).len() <= p.slots_per_device());
        }
        let loads: Vec<f64> = (0..16).map(|e| (e + 1) as f64).collect();
        let device_total: f64 = p.device_loads(&loads).iter().sum();
        let expert_total: f64 = loads.iter().sum();
        prop_assert!((device_total - expert_total).abs() < 1e-9);
    }

    /// The topology-aware balancer never increases the peak device heat.
    #[test]
    fn balancer_never_worsens_peak(seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let loads: Vec<f64> = (0..16).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut placement = ExpertPlacement::balanced(16, 16, 1);
        let before = placement
            .device_loads(&loads)
            .into_iter()
            .fold(0.0, f64::max);
        let mut balancer = TopologyAwareBalancer::new(4);
        let actions = balancer.plan_layer(&BalanceContext {
            layer: 0,
            expert_loads: &loads,
            placement: &placement,
            table: &table,
        });
        for a in actions {
            match a {
                BalanceAction::Replicate { expert, target, .. } => {
                    placement.add_replica(expert, target).unwrap();
                }
                BalanceAction::Release { expert, device, .. } => {
                    placement.remove_replica(expert, device);
                }
            }
        }
        let after = placement
            .device_loads(&loads)
            .into_iter()
            .fold(0.0, f64::max);
        prop_assert!(after <= before * (1.0 + 1e-9), "{after} > {before}");
    }

    /// A balancer reused across plans, as an engine reuses one for every
    /// layer and step, returns exactly the actions a fresh balancer returns
    /// for the same context: the scratch placement and heats it keeps carry
    /// nothing from one plan into the next. The contexts vary the layer,
    /// the expert count, the slot count, the shadow replicas and the loads
    /// (idle experts included, so plans also release).
    #[test]
    fn reused_balancers_plan_like_fresh_ones(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBA1A);
        let mut topology_aware = TopologyAwareBalancer::new(4);
        let mut greedy = GreedyBalancer::new(4);
        for round in 0..6 {
            let experts = [8, 16, 48][rng.gen_range(0usize..3)];
            let mut placement = ExpertPlacement::balanced(experts, 16, rng.gen_range(1usize..=3));
            for _ in 0..rng.gen_range(0..2 * experts) {
                let _ = placement.add_replica(rng.gen_range(0..experts), DeviceId(rng.gen_range(0u32..16)));
            }
            let loads: Vec<f64> = (0..experts)
                .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.0..100.0) })
                .collect();
            let ctx = BalanceContext {
                layer: rng.gen_range(0usize..4),
                expert_loads: &loads,
                placement: &placement,
                table: &table,
            };
            prop_assert_eq!(
                topology_aware.plan_layer(&ctx),
                TopologyAwareBalancer::new(4).plan_layer(&ctx),
                "topology-aware, round {}", round
            );
            prop_assert_eq!(
                greedy.plan_layer(&ctx),
                GreedyBalancer::new(4).plan_layer(&ctx),
                "greedy, round {}", round
            );
        }
    }

    /// `price_pairs_time` is bit-identical to `price_pairs(..).total_time`
    /// on every fidelity tier, on mesh and cluster fabrics, for pair lists
    /// with zero-byte, negative-byte and duplicate entries. Each model
    /// instance prices several lists in a row, so scratch state left over
    /// from one call would show in the next.
    #[test]
    fn price_pairs_time_matches_price_pairs(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9A1E);
        let topo = if seed % 2 == 0 {
            Mesh::new(4, PlatformParams::dojo_like()).build()
        } else {
            DgxCluster::new(2, PlatformParams::dgx_b200()).build()
        };
        let table = RouteTable::build(&topo);
        let n = topo.num_devices() as u32;
        for backend in CongestionBackend::all() {
            let model = backend.build(&topo);
            for round in 0..4 {
                let mut pairs: Vec<(DeviceId, DeviceId, f64)> = Vec::new();
                for _ in 0..rng.gen_range(0usize..24) {
                    let pair = match rng.gen_range(0u32..8) {
                        0 if !pairs.is_empty() => pairs[rng.gen_range(0..pairs.len())],
                        kind => {
                            let src = rng.gen_range(0..n);
                            let dst = (src + rng.gen_range(1..n)) % n;
                            let bytes = match kind {
                                1 => 0.0,
                                2 => -rng.gen_range(1.0f64..1.0e6),
                                _ => rng.gen_range(1.0..5.0e7),
                            };
                            (DeviceId(src), DeviceId(dst), bytes)
                        }
                    };
                    pairs.push(pair);
                }
                let time = model.price_pairs_time(&table, &pairs);
                let full = model.price_pairs(&table, &pairs).total_time;
                prop_assert_eq!(
                    time.to_bits(),
                    full.to_bits(),
                    "{backend} round {round}: {time} vs {full}"
                );
            }
        }
    }
}
