//! Fleet-level serving invariants: request/token conservation across
//! replicas, policy determinism, and worker-pool equivalence — the
//! cross-crate contracts the fleet layer (DESIGN.md §8) must keep
//! regardless of router policy or how replica stepping is scheduled.

use moentwine::prelude::*;
use proptest::prelude::*;

fn engine_template(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(ModelConfig::tiny())
        .with_seed(seed)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
        });
    config.kv_hbm_fraction = 1.0e-3;
    config
}

struct Fixture {
    topo: Topology,
    table: RouteTable,
    plan: MappingPlan,
}

fn fixture() -> Fixture {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    Fixture { topo, table, plan }
}

fn run_fleet(
    f: &Fixture,
    replicas: usize,
    policy: RouterPolicy,
    rate: f64,
    seed: u64,
    rounds: usize,
) -> FleetSummary {
    let config = FleetConfig::new(replicas, policy, rate, engine_template(seed));
    let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
    fleet.run(rounds);
    fleet.summary()
}

/// Every routed request is, at any synchronization point, in exactly one
/// replica state: waiting, resident, rejected, or completed — none lost,
/// none duplicated — and every policy conserves the same global arrival
/// stream (identical request totals, only the assignment differs).
#[test]
fn every_policy_conserves_requests_and_tokens() {
    let f = fixture();
    let mut totals: Vec<u64> = Vec::new();
    for policy in RouterPolicy::all() {
        let config = FleetConfig::new(3, policy, 6.0e3, engine_template(77));
        let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
        fleet.run(250);
        let summary = fleet.summary();
        let routed: u64 = summary.routed.iter().sum();
        let mut accounted = 0u64;
        for (engine, s) in fleet.engines().iter().zip(&summary.per_replica) {
            let snap = engine.replica_snapshot().expect("serving mode");
            accounted += snap.queue_depth as u64
                + snap.active as u64
                + s.admission_rejects
                + s.completed as u64;
        }
        assert_eq!(
            routed, accounted,
            "{policy}: requests lost or double-counted"
        );
        // Token conservation per replica: scheduled tokens never exceed
        // admitted tokens, and completed requests got exactly their due
        // (the per-queue invariant, here checked through the fleet path).
        for engine in fleet.engines() {
            for r in engine.completed_requests() {
                assert_eq!(r.prefill_scheduled, r.input_len);
                assert_eq!(r.decode_scheduled, r.output_len);
            }
        }
        // Aggregate record count matches the per-replica sum.
        let sum: usize = summary.per_replica.iter().map(|s| s.completed).sum();
        assert_eq!(summary.aggregate.completed, sum);
        totals.push(routed);
    }
    // The arrival stream is policy-independent: at a common fleet horizon
    // every policy must have routed a comparable request count (exact
    // equality does not hold — routing changes queueing, which changes
    // iteration pricing and thus how far the shared clock advances — but
    // the streams draw from identical seeds).
    let max = *totals.iter().max().unwrap() as f64;
    let min = *totals.iter().min().unwrap() as f64;
    assert!(
        min > 0.0 && max / min < 1.5,
        "policy-dependent arrival streams? routed counts {totals:?}"
    );
}

/// Power-of-two-choices is deterministic at a fixed seed: identical fleets
/// route identically, and a different master seed produces a different
/// (but internally consistent) assignment.
#[test]
fn power_of_two_routing_is_deterministic_at_fixed_seed() {
    let f = fixture();
    let a = run_fleet(&f, 4, RouterPolicy::PowerOfTwoChoices, 8.0e3, 21, 150);
    let b = run_fleet(&f, 4, RouterPolicy::PowerOfTwoChoices, 8.0e3, 21, 150);
    assert_eq!(a.routed, b.routed);
    assert_eq!(a.per_replica, b.per_replica);
    assert_eq!(a.aggregate, b.aggregate);
    let c = run_fleet(&f, 4, RouterPolicy::PowerOfTwoChoices, 8.0e3, 22, 150);
    assert_ne!(
        a.routed, c.routed,
        "different seeds should sample different replica pairs"
    );
}

/// `LeastKvPressure` never dispatches a request to a replica that must
/// permanently reject it while another replica could admit it. In a
/// homogeneous fleet every budget is equal, so the fleet-level corollary
/// is: either a request fits every replica (zero rejects) or it fits none
/// (rejected wherever routed) — rejects can only be stream-wide, never an
/// artifact of routing. Check via snapshots on the live fleet.
#[test]
fn least_kv_pressure_respects_reject_sets() {
    let f = fixture();
    let config = FleetConfig::new(3, RouterPolicy::LeastKvPressure, 6.0e3, engine_template(33));
    let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
    fleet.run(250);
    let budgets: Vec<u64> = fleet
        .engines()
        .iter()
        .map(|e| e.replica_snapshot().unwrap().kv_budget_tokens)
        .collect();
    assert!(
        budgets.windows(2).all(|w| w[0] == w[1]),
        "homogeneous fleet"
    );
    // Every completed request fit within the budget it was admitted
    // against; every reject exceeded the (common) budget, so no other
    // replica could have admitted it either.
    for (engine, s) in fleet.engines().iter().zip(&fleet.summary().per_replica) {
        for r in engine.completed_requests() {
            assert!(r.input_len as u64 + r.output_len as u64 <= budgets[0]);
        }
        // Privacy traffic is short: nothing in this stream can exceed the
        // ~700k-token budget, so routing must produce zero rejects.
        assert_eq!(s.admission_rejects, 0);
    }

    // The adversarial half runs at the router level, where heterogeneous
    // budgets are expressible: replica 0 is emptier but can never hold the
    // request — it must not be chosen while replica 1 can admit.
    let mut router = Router::new(RouterPolicy::LeastKvPressure, 2, 5);
    let snapshots = [
        ReplicaSnapshot {
            queue_depth: 0,
            active: 0,
            kv_tokens_in_use: 0,
            kv_budget_tokens: 64,
            mode: SchedulingMode::Hybrid,
        },
        ReplicaSnapshot {
            queue_depth: 8,
            active: 8,
            kv_tokens_in_use: 7_000,
            kv_budget_tokens: 8_192,
            mode: SchedulingMode::Hybrid,
        },
    ];
    for id in 0..32 {
        let request = Request {
            id: RequestId(id),
            scenario: Scenario::Coding,
            input_len: 400,
            output_len: 200,
            arrival: id as f64,
            class: RequestClass::Interactive,
        };
        assert!(snapshots[0].must_reject(&request));
        assert!(!snapshots[1].must_reject(&request));
        assert_eq!(router.route(&request, &snapshots), 1);
    }
}

/// Stepping replicas through any `ReplicaPool` — including one that runs
/// jobs out of order — produces byte-identical fleet results: replicas are
/// independent between synchronization points and results merge by index.
#[test]
fn worker_pool_scheduling_cannot_change_results() {
    struct ScrambledPool;
    impl ReplicaPool for ScrambledPool {
        fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
            // Odd indices first, then evens — a legal (if absurd) schedule.
            let mut deferred = Vec::new();
            for (i, job) in jobs.into_iter().enumerate() {
                if i % 2 == 0 {
                    deferred.push(job);
                } else {
                    job();
                }
            }
            for job in deferred {
                job();
            }
        }
    }
    let f = fixture();
    let run = |pool: &dyn ReplicaPool| {
        let config = FleetConfig::new(4, RouterPolicy::LeastQueueDepth, 8.0e3, engine_template(55));
        let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
        fleet.run_with(150, pool);
        fleet.summary()
    };
    let serial = run(&SerialReplicaPool);
    let scrambled = run(&ScrambledPool);
    assert_eq!(serial.routed, scrambled.routed);
    assert_eq!(serial.per_replica, scrambled.per_replica);
    assert_eq!(serial.aggregate, scrambled.aggregate);
    assert_eq!(serial.sim_seconds, scrambled.sim_seconds);
}

/// Disaggregated conservation, as a property over (seed, rate) points on a
/// *heterogeneous* fleet — wafer prefill pods handing off to DGX decode
/// replicas across the priced KV-transfer boundary (DESIGN.md §13):
///
/// * every routed dispatch is either in the prefill tier or a delivered
///   hand-off into the decode tier; every priced transfer is pending or
///   delivered — none lost, none duplicated;
/// * transfer bytes are pinned to the model:
///   `kv_bytes_per_token_all_layers(FP16) × prefill tokens`, summed over
///   every prefill-side record;
/// * both fleet schedulers and any legal `ReplicaPool` ordering produce
///   byte-identical summaries.
#[test]
fn disaggregated_fleets_conserve_handoffs_across_schedulers_and_pools() {
    struct ScrambledPool;
    impl ReplicaPool for ScrambledPool {
        fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
            let mut deferred = Vec::new();
            for (i, job) in jobs.into_iter().enumerate() {
                if i % 2 == 0 {
                    deferred.push(job);
                } else {
                    job();
                }
            }
            for job in deferred {
                job();
            }
        }
    }

    let f = fixture();
    let decode_topo = DgxCluster::new(1, PlatformParams::dgx_b200()).build();
    let decode_table = RouteTable::build(&decode_topo);
    let decode_layout = ClusterLayout::new(&decode_topo, 8);
    let per_token = ModelConfig::tiny().kv_bytes_per_token_all_layers(Precision::Fp16);

    let run = |seed: u64, rate: f64, scheduler: FleetScheduler, pool: &dyn ReplicaPool| {
        let roles = vec![
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ];
        let config = FleetConfig::new(
            4,
            RouterPolicy::LeastQueueDepth,
            rate,
            engine_template(seed),
        )
        .with_roles(roles)
        .with_scheduler(scheduler);
        let prefill = PlatformRefs {
            topo: &f.topo,
            table: &f.table,
            layout: &f.plan,
        };
        let decode = PlatformRefs {
            topo: &decode_topo,
            table: &decode_table,
            layout: &decode_layout,
        };
        let mut fleet =
            Fleet::try_new_disaggregated(prefill, Some(decode), config).expect("valid roles");
        fleet.run_with(250, pool);
        let summary = fleet.summary();

        // Conservation across the hand-off boundary, at this sync point.
        let tier = |role: ReplicaRole| -> u64 {
            fleet
                .engines()
                .iter()
                .zip(fleet.roles())
                .zip(&summary.per_replica)
                .filter(|((_, r), _)| **r == role)
                .map(|((e, _), s)| {
                    let snap = e.replica_snapshot().unwrap();
                    snap.queue_depth as u64
                        + snap.active as u64
                        + s.admission_rejects
                        + s.shed
                        + s.completed as u64
                })
                .sum()
        };
        let handoff = &summary.handoff;
        let routed: u64 = summary.routed.iter().sum();
        let delivered = handoff.kv_transfers - handoff.pending_transfers;
        assert_eq!(
            routed,
            tier(ReplicaRole::Prefill) + delivered,
            "seed {seed} rate {rate}: requests lost across the hand-off boundary"
        );
        assert_eq!(
            tier(ReplicaRole::Decode),
            delivered,
            "seed {seed} rate {rate}: delivered transfers not accounted in decode tier"
        );

        // Transfer accounting is pinned to the model, per hand-off.
        let prefill_records: Vec<_> = fleet
            .engines()
            .iter()
            .zip(fleet.roles())
            .filter(|(_, r)| **r == ReplicaRole::Prefill)
            .flat_map(|(e, _)| e.completed_requests())
            .collect();
        assert_eq!(handoff.kv_transfers, prefill_records.len() as u64);
        let expected_bytes: f64 = prefill_records
            .iter()
            .map(|r| per_token * f64::from(r.prefill_scheduled))
            .sum();
        assert_eq!(
            handoff.kv_transfer_bytes, expected_bytes,
            "seed {seed} rate {rate}: transfer bytes diverge from kv-per-token × prefill tokens"
        );
        summary
    };

    for &(seed, rate) in &[(7u64, 8.0e3), (61, 2.0e4), (91, 4.0e4)] {
        let reference = run(seed, rate, FleetScheduler::Lockstep, &SerialReplicaPool);
        assert!(
            reference.handoff.kv_transfers > 0,
            "seed {seed} rate {rate}: point never exercised a hand-off"
        );
        assert!(reference.handoff.kv_transfer_seconds > 0.0, "free transfer");
        for (scheduler, pool) in [
            (
                FleetScheduler::EventHeap,
                &SerialReplicaPool as &dyn ReplicaPool,
            ),
            (FleetScheduler::Lockstep, &ScrambledPool),
            (FleetScheduler::EventHeap, &ScrambledPool),
        ] {
            assert_eq!(
                reference,
                run(seed, rate, scheduler, pool),
                "seed {seed} rate {rate}: {scheduler:?} diverged"
            );
        }
    }
}

proptest! {
    /// Speculative dispatch conserves every copy it races: at any
    /// synchronization point each dispatched copy is waiting, resident,
    /// rejected, shed, completed, or cancelled as a race loser — none
    /// lost, none duplicated:
    ///
    /// `routed == queued + resident + rejects + shed + completed +
    /// cancelled_speculative`
    ///
    /// The ledger must balance under both scheduler drives, any legal
    /// `ReplicaPool` interleaving, and both summary modes (the Exact path
    /// also deletes a finished loser's retained record).
    /// Pool interleavings can never change results within a drive; the
    /// two drives resolve races at different sync points and are each
    /// internally deterministic, but are not required to agree with each
    /// other bit-for-bit.
    #[test]
    fn speculative_copies_conserved_across_drives_and_pools(
        seed in 0u64..400,
        k in 2usize..4,
        replicas in 2usize..5,
        rate_kilo in 4u32..24,
        rounds in 50usize..140,
        exact in 0u8..2,
    ) {
        struct ScrambledPool;
        impl ReplicaPool for ScrambledPool {
            fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
                let mut deferred = Vec::new();
                for (i, job) in jobs.into_iter().enumerate() {
                    if i % 2 == 0 {
                        deferred.push(job);
                    } else {
                        job();
                    }
                }
                for job in deferred {
                    job();
                }
            }
        }

        let f = fixture();
        let rate = rate_kilo as f64 * 1.0e3;
        // Fewer replicas than requested copies: the policy must truncate.
        let k_eff = k.min(replicas) as u64;
        let run = |scheduler: FleetScheduler, pool: &dyn ReplicaPool| {
            let mut engine = engine_template(seed);
            if exact == 1 {
                engine = engine.with_summary(SummaryMode::Exact);
            }
            let config =
                FleetConfig::new(replicas, RouterPolicy::Speculative { k }, rate, engine)
                    .with_scheduler(scheduler);
            let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
            fleet.run_with(rounds, pool);
            let summary = fleet.summary();

            let routed: u64 = summary.routed.iter().sum();
            let mut accounted = summary.speculative.cancelled_copies;
            let mut rejects = 0u64;
            let mut shed = 0u64;
            for (engine, s) in fleet.engines().iter().zip(&summary.per_replica) {
                let snap = engine.replica_snapshot().expect("serving mode");
                accounted += snap.queue_depth as u64
                    + snap.active as u64
                    + s.admission_rejects
                    + s.shed
                    + s.completed as u64;
                rejects += s.admission_rejects;
                shed += s.shed;
            }
            assert_eq!(
                routed, accounted,
                "{scheduler:?}: speculative copies lost or double-counted"
            );
            // Every arrival fans out to exactly `min(k, replicas)` copies.
            assert_eq!(
                routed,
                summary.speculative.groups_dispatched * k_eff,
                "{scheduler:?}: dispatch fan-out diverged from k"
            );
            // With no rejects or sheds every group keeps all its copies,
            // so each completed winner implies `k_eff - 1` cancelled
            // losers from its (distinct) resolved group.
            if rejects == 0 && shed == 0 {
                assert!(
                    summary.speculative.cancelled_copies
                        >= summary.aggregate.completed as u64 * (k_eff - 1),
                    "{scheduler:?}: winners completed without cancelling losers"
                );
            }
            summary
        };

        let lockstep = run(FleetScheduler::Lockstep, &SerialReplicaPool);
        let event = run(FleetScheduler::EventHeap, &SerialReplicaPool);
        prop_assert_eq!(&lockstep, &run(FleetScheduler::Lockstep, &ScrambledPool));
        prop_assert_eq!(&event, &run(FleetScheduler::EventHeap, &ScrambledPool));
    }
}

/// Scale-out sanity: under a flooding arrival rate, more replicas actually
/// add serving capacity — the fleet holds more resident requests and the
/// un-admitted backlog per unit of work shrinks — rather than just
/// sharding one queue. (Completion counts are horizon-bound at short
/// rounds, so capacity shows up in admission, not completions.)
#[test]
fn more_replicas_add_capacity_under_saturation() {
    let f = fixture();
    let one = run_fleet(&f, 1, RouterPolicy::LeastQueueDepth, 1.0e5, 91, 300);
    let four = run_fleet(&f, 4, RouterPolicy::LeastQueueDepth, 1.0e5, 91, 300);
    // Raw completion counts are not comparable across fleet sizes at equal
    // rounds (batch occupancy changes iteration pricing, hence simulated
    // horizon); goodput per *simulated second* is.
    assert!(
        four.aggregate.goodput_rps > one.aggregate.goodput_rps,
        "goodput did not scale: {} vs {} req/s",
        four.aggregate.goodput_rps,
        one.aggregate.goodput_rps
    );
    assert!(
        four.aggregate.goodput_tokens_per_s > 1.2 * one.aggregate.goodput_tokens_per_s,
        "token throughput did not scale: {} vs {}",
        four.aggregate.goodput_tokens_per_s,
        one.aggregate.goodput_tokens_per_s
    );
    // The single replica saturates (long un-admitted backlog, near its
    // 128-active cap); the fleet absorbs the same stream without queueing.
    assert!(
        one.aggregate.mean_queue_depth > 10.0,
        "single replica should be backlogged, got {}",
        one.aggregate.mean_queue_depth
    );
    assert!(
        four.aggregate.mean_queue_depth < one.aggregate.mean_queue_depth / 10.0,
        "fleet backlog should collapse: {} vs {}",
        four.aggregate.mean_queue_depth,
        one.aggregate.mean_queue_depth
    );
    assert!(one.per_replica[0].mean_active_requests > 100.0);
}
