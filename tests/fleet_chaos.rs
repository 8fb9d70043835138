//! Request conservation under failure injection (DESIGN.md §11): across
//! random seeds, policies, rates, timeline shapes, and replica-pool
//! interleavings, every request the router ever dispatched is
//! — at any synchronization point — in exactly one place: waiting in a
//! queue, resident in a batch, rejected, completed, or re-offered to the
//! router by a drain/crash (each re-offer increments the routed count
//! again, so the ledger stays exact without tracking identities twice).

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
        })
        .with_summary(SummaryMode::Exact);
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

fn policy_of(tag: u8) -> RouterPolicy {
    RouterPolicy::all()[tag as usize % RouterPolicy::all().len()]
}

/// A legal but adversarial replica pool: odd-indexed jobs first.
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

/// A crash→recover→drain→scale-up arc whose targets stay legal for any
/// `replicas ≥ 2` (the recover restores the crashed replica before the
/// drain retires its neighbour, so an admitting replica always remains)
/// and whose times are scaled by `stretch` so runs catch the timeline in
/// every stage of application: not yet fired, mid-arc, and fully applied.
fn chaos_timeline(replicas: usize, crash_tag: u8, stretch: f64) -> Vec<FleetEvent> {
    let crashed = crash_tag as usize % replicas;
    let drained = (crashed + 1) % replicas;
    vec![
        FleetEvent {
            time: 8.0e-5 * stretch,
            kind: FleetEventKind::Crash { replica: crashed },
        },
        FleetEvent {
            time: 1.6e-4 * stretch,
            kind: FleetEventKind::Recover { replica: crashed },
        },
        FleetEvent {
            time: 2.4e-4 * stretch,
            kind: FleetEventKind::Drain { replica: drained },
        },
        FleetEvent {
            time: 3.2e-4 * stretch,
            kind: FleetEventKind::ScaleUp { count: 1 },
        },
    ]
}

/// The conservation ledger of a finished (or mid-flight) chaos fleet:
/// `routed == queued + resident + rejected + completed + re-offered`.
fn assert_conserved(fleet: &Fleet<'_>, summary: &FleetSummary) {
    let routed: u64 = summary.routed.iter().sum();
    let mut accounted = 0u64;
    for (engine, s) in fleet.engines().iter().zip(&summary.per_replica) {
        let snap = engine.replica_snapshot().expect("serving mode");
        accounted +=
            snap.queue_depth as u64 + snap.active as u64 + s.admission_rejects + s.completed as u64;
    }
    let a = &summary.availability;
    let reoffered = a.drain_rerouted + a.crash_rerouted + a.crash_interruptions;
    assert_eq!(
        routed,
        accounted + reoffered,
        "requests lost or double-counted under chaos: {accounted} accounted \
         + {reoffered} re-offered ({a:?})"
    );
}

proptest! {
    /// Exactly-once accounting under chaos: for every timeline stretch
    /// (events not yet fired / mid-arc / fully applied), the serial and a
    /// scrambled replica pool agree bit-for-bit, and the routed ledger
    /// balances against queues, batches, rejects, completions, and
    /// re-offers.
    #[test]
    fn chaos_conserves_every_admitted_request(
        seed in 0u64..1_000,
        policy_tag in 0u8..8,
        replicas in 2usize..5,
        crash_tag in 0u8..8,
        rate_ten_kilo in 2u32..20,
        rounds in 40usize..160,
        stretch_tenths in 2u32..30,
    ) {
        let f = fixture();
        let rate = rate_ten_kilo as f64 * 1.0e4;
        let policy = policy_of(policy_tag);
        let events = chaos_timeline(replicas, crash_tag, stretch_tenths as f64 * 0.1);
        prop_assert!(
            validate_fleet_events_for_roles(&vec![ReplicaRole::Colocated; replicas], &events)
                .is_ok()
        );
        let run = |pool: &dyn ReplicaPool| {
            let config = FleetConfig::new(replicas, policy, rate, engine_template(seed))
                .with_events(events.clone());
            let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
            fleet.run_with(rounds, pool);
            let summary = fleet.summary();
            (fleet, summary)
        };
        let (serial_fleet, serial) = run(&SerialReplicaPool);
        let (scrambled_fleet, scrambled) = run(&ScrambledPool);
        prop_assert_eq!(&serial, &scrambled);
        assert_conserved(&serial_fleet, &serial);
        assert_conserved(&scrambled_fleet, &scrambled);

        // Whatever fired so far left a coherent fleet: a recovered or
        // never-crashed replica is active, applied events are monotone,
        // and the availability integral stays a fraction.
        let a = &serial.availability;
        prop_assert!(a.events_applied <= events.len() as u64);
        prop_assert!(a.available_fraction > 0.0 && a.available_fraction <= 1.0);
        prop_assert!(serial_fleet.states().contains(&ReplicaState::Active));
        // Crash interruptions always carry their re-admission price.
        if a.crash_interruptions > 0 {
            prop_assert!(a.requeued_tokens > 0);
        }
    }
}
