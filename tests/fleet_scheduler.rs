//! Fleet event-scheduler and streaming-summary contracts (DESIGN.md §10):
//!
//! * **Round-driven equivalence** — under `run(rounds)` both schedulers
//!   step every replica once per round; replicas are independent between
//!   barriers, so the event-heap `FleetSummary` is bit-identical to the
//!   lock-step reference for every policy, rate, seed, and replica-pool
//!   interleaving.
//! * **Streaming error bounds** — P² percentile sketches track the exact
//!   oracle within documented rank windows: p50 inside the exact
//!   [p35, p65], p95 inside [p85, p100], p99 inside [p90, p100], and
//!   bit-exactly while ≤ 64 samples (the warm-up prefix).
//! * **Bounded memory** — the checked-in 10M-request mega-fleet scenario
//!   retains O(replicas) request records under streaming summaries.

use std::path::PathBuf;

use moentwine::prelude::*;
use proptest::prelude::*;

fn engine_template(seed: u64, summary: SummaryMode) -> EngineConfig {
    let mut config = EngineConfig::new(ModelConfig::tiny())
        .with_seed(seed)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
        })
        .with_summary(summary);
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

/// Nearest-rank percentile of an unsorted sample set (the exact oracle's
/// definition, re-derived here so the test does not share code with the
/// implementation under test).
fn nearest_rank(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if samples.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (samples.len() as f64 - 1.0)).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

proptest! {
    /// Event-order invariance: for round-driven runs the event-heap
    /// scheduler and the lock-step reference produce bit-identical
    /// summaries across random policies, rates, seeds, round counts, and
    /// scrambled replica-step interleavings.
    #[test]
    fn schedulers_and_pools_agree_bit_for_bit_on_rounds(
        seed in 0u64..1_000,
        policy_tag in 0u8..8,
        replicas in 1usize..5,
        rate_kilo in 2u32..16,
        rounds in 40usize..160,
    ) {
        let f = fixture();
        let rate = rate_kilo as f64 * 1.0e3;
        let policy = policy_of(policy_tag);
        let run = |scheduler: FleetScheduler, pool: &dyn ReplicaPool| {
            let config = FleetConfig::new(
                replicas,
                policy,
                rate,
                engine_template(seed, SummaryMode::Exact),
            )
            .with_scheduler(scheduler);
            let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
            fleet.run_with(rounds, pool);
            fleet.summary()
        };
        let lockstep = run(FleetScheduler::Lockstep, &SerialReplicaPool);
        let event = run(FleetScheduler::EventHeap, &SerialReplicaPool);
        let event_scrambled = run(FleetScheduler::EventHeap, &ScrambledPool);
        prop_assert_eq!(&lockstep, &event);
        prop_assert_eq!(&event, &event_scrambled);
    }

    /// Streaming-vs-exact differential: beyond the bit-exact warm-up
    /// prefix, every sketched percentile stays inside its documented rank
    /// window of the exact sample distribution.
    #[test]
    fn streaming_percentiles_stay_inside_rank_windows(
        seed in 0u64..1_000,
        iterations in 600usize..1_000,
        rate_hundred_k in 1u32..3,
    ) {
        let f = fixture();
        let rate = rate_hundred_k as f64 * 1.0e5;
        let run = |summary: SummaryMode| {
            let mut config = EngineConfig::new(ModelConfig::tiny())
                .with_seed(seed)
                .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
                .with_batch(BatchMode::Scheduled {
                    mode: SchedulingMode::Hybrid,
                    max_batch_tokens: 2048,
                    max_active: 128,
                    request_rate: rate,
                    iteration_period: 0.02,
                })
                .with_summary(summary);
            config.kv_hbm_fraction = 1.0e-3;
            let mut engine = InferenceEngine::new(&f.topo, &f.table, &f.plan, config);
            engine.run(iterations);
            engine
        };
        let exact = run(SummaryMode::Exact);
        let streaming = run(SummaryMode::Streaming);
        // Identical trajectories: the summary mode must not perturb the
        // simulation itself.
        let exact_summary = exact.serving_summary();
        let streaming_summary = streaming.serving_summary();
        prop_assert_eq!(exact_summary.completed, streaming_summary.completed);
        prop_assert_eq!(exact_summary.sim_seconds, streaming_summary.sim_seconds);

        let records = exact.completed_requests();
        let mut ttft: Vec<f64> = records.iter().map(RequestRecord::ttft).collect();
        let mut e2e: Vec<f64> = records.iter().map(RequestRecord::e2e_latency).collect();
        // Rank windows (exact while ≤ 64 samples; the windows subsume
        // that case, so one check covers both regimes).
        let windows = [
            (streaming_summary.ttft_p50, nearest_rank(&mut ttft, 35.0), nearest_rank(&mut ttft, 65.0)),
            (streaming_summary.ttft_p95, nearest_rank(&mut ttft, 85.0), nearest_rank(&mut ttft, 100.0)),
            (streaming_summary.ttft_p99, nearest_rank(&mut ttft, 90.0), nearest_rank(&mut ttft, 100.0)),
            (streaming_summary.e2e_p50, nearest_rank(&mut e2e, 35.0), nearest_rank(&mut e2e, 65.0)),
            (streaming_summary.e2e_p99, nearest_rank(&mut e2e, 90.0), nearest_rank(&mut e2e, 100.0)),
        ];
        for (est, low, high) in windows {
            prop_assert!(
                (low..=high).contains(&est),
                "sketch estimate {est} outside exact rank window [{low}, {high}] \
                 over {} samples", records.len()
            );
        }
        // Within the warm-up prefix the contract sharpens to bit-equality.
        if records.len() <= 64 {
            prop_assert_eq!(exact_summary.ttft_p50, streaming_summary.ttft_p50);
            prop_assert_eq!(exact_summary.ttft_p99, streaming_summary.ttft_p99);
            prop_assert_eq!(exact_summary.e2e_p99, streaming_summary.e2e_p99);
        }
    }

    /// `run_until` sanity: both schedulers reach the horizon, the event
    /// heap routes at least as many requests as lock-step, and it prices
    /// far fewer replica steps than `rounds × replicas`. Lock-step routes
    /// only at its barriers, the last of which sits below the horizon,
    /// while the event drive routes every arrival before the horizon.
    #[test]
    fn run_until_reaches_horizon_and_skips_idle_work(
        seed in 0u64..1_000,
        replicas in 2usize..6,
        rate_kilo in 1u32..8,
    ) {
        let f = fixture();
        let rate = rate_kilo as f64 * 1.0e3;
        let (lockstep_rounds, lockstep) =
            run_to_horizon(&f, seed, replicas, rate, FleetScheduler::Lockstep);
        let (event_steps, event) =
            run_to_horizon(&f, seed, replicas, rate, FleetScheduler::EventHeap);
        prop_assert!(lockstep.sim_seconds >= RUN_UNTIL_HORIZON);
        prop_assert!(event.sim_seconds >= RUN_UNTIL_HORIZON);
        // The lock-step reference pays one step per replica per round; the
        // event heap only pays for causal work.
        prop_assert!(event_steps <= lockstep_rounds * replicas as u64);
        let routed_e: u64 = event.routed.iter().sum();
        let routed_l: u64 = lockstep.routed.iter().sum();
        prop_assert!(routed_l <= routed_e);
    }
}

/// Horizon of the `run_until` comparisons, seconds.
const RUN_UNTIL_HORIZON: f64 = 1.0e-3;

/// Runs a power-of-two streaming fleet to [`RUN_UNTIL_HORIZON`] under
/// `scheduler`; returns its `rounds()` and summary.
fn run_to_horizon(
    f: &Fixture,
    seed: u64,
    replicas: usize,
    rate: f64,
    scheduler: FleetScheduler,
) -> (u64, FleetSummary) {
    let config = FleetConfig::new(
        replicas,
        RouterPolicy::PowerOfTwoChoices,
        rate,
        engine_template(seed, SummaryMode::Streaming),
    )
    .with_scheduler(scheduler);
    let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
    fleet.run_until(RUN_UNTIL_HORIZON);
    (fleet.rounds(), fleet.summary())
}

/// A point where the two drives route different counts: lock-step stops
/// routing at its last barrier before a step, short of the horizon, so
/// the event heap routes one arrival more (6 against 5).
#[test]
fn event_heap_routes_past_the_last_lockstep_barrier() {
    let f = fixture();
    let routed = |scheduler| -> u64 {
        run_to_horizon(&f, 3, 3, 7.0e3, scheduler)
            .1
            .routed
            .iter()
            .sum()
    };
    assert_eq!(routed(FleetScheduler::EventHeap), 6);
    assert_eq!(routed(FleetScheduler::Lockstep), 5);
}

/// The checked-in mega-fleet scenario holds its O(1)-memory contract: run
/// (trimmed) through the same fleet layer the scenario bin drives, the
/// streaming fleet retains at most one record slot per replica while still
/// completing requests at scale.
#[test]
fn mega_fleet_scenario_retains_o_replicas_records() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/mega_fleet.json");
    let text = std::fs::read_to_string(&path).expect("mega_fleet.json is checked in");
    let spec = ScenarioSpec::from_json_text(&text).expect("parses");
    let points = spec.expand_sweep().expect("sweep expands");
    assert_eq!(points.len(), 2, "two rate points");
    for (label, point) in points {
        let fleet_spec = point.fleet.clone().expect("mega_fleet is a fleet scenario");
        assert!(fleet_spec.replicas >= 64, "{label}: ≥64 replicas");
        assert_eq!(fleet_spec.scheduler, FleetScheduler::EventHeap);
        match &point.engine.batch {
            BatchSpec::Serving(s) => assert_eq!(s.summary, SummaryMode::Streaming),
            other => panic!("{label}: expected serving batch, got {other:?}"),
        }
        // ≥10M simulated requests at full scale: the largest point's rate
        // sustains the target over the spec's 300k-round horizon (~12 µs
        // of simulated time per round, pinned loosely here).
        assert_eq!(point.iterations, 300_000);

        // Run a trimmed slice through the real fleet and pin the memory
        // contract the full run relies on.
        let f = fixture();
        let engine = point
            .engine
            .engine_config(ModelConfig::tiny())
            .expect("valid engine template");
        let config = fleet_spec.fleet_config(engine);
        let mut fleet = Fleet::new(&f.topo, &f.table, &f.plan, config);
        fleet.run(120);
        let summary = fleet.summary();
        assert!(
            summary.aggregate.completed > 0,
            "{label}: trimmed run must complete requests"
        );
        assert!(
            fleet.retained_records() <= fleet_spec.replicas,
            "{label}: retained {} records on {} replicas",
            fleet.retained_records(),
            fleet_spec.replicas
        );
    }
}
