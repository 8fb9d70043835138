//! Fleet golden-trace regression suite: a pinned 2-replica scenario runs
//! once per [`RouterPolicy`], and the resulting [`FleetSummary`] must match
//! the snapshot checked in under `tests/golden/fleet_<policy>.json` to 1e-9
//! relative tolerance — the fleet-layer companion of `golden_trace.rs`.
//!
//! A drifting metric fails with a per-field diff naming every divergent
//! value. To regenerate the snapshots after an *intentional* behavior
//! change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test fleet_golden
//! ```
//!
//! then commit the rewritten `tests/golden/fleet_*.json` and call out the
//! metric shift in the PR.

use std::path::PathBuf;

use moentwine::core::fleet::FleetSpeculative;
use moentwine::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned scenario: two 4×4-wafer replicas serving a bursty privacy
/// stream through every router policy — routing, per-replica admission,
/// the shared fleet clock, and the aggregate summary are all on the trace.
fn run_scenario(policy: RouterPolicy) -> FleetSummary {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let mut engine = EngineConfig::new(ModelConfig::tiny())
        .with_seed(4242)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
        });
    engine.kv_hbm_fraction = 1.0e-3;
    // High enough that the 400-round horizon sees queueing pressure, not
    // just a trickle: load-aware policies must actually differentiate.
    let config = FleetConfig::new(2, policy, 1.2e5, engine);
    let mut fleet = Fleet::new(&topo, &table, &plan, config);
    fleet.run(400);
    fleet.summary()
}

/// Flattens a fleet summary into an ordered `name → value` object:
/// routing, aggregate percentiles, and the per-replica signals most likely
/// to catch a policy regression.
fn snapshot(s: &FleetSummary) -> Vec<(String, f64)> {
    let mut fields = vec![
        ("fleet.replicas".into(), s.replicas as f64),
        ("fleet.rounds".into(), s.rounds as f64),
        ("fleet.sim_seconds".into(), s.sim_seconds),
        ("fleet.routing_imbalance".into(), s.routing_imbalance),
        ("fleet.completion_imbalance".into(), s.completion_imbalance),
    ];
    for (i, routed) in s.routed.iter().enumerate() {
        fields.push((format!("fleet.routed[{i}]"), *routed as f64));
    }
    let agg = &s.aggregate;
    fields.extend([
        ("aggregate.completed".into(), agg.completed as f64),
        (
            "aggregate.admission_rejects".into(),
            agg.admission_rejects as f64,
        ),
        ("aggregate.goodput_rps".into(), agg.goodput_rps),
        (
            "aggregate.goodput_tokens_per_s".into(),
            agg.goodput_tokens_per_s,
        ),
        ("aggregate.ttft_p50".into(), agg.ttft_p50),
        ("aggregate.ttft_p95".into(), agg.ttft_p95),
        ("aggregate.ttft_p99".into(), agg.ttft_p99),
        ("aggregate.tpot_p50".into(), agg.tpot_p50),
        ("aggregate.tpot_p99".into(), agg.tpot_p99),
        ("aggregate.e2e_p50".into(), agg.e2e_p50),
        ("aggregate.e2e_p99".into(), agg.e2e_p99),
        ("aggregate.queueing_p50".into(), agg.queueing_p50),
        ("aggregate.mean_queue_depth".into(), agg.mean_queue_depth),
        (
            "aggregate.mean_active_requests".into(),
            agg.mean_active_requests,
        ),
        ("aggregate.peak_kv_tokens".into(), agg.peak_kv_tokens as f64),
    ]);
    for (i, r) in s.per_replica.iter().enumerate() {
        fields.push((format!("replica{i}.completed"), r.completed as f64));
        fields.push((format!("replica{i}.sim_seconds"), r.sim_seconds));
        fields.push((format!("replica{i}.ttft_p50"), r.ttft_p50));
        fields.push((format!("replica{i}.e2e_p99"), r.e2e_p99));
        fields.push((
            format!("replica{i}.mean_active_requests"),
            r.mean_active_requests,
        ));
        fields.push((
            format!("replica{i}.peak_kv_tokens"),
            r.peak_kv_tokens as f64,
        ));
    }
    fields
}

/// The speculative-dispatch section of a fleet summary as golden fields.
fn speculative_fields(sp: &FleetSpeculative) -> Vec<(String, f64)> {
    vec![
        (
            "speculative.groups_dispatched".into(),
            sp.groups_dispatched as f64,
        ),
        (
            "speculative.cancelled_copies".into(),
            sp.cancelled_copies as f64,
        ),
        ("speculative.open_groups".into(), sp.open_groups as f64),
    ]
}

/// The KV hand-off section of a fleet summary as golden fields.
fn handoff_fields(h: &FleetHandoff) -> Vec<(String, f64)> {
    vec![
        ("handoff.kv_transfers".into(), h.kv_transfers as f64),
        ("handoff.kv_transfer_bytes".into(), h.kv_transfer_bytes),
        ("handoff.kv_transfer_seconds".into(), h.kv_transfer_seconds),
        (
            "handoff.max_transfer_seconds".into(),
            h.max_transfer_seconds,
        ),
        (
            "handoff.pending_transfers".into(),
            h.pending_transfers as f64,
        ),
        (
            "handoff.handoffs_completed".into(),
            h.handoffs_completed as f64,
        ),
        (
            "handoff.mean_handoff_latency".into(),
            h.mean_handoff_latency,
        ),
        ("handoff.max_handoff_latency".into(), h.max_handoff_latency),
        ("handoff.mean_e2e_ttft".into(), h.mean_e2e_ttft),
        ("handoff.max_e2e_ttft".into(), h.max_e2e_ttft),
    ]
}

/// The availability section of a fleet summary as golden fields: the
/// chaos counters, the available fraction, and every goodput window.
fn availability_fields(a: &FleetAvailability) -> Vec<(String, f64)> {
    let mut fields = vec![
        (
            "availability.events_applied".into(),
            a.events_applied as f64,
        ),
        (
            "availability.crash_interruptions".into(),
            a.crash_interruptions as f64,
        ),
        (
            "availability.drain_rerouted".into(),
            a.drain_rerouted as f64,
        ),
        (
            "availability.crash_rerouted".into(),
            a.crash_rerouted as f64,
        ),
        (
            "availability.requeued_tokens".into(),
            a.requeued_tokens as f64,
        ),
        (
            "availability.replayed_prefill_tokens".into(),
            a.replayed_prefill_tokens as f64,
        ),
        (
            "availability.available_fraction".into(),
            a.available_fraction,
        ),
    ];
    for (i, state) in a.replica_states.iter().enumerate() {
        fields.push((format!("availability.replica{i}.{state}"), 1.0));
    }
    for (i, w) in a.goodput_windows.iter().enumerate() {
        fields.push((format!("availability.window{i}.start"), w.start));
        fields.push((
            format!("availability.window{i}.completed"),
            w.completed as f64,
        ));
    }
    fields
}

fn check_golden(policy: RouterPolicy) {
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join(format!("fleet_{}.json", policy.name())),
        &snapshot(&run_scenario(policy)),
        &format!("policy {}", policy.name()),
        "GOLDEN_BLESS=1 cargo test --test fleet_golden",
    );
}

#[test]
fn fleet_golden_round_robin() {
    check_golden(RouterPolicy::RoundRobin);
}

#[test]
fn fleet_golden_least_queue_depth() {
    check_golden(RouterPolicy::LeastQueueDepth);
}

#[test]
fn fleet_golden_least_kv_pressure() {
    check_golden(RouterPolicy::LeastKvPressure);
}

#[test]
fn fleet_golden_power_of_two() {
    check_golden(RouterPolicy::PowerOfTwoChoices);
}

#[test]
fn fleet_golden_ewma_ttft() {
    check_golden(RouterPolicy::EwmaLatency);
}

#[test]
fn fleet_golden_least_expected_ttft() {
    check_golden(RouterPolicy::LeastExpectedTtft);
}

/// Speculative dispatch golden: `speculative:k=2` on the same pinned
/// scenario — every request races a copy on both replicas and the loser is
/// cancelled at the group's first token. The policy name is not
/// filesystem-safe (`:` / `=`), so the snapshot lives under a sanitized
/// file name; the speculative accounting section rides along.
#[test]
fn fleet_golden_speculative_k2() {
    let summary = run_scenario(RouterPolicy::Speculative { k: 2 });
    let mut fields = snapshot(&summary);
    fields.extend(speculative_fields(&summary.speculative));
    let sp = &summary.speculative;
    assert!(
        sp.groups_dispatched > 0,
        "golden scenario must dispatch speculative races"
    );
    assert!(
        sp.cancelled_copies > 0,
        "first-token races must cancel loser copies"
    );
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("fleet_speculative_k2.json"),
        &fields,
        "policy speculative:k=2",
        "GOLDEN_BLESS=1 cargo test --test fleet_golden",
    );
}

/// The pinned disaggregated scenario: two wafer prefill pods feeding two
/// DGX decode replicas, every hand-off priced through the congestion
/// model. Pins the transfer accounting (count, bytes, seconds) and the
/// decode-side aggregate alongside the usual fleet trace.
fn run_disagg_scenario() -> FleetSummary {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let decode_topo = DgxCluster::new(1, PlatformParams::dgx_b200()).build();
    let decode_table = RouteTable::build(&decode_topo);
    let decode_layout = ClusterLayout::new(&decode_topo, 8);
    let mut engine = EngineConfig::new(ModelConfig::tiny())
        .with_seed(4242)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
        });
    engine.kv_hbm_fraction = 1.0e-3;
    let config =
        FleetConfig::new(4, RouterPolicy::LeastQueueDepth, 1.2e5, engine).with_roles(vec![
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ]);
    let prefill = PlatformRefs {
        topo: &topo,
        table: &table,
        layout: &plan,
    };
    let decode = PlatformRefs {
        topo: &decode_topo,
        table: &decode_table,
        layout: &decode_layout,
    };
    let mut fleet = Fleet::try_new_disaggregated(prefill, Some(decode), config)
        .expect("valid disaggregated scenario");
    fleet.run(400);
    fleet.summary()
}

#[test]
fn fleet_golden_disagg_2p2d() {
    let summary = run_disagg_scenario();
    let mut fields = snapshot(&summary);
    fields.extend(handoff_fields(&summary.handoff));
    let h = &summary.handoff;
    assert!(h.kv_transfers > 0, "golden scenario must price hand-offs");
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("fleet_disagg_2p2d.json"),
        &fields,
        "disaggregated 2 prefill + 2 decode fleet",
        "GOLDEN_BLESS=1 cargo test --test fleet_golden",
    );
}

/// The scenario itself is deterministic: two in-process runs at the same
/// seed produce identical snapshots bit for bit.
#[test]
fn fleet_golden_scenario_is_deterministic_in_process() {
    let a = snapshot(&run_scenario(RouterPolicy::LeastQueueDepth));
    let b = snapshot(&run_scenario(RouterPolicy::LeastQueueDepth));
    assert_eq!(
        moentwine_bench::golden::fields_to_json(&a).pretty(),
        moentwine_bench::golden::fields_to_json(&b).pretty()
    );
}

/// A 3-replica `speculative:k=2` fleet on the event heap, driven by
/// `run_until` across a crash → recover → drain → scale-up timeline: the
/// first-token races, the crash's re-routed copies, the drainer retiring
/// on the spot, and a resumed drive (the step heap rebuilt mid-run) are
/// all on the trace.
fn run_until_speculative_chaos() -> FleetSummary {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let mut engine = EngineConfig::new(ModelConfig::tiny())
        .with_seed(4242)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
        });
    engine.kv_hbm_fraction = 1.0e-3;
    let events = vec![
        FleetEvent {
            time: 4.0e-4,
            kind: FleetEventKind::Crash { replica: 1 },
        },
        FleetEvent {
            time: 5.0e-4,
            kind: FleetEventKind::Recover { replica: 1 },
        },
        FleetEvent {
            time: 6.0e-4,
            kind: FleetEventKind::Drain { replica: 2 },
        },
        FleetEvent {
            time: 1.2e-3,
            kind: FleetEventKind::ScaleUp { count: 1 },
        },
    ];
    let config = FleetConfig::new(3, RouterPolicy::Speculative { k: 2 }, 1.2e5, engine)
        .with_scheduler(FleetScheduler::EventHeap)
        .with_events(events);
    let mut fleet = Fleet::new(&topo, &table, &plan, config);
    fleet.run_until(1.0e-3);
    fleet.run_until(3.0e-3);
    fleet.summary()
}

/// A 2 prefill + 2 decode fleet (wafer prefill, DGX decode) on the event
/// heap, driven by `run_until` while a decode replica and then a prefill
/// replica crash and recover: priced KV hand-offs delivered at their own
/// instants, resident decode work re-prefilled after the crash, and the
/// role masks narrowing and widening with the timeline.
fn run_until_disagg_chaos() -> FleetSummary {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let decode_topo = DgxCluster::new(1, PlatformParams::dgx_b200()).build();
    let decode_table = RouteTable::build(&decode_topo);
    let decode_layout = ClusterLayout::new(&decode_topo, 8);
    let mut engine = EngineConfig::new(ModelConfig::tiny())
        .with_seed(4242)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
        });
    engine.kv_hbm_fraction = 1.0e-3;
    let events = vec![
        FleetEvent {
            time: 5.0e-4,
            kind: FleetEventKind::Crash { replica: 3 },
        },
        FleetEvent {
            time: 1.0e-3,
            kind: FleetEventKind::Recover { replica: 3 },
        },
        FleetEvent {
            time: 1.2e-3,
            kind: FleetEventKind::Crash { replica: 0 },
        },
        FleetEvent {
            time: 1.5e-3,
            kind: FleetEventKind::Recover { replica: 0 },
        },
    ];
    let config = FleetConfig::new(4, RouterPolicy::LeastQueueDepth, 1.2e5, engine)
        .with_scheduler(FleetScheduler::EventHeap)
        .with_events(events)
        .with_roles(vec![
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ]);
    let prefill = PlatformRefs {
        topo: &topo,
        table: &table,
        layout: &plan,
    };
    let decode = PlatformRefs {
        topo: &decode_topo,
        table: &decode_table,
        layout: &decode_layout,
    };
    let mut fleet = Fleet::try_new_disaggregated(prefill, Some(decode), config)
        .expect("valid disaggregated scenario");
    fleet.run_until(2.0e-3);
    fleet.summary()
}

/// Event-heap `run_until` golden: the two chaos fixtures above, each
/// section prefixed by its fixture name. The round-driven goldens never
/// reach the event loop, so this is the one that pins it.
#[test]
fn fleet_golden_run_until_event_heap() {
    let mut fields = Vec::new();
    for (name, summary) in [
        ("speculative_chaos", run_until_speculative_chaos()),
        ("disagg_chaos", run_until_disagg_chaos()),
    ] {
        let a = &summary.availability;
        assert_eq!(a.events_applied, 4, "{name}: every timeline event fires");
        assert!(
            a.crash_interruptions > 0,
            "{name}: crashes evict resident work"
        );
        let mut section = snapshot(&summary);
        section.extend(availability_fields(a));
        section.extend(handoff_fields(&summary.handoff));
        section.extend(speculative_fields(&summary.speculative));
        fields.extend(section.into_iter().map(|(k, v)| (format!("{name}.{k}"), v)));
        if name == "speculative_chaos" {
            assert!(
                summary.speculative.cancelled_copies > 0,
                "first-token races must cancel loser copies"
            );
        } else {
            assert!(summary.handoff.kv_transfers > 0, "hand-offs must be priced");
        }
    }
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("fleet_run_until.json"),
        &fields,
        "event-heap run_until chaos fixtures",
        "GOLDEN_BLESS=1 cargo test --test fleet_golden",
    );
}
