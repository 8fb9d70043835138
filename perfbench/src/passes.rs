//! The passes one run makes over a workload: the production-path pass
//! behind the schema check, untraced timed passes, and the traced pass.

use std::cell::RefCell;
use std::time::Instant;

use moentwine::core::engine::{EngineConfig, InferenceEngine, RunSummary};
use moentwine::core::fleet::{Fleet, ReplicaPool, ReplicaRole};
use moentwine::spec::ScenarioOutcome;
use moentwine::workload::ReplicaSnapshot;
use moentwine_bench::json::Value;

use crate::check::{self, Checks};
use crate::replay::{
    request_source, HandoffReplay, LayerTimes, PlatformReplay, RouterReplay, StepReplay,
};
use crate::sim::{self, Counters, Point, Sim};
use crate::stats::{ns_since, Samples};
use crate::workloads::Workload;

/// What one pass measured and simulated.
pub struct Pass {
    pub parse_ns: u64,
    pub build_ns: u64,
    pub construct_ns: u64,
    /// Host time of the runs (steps, routing, summaries), set-up excluded.
    pub run_ns: u64,
    /// `run_ns` round by round: every point's rounds, then its summary
    /// (untraced passes only).
    pub slice_ns: Vec<u64>,
    pub completed: u64,
    pub counters: Vec<Counters>,
}

impl Pass {
    fn new(setup: &sim::Setup) -> Self {
        Pass {
            parse_ns: setup.parse_ns,
            build_ns: setup.build_ns,
            construct_ns: 0,
            run_ns: 0,
            slice_ns: Vec::new(),
            completed: 0,
            counters: Vec::new(),
        }
    }

    /// Spec parse + `ScenarioSpec::build` + engine or fleet construction.
    pub fn setup_ns(&self) -> u64 {
        self.parse_ns + self.build_ns + self.construct_ns
    }
}

/// Runs the workload through the production path — `run_manifest`, i.e.
/// `ScenarioSpec::expand_sweep`, `build` and `Scenario::run` per point —
/// checks the manifest against the `moentwine/scenario_run/v1` schema, and
/// returns the manifest for comparison with the benchmark's own passes.
pub fn manifest_pass(
    w: &Workload,
    seed: Option<u64>,
    checks: &mut Checks,
) -> Result<Value, String> {
    let spec = w.configure(w.parse().map_err(|e| e.to_string())?, seed);
    let manifest =
        moentwine_bench::scenario_run::run_manifest(&spec, false, 1).map_err(|e| e.to_string())?;
    check::manifest(checks, &manifest);
    Ok(manifest)
}

/// Checks that the manifest's points report the same simulated results as
/// a benchmark pass: the benchmark drives the production code path.
pub fn same_as_manifest(checks: &mut Checks, manifest: &Value, counters: &[Counters]) {
    let points = manifest
        .get("points")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    checks.check(points.len() == counters.len(), || {
        format!(
            "manifest has {} points, the pass ran {}",
            points.len(),
            counters.len()
        )
    });
    for (point, c) in points.iter().zip(counters) {
        let num = |k: &str| {
            point
                .get("serving")
                .and_then(|s| s.get(k))
                .and_then(Value::as_f64)
        };
        let expected = [
            ("completed", c.completed as f64),
            ("admission_rejects", c.rejected as f64),
            ("sim_seconds", c.sim_s),
            ("ttft_p99", c.ttft_p99_s),
            ("goodput_rps", c.goodput_rps),
        ];
        for (key, value) in expected {
            let got = num(key);
            checks.check(got == Some(value), || {
                format!(
                    "{}: manifest {key} {got:?} != benchmark pass {value:?}",
                    c.label
                )
            });
        }
    }
}

/// One untraced pass: set up, construct, run every point on the
/// production drive, summarize, check.
pub fn untraced(w: &Workload, seed: Option<u64>, checks: &mut Checks) -> Result<Pass, String> {
    let setup = sim::setup(w, seed).map_err(|e| e.to_string())?;
    let mut pass = Pass::new(&setup);
    for point in &setup.points {
        let start = Instant::now();
        let mut sim = point.construct().map_err(|e| e.to_string())?;
        pass.construct_ns += ns_since(start);
        let (outcome, slice_ns) = sim.run_sliced(point.rounds());
        pass.run_ns += slice_ns.iter().sum::<u64>();
        pass.slice_ns.extend(slice_ns);
        pass.completed += sim::completed(&outcome);
        pass.counters
            .push(sim.finish(&point.label, &outcome, checks));
    }
    Ok(pass)
}

/// A `ReplicaPool` that runs jobs in order on the calling thread and
/// records each job's duration (one job is one replica step).
#[derive(Default)]
struct TimingPool {
    ns: RefCell<Vec<u64>>,
}

impl ReplicaPool for TimingPool {
    fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
        let mut ns = self.ns.borrow_mut();
        for job in jobs {
            let start = Instant::now();
            job();
            ns.push(ns_since(start));
        }
    }
}

/// Everything the traced pass measured.
#[derive(Default)]
pub struct Traced {
    pub layers: LayerTimes,
    /// Every priced step.
    pub steps: Samples,
    /// Step time of the rounds whose layers were replayed.
    pub replayed_step_ns: u64,
    /// Mean step time over the first and the last quarter of each point's
    /// rounds: `(sum ns, steps)`.
    pub first_quarter: (u64, u64),
    pub last_quarter: (u64, u64),
    /// `Fleet::run_with(1, pool)` per round.
    pub rounds: Samples,
    /// Round time minus its summed step time, per round.
    pub overhead: Samples,
    pub summary_ns: u64,
    pub retained_records: u64,
    /// Hit and miss counts of the replayed cached tier.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Traced {
    /// Host time the traced drive itself spent (replays excluded).
    pub fn drive_ns(&self) -> u64 {
        if self.rounds.count() > 0 {
            self.rounds.busy_ns() + self.summary_ns
        } else {
            self.steps.busy_ns() + self.summary_ns
        }
    }

    fn step(&mut self, ns: u64, round: usize, rounds: usize) {
        self.steps.push(ns);
        let quarter = (rounds / 4).max(1);
        if round < quarter {
            self.first_quarter.0 += ns;
            self.first_quarter.1 += 1;
        }
        if round >= rounds - quarter {
            self.last_quarter.0 += ns;
            self.last_quarter.1 += 1;
        }
    }
}

/// The traced pass: the same points and seed as the untraced passes,
/// stepped one round (or engine step) at a time with every step timed,
/// and every `replay_every`-th round replayed layer by layer.
pub fn traced(
    w: &Workload,
    seed: Option<u64>,
    checks: &mut Checks,
) -> Result<(Pass, Traced), String> {
    let setup = sim::setup(w, seed).map_err(|e| e.to_string())?;
    let mut pass = Pass::new(&setup);
    let mut traced = Traced::default();
    for point in &setup.points {
        let start = Instant::now();
        let mut sim = point.construct().map_err(|e| e.to_string())?;
        pass.construct_ns += ns_since(start);
        let start = Instant::now();
        let outcome = match &mut sim {
            Sim::Fleet(fleet) => trace_fleet(w, point, fleet, &mut traced)?,
            Sim::Engine(engine) => trace_engine(w, point, engine, &mut traced)?,
        };
        pass.run_ns += ns_since(start);
        pass.completed += sim::completed(&outcome);
        pass.counters
            .push(sim.finish(&point.label, &outcome, checks));
    }
    Ok((pass, traced))
}

/// Shadow pricing stacks for the point's platforms: the primary one and,
/// for a heterogeneous disaggregated fleet, the decode platform.
fn platforms<'a>(point: &'a Point, config: &EngineConfig) -> Vec<PlatformReplay<'a>> {
    let s = &point.scenario;
    let mut platforms = vec![PlatformReplay::new(
        s.topology(),
        s.route_table(),
        s.layout().as_parallel(),
        config.backend,
        config.cache_entries,
    )];
    if let Some((topo, table, layout)) = &point.decode {
        platforms.push(PlatformReplay::new(
            topo,
            table,
            layout.as_parallel(),
            config.backend,
            config.cache_entries,
        ));
    }
    platforms
}

fn record_cache(traced: &mut Traced, platforms: &[PlatformReplay<'_>]) {
    for stats in platforms.iter().filter_map(PlatformReplay::cache_stats) {
        traced.cache_hits += stats.hits;
        traced.cache_misses += stats.misses;
    }
}

fn trace_fleet(
    w: &Workload,
    point: &Point,
    fleet: &mut Fleet<'_>,
    traced: &mut Traced,
) -> Result<ScenarioOutcome, String> {
    let config = point.scenario.engine_config().map_err(|e| e.to_string())?;
    let fleet_spec = point.scenario.spec().fleet.as_ref().expect("a fleet point");
    let platforms = platforms(point, &config);
    let roles: Vec<ReplicaRole> = fleet.roles().to_vec();
    let mut shadows: Vec<StepReplay> = fleet
        .engines()
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let on = usize::from(roles[i] == ReplicaRole::Decode && platforms.len() > 1);
            StepReplay::for_replica(&config, engine, on, &platforms[on], config.seed ^ i as u64)
        })
        .collect();
    let mut offers = request_source(&config, fleet_spec.request_rate, 0x000F_FE25)?;
    let mut router = RouterReplay::new(
        fleet.router(),
        request_source(&config, fleet_spec.request_rate, 0x000A_110C)?,
    );
    let handoff = fleet.disaggregated().then(|| {
        HandoffReplay::new(
            point.scenario.topology(),
            point.scenario.route_table(),
            config.backend,
            &config.model,
        )
    });
    let pool = TimingPool::default();
    let rounds = point.rounds();
    for round in 0..rounds {
        let replay = round % w.replay_every == 0;
        let clocks: Vec<f64> = fleet
            .engines()
            .iter()
            .map(InferenceEngine::sim_time)
            .collect();
        let snapshots: Vec<ReplicaSnapshot> = fleet
            .engines()
            .iter()
            .map(|e| e.replica_snapshot().expect("fleet replicas serve"))
            .collect();
        let routed_before = fleet.router().routed().to_vec();

        let start = Instant::now();
        fleet.run_with(1, &pool);
        let round_ns = ns_since(start);

        let steps = std::mem::take(&mut *pool.ns.borrow_mut());
        let step_sum: u64 = steps.iter().sum();
        for ns in steps {
            traced.step(ns, round, rounds);
        }
        traced.rounds.push(round_ns);
        traced.overhead.push(round_ns.saturating_sub(step_sum));

        let routed_after = fleet.router().routed();
        for (i, (shadow, engine)) in shadows.iter_mut().zip(fleet.engines()).enumerate() {
            shadow.offer(&mut offers, routed_after[i] - routed_before[i], clocks[i]);
            shadow.schedule(clocks[i], engine.sim_time(), &mut traced.layers);
            shadow.match_occupancy(&engine.replica_snapshot().expect("fleet replicas serve"));
        }
        if replay {
            traced.replayed_step_ns += step_sum;
            for (i, (shadow, engine)) in shadows.iter_mut().zip(fleet.engines()).enumerate() {
                shadow.replay_layers(engine, &platforms[shadow.platform], &mut traced.layers);
                if let (Some(h), ReplicaRole::Prefill) = (&handoff, roles[i]) {
                    h.replay_step(engine, &mut traced.layers);
                }
            }
            router.replay_round(
                &snapshots,
                &roles,
                &routed_before,
                routed_after,
                &mut traced.layers,
            );
        }
    }
    let start = Instant::now();
    let summary = fleet.summary();
    traced.summary_ns += ns_since(start);
    traced.retained_records += fleet.retained_records() as u64;
    record_cache(traced, &platforms);
    Ok(ScenarioOutcome::Fleet(Box::new(summary)))
}

fn trace_engine(
    w: &Workload,
    point: &Point,
    engine: &mut InferenceEngine<'_>,
    traced: &mut Traced,
) -> Result<ScenarioOutcome, String> {
    let config = point.scenario.engine_config().map_err(|e| e.to_string())?;
    let platforms = platforms(point, &config);
    let mut shadow = StepReplay::for_engine(&config, engine, &platforms[0])?;
    let rounds = point.rounds();
    for round in 0..rounds {
        let before = engine.sim_time();
        let start = Instant::now();
        engine.step();
        let ns = ns_since(start);
        traced.step(ns, round, rounds);
        shadow.schedule(before, engine.sim_time(), &mut traced.layers);
        if round % w.replay_every == 0 {
            traced.replayed_step_ns += ns;
            shadow.replay_layers(engine, &platforms[0], &mut traced.layers);
        }
    }
    let start = Instant::now();
    let run = RunSummary::from_history(&engine.history, 0, point.scenario.topology().num_devices());
    let serving = engine.serving_summary();
    traced.summary_ns += ns_since(start);
    traced.retained_records += engine.retained_records() as u64;
    record_cache(traced, &platforms);
    Ok(ScenarioOutcome::Engine {
        run,
        serving: Box::new(serving),
    })
}
