//! Materializing a workload (spec parse, `ScenarioSpec::build`, engine or
//! fleet construction) and the untimed pieces every pass shares: the
//! simulated counters and the correctness checks on a finished point.

use std::time::Instant;

use moentwine::core::engine::InferenceEngine;
use moentwine::core::fleet::{Fleet, PlatformRefs};
use moentwine::spec::{ConfigError, Layout, Scenario, ScenarioOutcome};
use moentwine::topology::{RouteTable, Topology};

use crate::check::{self, Checks};
use crate::stats::ns_since;
use crate::workloads::Workload;

/// One scenario point, built: the scenario plus the decode platform a
/// heterogeneous disaggregated fleet runs its decode replicas on.
pub struct Point {
    pub label: String,
    pub scenario: Scenario,
    pub decode: Option<(Topology, RouteTable, Layout)>,
}

/// A workload's points and what building them cost.
pub struct Setup {
    pub points: Vec<Point>,
    pub parse_ns: u64,
    pub build_ns: u64,
}

/// Parses the workload's spec and builds every sweep point.
pub fn setup(w: &Workload, seed: Option<u64>) -> Result<Setup, ConfigError> {
    let start = Instant::now();
    let spec = w.parse()?;
    let parse_ns = ns_since(start);
    let start = Instant::now();
    let spec = w.configure(spec, seed);
    let mut points = Vec::new();
    for (label, point) in spec.expand_sweep()? {
        let scenario = point.build()?;
        let decode = match &point.fleet {
            Some(f) => match (&f.decode_platform, &f.decode_mapping) {
                (Some(platform), Some(mapping)) => {
                    let (topo, table) = platform.materialize()?;
                    let layout = mapping.layout(&topo)?;
                    Some((topo, table, layout))
                }
                _ => None,
            },
            None => None,
        };
        points.push(Point {
            label,
            scenario,
            decode,
        });
    }
    Ok(Setup {
        points,
        parse_ns,
        build_ns: ns_since(start),
    })
}

/// A constructed simulator for one point.
pub enum Sim<'a> {
    Engine(InferenceEngine<'a>),
    Fleet(Fleet<'a>),
}

impl Point {
    /// Constructs the engine or fleet exactly as `Scenario::run` does.
    pub fn construct(&self) -> Result<Sim<'_>, ConfigError> {
        let s = &self.scenario;
        let config = s.engine_config()?;
        Ok(match &s.spec().fleet {
            None => Sim::Engine(InferenceEngine::try_new(
                s.topology(),
                s.route_table(),
                s.layout().as_parallel(),
                config,
            )?),
            Some(fleet) => {
                let prefill = PlatformRefs {
                    topo: s.topology(),
                    table: s.route_table(),
                    layout: s.layout().as_parallel(),
                };
                let decode = self
                    .decode
                    .as_ref()
                    .map(|(topo, table, layout)| PlatformRefs {
                        topo,
                        table,
                        layout: layout.as_parallel(),
                    });
                Sim::Fleet(Fleet::try_new_disaggregated(
                    prefill,
                    decode,
                    fleet.fleet_config(config),
                )?)
            }
        })
    }

    /// Fleet rounds (engine iterations) one pass runs on this point.
    pub fn rounds(&self) -> usize {
        self.scenario.spec().iterations
    }
}

/// End-to-end completed requests of a finished point.
pub fn completed(outcome: &ScenarioOutcome) -> u64 {
    match outcome {
        ScenarioOutcome::Engine { serving, .. } => serving.completed as u64,
        ScenarioOutcome::Fleet(f) => f.aggregate.completed as u64,
    }
}

impl Sim<'_> {
    /// Runs `rounds` on the production drive one round per call
    /// (`Fleet::run(1)` / `InferenceEngine::step`, result-identical to one
    /// `Fleet::run(rounds)` / `InferenceEngine::run(rounds)` call), then
    /// summarizes. Returns the outcome and the host time of each round, the
    /// summary last.
    pub fn run_sliced(&mut self, rounds: usize) -> (ScenarioOutcome, Vec<u64>) {
        let mut slice_ns = Vec::with_capacity(rounds + 1);
        for _ in 0..rounds {
            let start = Instant::now();
            match self {
                Sim::Engine(engine) => {
                    engine.step();
                }
                Sim::Fleet(fleet) => fleet.run(1),
            }
            slice_ns.push(ns_since(start));
        }
        let start = Instant::now();
        let outcome = match self {
            // `run(0)` steps nothing and returns the run summary `run`
            // would have returned.
            Sim::Engine(engine) => ScenarioOutcome::Engine {
                run: engine.run(0),
                serving: Box::new(engine.serving_summary()),
            },
            Sim::Fleet(fleet) => ScenarioOutcome::Fleet(Box::new(fleet.summary())),
        };
        slice_ns.push(ns_since(start));
        (outcome, slice_ns)
    }

    /// The simulated counters of a finished point, after checking its
    /// conservation and summary sanity.
    pub fn finish(&self, label: &str, outcome: &ScenarioOutcome, checks: &mut Checks) -> Counters {
        match (self, outcome) {
            (Sim::Engine(engine), ScenarioOutcome::Engine { run, serving: s }) => {
                check::serving(checks, label, s);
                let snap = engine.replica_snapshot();
                let resident = snap.map_or(0, |q| q.queue_depth as u64 + q.active as u64);
                Counters {
                    label: label.to_string(),
                    routed: s.completed as u64 + s.admission_rejects + s.shed + resident,
                    completed: s.completed as u64,
                    rejected: s.admission_rejects,
                    shed: s.shed,
                    sim_s: s.sim_seconds,
                    ttft_p99_s: s.ttft_p99,
                    goodput_rps: s.goodput_rps,
                    kv_transfers: 0,
                    cancelled_copies: 0,
                    migrations: run.migrations_completed,
                }
            }
            (Sim::Fleet(fleet), ScenarioOutcome::Fleet(f)) => {
                check::fleet(checks, label, fleet, f);
                Counters {
                    label: label.to_string(),
                    routed: f.routed.iter().sum(),
                    completed: f.aggregate.completed as u64,
                    rejected: f.aggregate.admission_rejects,
                    shed: f.aggregate.shed,
                    sim_s: f.sim_seconds,
                    ttft_p99_s: f.aggregate.ttft_p99,
                    goodput_rps: f.aggregate.goodput_rps,
                    kv_transfers: f.handoff.kv_transfers,
                    cancelled_copies: f.speculative.cancelled_copies,
                    migrations: 0,
                }
            }
            _ => unreachable!("an engine yields an engine outcome, a fleet a fleet outcome"),
        }
    }
}

/// The simulated (`model.*`) counters of one point. A speed-only change
/// leaves every one of them byte-identical.
#[derive(Clone, Debug)]
pub struct Counters {
    pub label: String,
    /// Copies routed by the fleet router; for an engine, requests that
    /// entered its queue.
    pub routed: u64,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub sim_s: f64,
    pub ttft_p99_s: f64,
    pub goodput_rps: f64,
    pub kv_transfers: u64,
    pub cancelled_copies: u64,
    /// Expert migrations completed (engine workloads; the fleets run no
    /// balancer).
    pub migrations: u64,
}

impl Counters {
    /// `(name, value, unit)` rows, floats printed in shortest round-trip
    /// form so two runs compare byte for byte.
    pub fn rows(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("model.routed", self.routed.to_string(), "count"),
            ("model.completed", self.completed.to_string(), "count"),
            ("model.rejected", self.rejected.to_string(), "count"),
            ("model.shed", self.shed.to_string(), "count"),
            ("model.sim_s", format!("{:?}", self.sim_s), "s"),
            ("model.ttft_p99_s", format!("{:?}", self.ttft_p99_s), "s"),
            (
                "model.goodput_rps",
                format!("{:?}", self.goodput_rps),
                "1/s",
            ),
            ("model.kv_transfers", self.kv_transfers.to_string(), "count"),
            (
                "model.cancelled_copies",
                self.cancelled_copies.to_string(),
                "count",
            ),
            ("model.migrations", self.migrations.to_string(), "count"),
        ]
    }

    /// One comparable line per point.
    pub fn key(&self) -> String {
        let mut key = self.label.clone();
        for (name, value, _) in self.rows() {
            key.push_str(&format!(" {name}={value}"));
        }
        key
    }
}

/// Compares the counters of a pass against the reference pass.
pub fn same_counters(checks: &mut Checks, what: &str, reference: &[Counters], got: &[Counters]) {
    let a: Vec<String> = reference.iter().map(Counters::key).collect();
    let b: Vec<String> = got.iter().map(Counters::key).collect();
    checks.check(a == b, || {
        format!("{what}: model counters differ\n  reference {a:?}\n  got       {b:?}")
    });
}
