//! The benchmark's workloads: a scenario file, the number of rounds a pass
//! runs, and how densely the traced pass replays steps.

use moentwine::spec::{ConfigError, ScenarioSpec};

/// One named workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The scenario document (a `moentwine/scenario/v1` spec).
    spec_json: &'static str,
    /// Fleet rounds (or engine iterations) per scenario point in one pass.
    pub rounds: usize,
    /// The traced pass replays every `replay_every`-th round (1 = all).
    pub replay_every: usize,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    // The checked-in 64-replica power-of-two fleet at both sweep rates.
    Workload {
        name: "mega_fleet",
        spec_json: include_str!("../specs/mega_fleet.json"),
        rounds: 300,
        replay_every: 4,
    },
    // 64 replicas under `speculative:k=2` with 4x bursts.
    Workload {
        name: "speculative_fleet",
        spec_json: include_str!("../specs/speculative_fleet.json"),
        rounds: 500,
        replay_every: 4,
    },
    // 2 wafer prefill + 2 DGX decode replicas, exact summaries.
    Workload {
        name: "disagg_fleet",
        spec_json: include_str!("../specs/disagg_fleet.json"),
        rounds: 20_000,
        replay_every: 8,
    },
    // One 4x4 wafer serving Qwen3-235B with the NI-Balancer on the cached
    // DES tier; every step is replayed so the replay's schedule cache sees
    // the same stream of shapes as the engine's.
    Workload {
        name: "wafer_ni_balance",
        spec_json: include_str!("../specs/wafer_ni_balance.json"),
        rounds: 150,
        replay_every: 1,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Parses the scenario document.
    pub fn parse(&self) -> Result<ScenarioSpec, ConfigError> {
        ScenarioSpec::from_json_text(self.spec_json)
    }

    /// Applies the benchmark's run length and, when given, the seed that
    /// replaces the spec's engine seed.
    pub fn configure(&self, mut spec: ScenarioSpec, seed: Option<u64>) -> ScenarioSpec {
        spec.iterations = self.rounds;
        if let Some(seed) = seed {
            spec.engine.seed = seed;
        }
        spec
    }
}
