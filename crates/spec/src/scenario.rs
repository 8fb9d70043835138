//! The scenario root: the typed spec tree and its materialized runner.

use moe_model::ModelConfig;
use moentwine_core::comm::{ClusterLayout, ParallelLayout};
use moentwine_core::engine::{EngineConfig, InferenceEngine, RunSummary, ServingSummary};
use moentwine_core::fleet::{Fleet, FleetSummary, PlatformRefs};
use moentwine_core::mapping::MappingPlan;
use moentwine_core::ConfigError;
use wsc_topology::{RouteTable, Topology};

use crate::engine::{BatchSpec, EngineSpec};
use crate::fleet::FleetSpec;
use crate::model::ModelSpec;
use crate::platform::{MappingSpec, PlatformSpec};
use crate::sweep::SweepSpec;

/// The typed root of the declarative scenario tree. See the
/// [crate docs](crate) for the JSON encoding and the
/// [`Scenario`] runner for materialization.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (used for manifests and file stems).
    pub name: String,
    /// Which interconnect to build.
    pub platform: PlatformSpec,
    /// How TP groups tile the platform.
    pub mapping: MappingSpec,
    /// Which model to serve.
    pub model: ModelSpec,
    /// Every engine knob.
    pub engine: EngineSpec,
    /// Scale-out shape; `None` runs a single engine.
    pub fleet: Option<FleetSpec>,
    /// Axes to expand into a scenario grid; `None`/empty runs one point.
    pub sweep: Option<SweepSpec>,
    /// Engine iterations (or fleet synchronization rounds).
    pub iterations: usize,
}

/// The most iterations (or fleet rounds) a scenario may run: over 30×
/// the largest shipped scenario (`mega_fleet`, 300,000 rounds). A count
/// such as `1e15` would otherwise parse and run until killed, so a larger
/// one is rejected as [`ConfigError::TooManyIterations`] at parse and by
/// [`ScenarioSpec::build`].
pub const MAX_ITERATIONS: usize = 10_000_000;

/// Checks an iteration count against [`MAX_ITERATIONS`].
pub(crate) fn validate_iterations(iterations: usize) -> Result<(), ConfigError> {
    if iterations > MAX_ITERATIONS {
        return Err(ConfigError::TooManyIterations {
            iterations: iterations as u64,
            max: MAX_ITERATIONS as u64,
        });
    }
    Ok(())
}

impl ScenarioSpec {
    /// A scenario named `name` on `platform`, with ER mapping at TP=4, the
    /// tiny model, default engine knobs, and 100 iterations — override
    /// everything builder-style.
    pub fn new(name: impl Into<String>, platform: PlatformSpec) -> Self {
        ScenarioSpec {
            name: name.into(),
            platform,
            mapping: MappingSpec::er(4),
            model: ModelSpec::preset("tiny"),
            engine: EngineSpec::default(),
            fleet: None,
            sweep: None,
            iterations: 100,
        }
    }

    /// Sets the mapping (builder style).
    pub fn with_mapping(mut self, mapping: MappingSpec) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the model (builder style).
    pub fn with_model(mut self, model: ModelSpec) -> Self {
        self.model = model;
        self
    }

    /// Sets the engine spec (builder style).
    pub fn with_engine(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the fleet shape (builder style).
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Sets the sweep axes (builder style).
    pub fn with_sweep(mut self, sweep: SweepSpec) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Sets the iteration (or fleet round) count (builder style).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Expands the sweep axes into concrete single-point scenarios
    /// `(label, spec)`, in row-major axis order (rate slowest, replicas
    /// fastest). Without a sweep the base scenario is the single point
    /// (labelled by its name). Expanded specs have `sweep: None`.
    ///
    /// # Errors
    ///
    /// Returns a spec error when the `policies` or `replicas` axis is
    /// populated on a scenario with no fleet (those axes would otherwise
    /// be silent no-ops producing identical points under distinct labels).
    pub fn expand_sweep(&self) -> Result<Vec<(String, ScenarioSpec)>, ConfigError> {
        let sweep = match &self.sweep {
            Some(s) if !s.is_empty() => s.clone(),
            _ => {
                let mut base = self.clone();
                base.sweep = None;
                return Ok(vec![(self.name.clone(), base)]);
            }
        };
        if self.fleet.is_none() {
            if !sweep.policies.is_empty() {
                return Err(ConfigError::spec(
                    "sweep.policies",
                    "a policy axis needs a fleet section (router policies \
                     apply to fleet dispatch)",
                ));
            }
            if !sweep.replicas.is_empty() {
                return Err(ConfigError::spec(
                    "sweep.replicas",
                    "a replica axis needs a fleet section",
                ));
            }
            if !sweep.rates.is_empty() && matches!(self.engine.batch, BatchSpec::Fixed { .. }) {
                return Err(ConfigError::spec(
                    "sweep.rates",
                    "a rate axis needs an arrival stream: a serving batch \
                     spec or a fleet section (fixed batches have no \
                     request rate)",
                ));
            }
        }
        if !sweep.rates.is_empty() {
            if let BatchSpec::Serving(serving) = &self.engine.batch {
                if serving.workload.as_ref().is_some_and(|w| {
                    matches!(w.arrivals, crate::workload::ArrivalSourceSpec::Trace { .. })
                }) {
                    return Err(ConfigError::spec(
                        "sweep.rates",
                        "a rate axis cannot sweep a trace-replay workload: \
                         the trace owns every arrival instant and ignores \
                         the request rate",
                    ));
                }
            }
        }
        if let Some(fleet) = &self.fleet {
            if !sweep.backends.is_empty() && !fleet.backend_overrides.is_empty() {
                return Err(ConfigError::spec(
                    "sweep.backends",
                    "fleet.backend_overrides would shadow the swept \
                     template backend on every replica; drop one of the two",
                ));
            }
        }
        // Empty axes contribute one "inherit the base" point each.
        let rates: Vec<Option<f64>> = opt_axis(&sweep.rates);
        let backends = opt_axis(&sweep.backends);
        let policies = opt_axis(&sweep.policies);
        let replicas = opt_axis(&sweep.replicas);
        let mut points = Vec::with_capacity(sweep.num_points());
        for &rate in &rates {
            for &backend in &backends {
                for &policy in &policies {
                    for &n in &replicas {
                        let mut spec = self.clone();
                        spec.sweep = None;
                        let mut label = self.name.clone();
                        if let Some(rate) = rate {
                            label.push_str(&format!("/rate={rate}"));
                            spec.set_rate(rate);
                        }
                        if let Some(backend) = backend {
                            label.push_str(&format!("/backend={}", backend.name()));
                            spec.engine.backend = backend;
                        }
                        if let Some(policy) = policy {
                            label.push_str(&format!("/policy={}", policy.name()));
                            if let Some(fleet) = &mut spec.fleet {
                                fleet.policy = policy;
                            }
                        }
                        if let Some(n) = n {
                            label.push_str(&format!("/replicas={n}"));
                            if let Some(fleet) = &mut spec.fleet {
                                fleet.replicas = n;
                            }
                        }
                        spec.name = label.clone();
                        points.push((label, spec));
                    }
                }
            }
        }
        Ok(points)
    }

    /// Applies a swept arrival rate to whichever layer owns arrivals.
    fn set_rate(&mut self, rate: f64) {
        if let Some(fleet) = &mut self.fleet {
            fleet.request_rate = rate;
        } else if let BatchSpec::Serving(serving) = &mut self.engine.batch {
            serving.request_rate = rate;
        }
    }

    /// Materializes the platform, route table, layout, and model into a
    /// runnable [`Scenario`]. Cheap spec-level validation (unknown preset,
    /// mapping mismatch, engine knobs, fleet shape) all happens here, so
    /// [`Scenario::run`] can only fail on the engine/fleet constructors
    /// re-checking the same invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found anywhere in the tree. A
    /// populated sweep section is rejected here: a [`Scenario`] is one
    /// point — call [`ScenarioSpec::expand_sweep`] and build each expanded
    /// spec (the `scenario` bench bin does this automatically).
    pub fn build(&self) -> Result<Scenario, ConfigError> {
        if self.sweep.as_ref().is_some_and(|s| !s.is_empty()) {
            return Err(ConfigError::spec(
                "sweep",
                "sweep axes present: expand_sweep() and build each point \
                 (the `scenario` bin does this automatically)",
            ));
        }
        validate_iterations(self.iterations)?;
        let (topo, table) = self.platform.materialize()?;
        let layout = self.mapping.layout(&topo)?;
        let model = self.model.resolve()?;
        // Validate the engine knobs (and the fleet shape) up front.
        self.engine.engine_config(model.clone())?;
        let mut decode = None;
        if let Some(fleet) = &self.fleet {
            if fleet.replicas == 0 {
                return Err(ConfigError::ReplicasZero);
            }
            if matches!(self.engine.batch, BatchSpec::Fixed { .. }) {
                return Err(ConfigError::FleetNeedsServingBatch);
            }
            // Re-check here because a sweep may have rewritten `replicas`
            // after the codec validated the roles/timeline at parse time.
            fleet.validate_shape()?;
            if let (Some(platform), Some(mapping)) = (&fleet.decode_platform, &fleet.decode_mapping)
            {
                let (decode_topo, decode_table) = platform.materialize()?;
                let decode_layout = mapping.layout(&decode_topo)?;
                decode = Some((decode_topo, decode_table, decode_layout));
            }
        }
        Ok(Scenario {
            spec: self.clone(),
            model,
            topo,
            table,
            layout,
            decode,
        })
    }
}

fn opt_axis<T: Copy>(axis: &[T]) -> Vec<Option<T>> {
    if axis.is_empty() {
        vec![None]
    } else {
        axis.iter().copied().map(Some).collect()
    }
}

/// A materialized layout: a WSC mapping plan or a switch-cluster layout.
#[derive(Clone, Debug)]
pub enum Layout {
    /// A mesh mapping plan (baseline / ER / HER).
    Plan(MappingPlan),
    /// Contiguous TP groups on a switch platform.
    Cluster(ClusterLayout),
}

impl Layout {
    /// The layout as the engine's [`ParallelLayout`] trait object.
    pub fn as_parallel(&self) -> &dyn ParallelLayout {
        match self {
            Layout::Plan(plan) => plan,
            Layout::Cluster(cluster) => cluster,
        }
    }

    /// The mapping plan, when this is a mesh layout.
    pub fn as_plan(&self) -> Option<&MappingPlan> {
        match self {
            Layout::Plan(plan) => Some(plan),
            Layout::Cluster(_) => None,
        }
    }
}

/// What a scenario run produced: the engine's own summary types,
/// unchanged.
#[derive(Clone, PartialEq, Debug)]
pub enum ScenarioOutcome {
    /// A single-engine run.
    Engine {
        /// Per-iteration aggregate.
        run: RunSummary,
        /// Request-level serving statistics (zeroed in fixed-batch mode;
        /// boxed to keep the variants close in size).
        serving: Box<ServingSummary>,
    },
    /// A fleet run (boxed: a `FleetSummary` dwarfs the other fields).
    Fleet(Box<FleetSummary>),
}

impl ScenarioOutcome {
    /// The engine summaries, when this was a single-engine run.
    pub fn as_engine(&self) -> Option<(&RunSummary, &ServingSummary)> {
        match self {
            ScenarioOutcome::Engine { run, serving } => Some((run, serving.as_ref())),
            ScenarioOutcome::Fleet(_) => None,
        }
    }

    /// The fleet summary, when this was a fleet run.
    pub fn as_fleet(&self) -> Option<&FleetSummary> {
        match self {
            ScenarioOutcome::Fleet(summary) => Some(summary.as_ref()),
            ScenarioOutcome::Engine { .. } => None,
        }
    }
}

/// A materialized scenario: the topology, route table, layout, and model
/// built once from a [`ScenarioSpec`], ready to run (possibly repeatedly —
/// every [`Scenario::run`] starts from a fresh engine/fleet, so runs are
/// independent and deterministic).
#[derive(Debug)]
pub struct Scenario {
    spec: ScenarioSpec,
    model: ModelConfig,
    topo: Topology,
    table: RouteTable,
    layout: Layout,
    /// Decode-tier platform for disaggregated fleets (`None` runs every
    /// role on the primary platform).
    decode: Option<(Topology, RouteTable, Layout)>,
}

impl Scenario {
    /// The spec this scenario was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The materialized topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The materialized route table.
    pub fn route_table(&self) -> &RouteTable {
        &self.table
    }

    /// The materialized layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The validated engine config the run will use (the fleet path uses
    /// it as the replica template).
    ///
    /// # Errors
    ///
    /// Returns whatever [`EngineConfig::validate`] rejects.
    pub fn engine_config(&self) -> Result<EngineConfig, ConfigError> {
        self.spec.engine.engine_config(self.model.clone())
    }

    /// Runs the scenario: `iterations` engine steps, or `iterations` fleet
    /// synchronization rounds when a [`FleetSpec`] is present. Returns the
    /// engine's existing summary types.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of the engine/fleet constructor (the
    /// same checks [`ScenarioSpec::build`] already ran).
    pub fn run(&self) -> Result<ScenarioOutcome, ConfigError> {
        let config = self.engine_config()?;
        match &self.spec.fleet {
            None => {
                let mut engine = InferenceEngine::try_new(
                    &self.topo,
                    &self.table,
                    self.layout.as_parallel(),
                    config,
                )?;
                let run = engine.run(self.spec.iterations);
                let serving = Box::new(engine.serving_summary());
                Ok(ScenarioOutcome::Engine { run, serving })
            }
            Some(fleet_spec) => {
                // `try_new_disaggregated` with `decode: None` is exactly
                // `try_new`, so the colocated path is bit-identical.
                let prefill = PlatformRefs {
                    topo: &self.topo,
                    table: &self.table,
                    layout: self.layout.as_parallel(),
                };
                let decode = self
                    .decode
                    .as_ref()
                    .map(|(topo, table, layout)| PlatformRefs {
                        topo,
                        table,
                        layout: layout.as_parallel(),
                    });
                let mut fleet =
                    Fleet::try_new_disaggregated(prefill, decode, fleet_spec.fleet_config(config))?;
                fleet.run(self.spec.iterations);
                Ok(ScenarioOutcome::Fleet(Box::new(fleet.summary())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServingSpec;
    use moe_workload::RouterPolicy;
    use wsc_sim::CongestionBackend;

    fn serving_spec() -> ScenarioSpec {
        let engine = EngineSpec::default()
            .with_seed(11)
            .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 4.0e3)))
            .with_kv_hbm_fraction(1.0e-3);
        ScenarioSpec::new("unit", PlatformSpec::wsc(4))
            .with_engine(engine)
            .with_iterations(30)
    }

    #[test]
    fn engine_scenario_runs() {
        let outcome = serving_spec().build().unwrap().run().unwrap();
        let (run, serving) = outcome.as_engine().unwrap();
        assert_eq!(run.iterations, 30);
        assert!(serving.sim_seconds > 0.0);
    }

    #[test]
    fn fleet_scenario_runs_and_fixed_batch_fleet_is_rejected() {
        let spec = serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::RoundRobin, 4.0e3))
            .with_iterations(20);
        let outcome = spec.build().unwrap().run().unwrap();
        let summary = outcome.as_fleet().unwrap();
        assert_eq!(summary.replicas, 2);
        assert_eq!(summary.rounds, 20);

        let bad = ScenarioSpec::new("bad", PlatformSpec::wsc(4)).with_fleet(FleetSpec::new(
            2,
            RouterPolicy::RoundRobin,
            4.0e3,
        ));
        assert_eq!(
            bad.build().unwrap_err(),
            ConfigError::FleetNeedsServingBatch
        );
    }

    #[test]
    fn chaos_fleet_scenario_runs_and_bad_timelines_fail_at_build() {
        use moentwine_core::fleet::{FleetEvent, FleetEventKind};
        let events = vec![
            FleetEvent {
                time: 3.0e-4,
                kind: FleetEventKind::Crash { replica: 1 },
            },
            FleetEvent {
                time: 6.0e-4,
                kind: FleetEventKind::Recover { replica: 1 },
            },
        ];
        let spec = serving_spec()
            .with_fleet(
                FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 1.0e5).with_events(events.clone()),
            )
            .with_iterations(250);
        let outcome = spec.build().unwrap().run().unwrap();
        let summary = outcome.as_fleet().unwrap();
        assert_eq!(summary.availability.events_applied, 2);
        assert_eq!(summary.availability.replica_states, vec!["active"; 2]);
        assert!(summary.availability.available_fraction < 1.0);

        // A sweep shrinking the fleet below a timeline's replica indices
        // fails at build time with the typed timeline error.
        let swept = serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::RoundRobin, 1.0e3).with_events(events))
            .with_sweep(SweepSpec::default().with_replicas(vec![1]));
        let (_, point) = swept.expand_sweep().unwrap().pop().unwrap();
        assert!(matches!(
            point.build().unwrap_err(),
            ConfigError::FleetEventReplicaOutOfRange { .. }
        ));
    }

    #[test]
    fn disaggregated_scenario_prices_kv_transfers_on_the_decode_platform() {
        use crate::platform::{MappingSpec, PlatformSpec};
        use moentwine_core::fleet::ReplicaRole;
        let roles = vec![
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ];
        let spec = serving_spec()
            .with_fleet(
                FleetSpec::new(4, RouterPolicy::LeastQueueDepth, 2.0e4)
                    .with_roles(roles.clone())
                    .with_decode_platform(PlatformSpec::dgx(1), MappingSpec::cluster(8)),
            )
            .with_iterations(250);
        let outcome = spec.build().unwrap().run().unwrap();
        let summary = outcome.as_fleet().unwrap();
        assert!(summary.handoff.kv_transfers > 0);
        assert!(summary.handoff.kv_transfer_seconds > 0.0);

        // The same shape without the heterogeneous decode platform also
        // runs (decode replicas share the primary wafer).
        let homogeneous = serving_spec()
            .with_fleet(FleetSpec::new(4, RouterPolicy::LeastQueueDepth, 2.0e4).with_roles(roles))
            .with_iterations(250);
        let outcome = homogeneous.build().unwrap().run().unwrap();
        assert!(outcome.as_fleet().unwrap().handoff.kv_transfers > 0);

        // Shape errors fail at build, before any engine is constructed.
        let bad = serving_spec().with_fleet(
            FleetSpec::new(2, RouterPolicy::RoundRobin, 1.0e3)
                .with_roles(vec![ReplicaRole::Prefill; 2]),
        );
        assert_eq!(bad.build().unwrap_err(), ConfigError::FleetNoDecodeCapacity);
    }

    #[test]
    fn sweep_expansion_is_row_major_and_rewrites_axes() {
        let spec = serving_spec()
            .with_fleet(FleetSpec::new(1, RouterPolicy::RoundRobin, 1.0e3))
            .with_sweep(
                SweepSpec::default()
                    .with_rates(vec![1.0e3, 2.0e3])
                    .with_policies(vec![
                        RouterPolicy::RoundRobin,
                        RouterPolicy::PowerOfTwoChoices,
                    ])
                    .with_replicas(vec![1, 2]),
            );
        let points = spec.expand_sweep().unwrap();
        assert_eq!(points.len(), 8);
        // Replicas vary fastest, rate slowest.
        assert_eq!(points[0].1.fleet.as_ref().unwrap().replicas, 1);
        assert_eq!(points[1].1.fleet.as_ref().unwrap().replicas, 2);
        assert_eq!(points[0].1.fleet.as_ref().unwrap().request_rate, 1.0e3);
        assert_eq!(points[7].1.fleet.as_ref().unwrap().request_rate, 2.0e3);
        assert_eq!(
            points[7].1.fleet.as_ref().unwrap().policy,
            RouterPolicy::PowerOfTwoChoices
        );
        assert!(points.iter().all(|(_, s)| s.sweep.is_none()));
        assert_eq!(points[3].0, "unit/rate=1000/policy=power-of-two/replicas=2");

        // Engine-only sweeps rewrite the serving rate instead.
        let engine_sweep = serving_spec().with_sweep(
            SweepSpec::default()
                .with_rates(vec![9.0e3])
                .with_backends(vec![CongestionBackend::FlowSimCached]),
        );
        let points = engine_sweep.expand_sweep().unwrap();
        assert_eq!(points.len(), 1);
        let BatchSpec::Serving(s) = &points[0].1.engine.batch else {
            panic!("serving batch expected")
        };
        assert_eq!(s.request_rate, 9.0e3);
        assert_eq!(points[0].1.engine.backend, CongestionBackend::FlowSimCached);

        // No sweep: the base scenario is the single point.
        assert_eq!(serving_spec().expand_sweep().unwrap().len(), 1);

        // Fleet-only axes on an engine-only scenario are typed errors, not
        // silent no-ops.
        let bad = serving_spec()
            .with_sweep(SweepSpec::default().with_policies(vec![RouterPolicy::RoundRobin]));
        assert!(matches!(
            bad.expand_sweep().unwrap_err(),
            ConfigError::Spec { .. }
        ));
        let bad = serving_spec().with_sweep(SweepSpec::default().with_replicas(vec![2]));
        assert!(bad.expand_sweep().is_err());
        // A rate axis needs an arrival stream somewhere.
        let bad = ScenarioSpec::new("fixed", PlatformSpec::wsc(4))
            .with_sweep(SweepSpec::default().with_rates(vec![1.0e3]));
        assert!(matches!(
            bad.expand_sweep().unwrap_err(),
            ConfigError::Spec { .. }
        ));
        // A backends axis is shadowed by fleet backend_overrides.
        let bad = serving_spec()
            .with_fleet(
                FleetSpec::new(2, RouterPolicy::RoundRobin, 1.0e3)
                    .with_backend_overrides(vec![CongestionBackend::Analytic]),
            )
            .with_sweep(SweepSpec::default().with_backends(vec![CongestionBackend::FlowSim]));
        assert!(matches!(
            bad.expand_sweep().unwrap_err(),
            ConfigError::Spec { .. }
        ));

        // And a populated sweep cannot be built directly: a Scenario is
        // one point.
        let swept = serving_spec().with_sweep(SweepSpec::default().with_rates(vec![1.0e3]));
        assert!(matches!(
            swept.build().unwrap_err(),
            ConfigError::Spec { .. }
        ));
    }

    #[test]
    fn spec_runs_match_hand_construction_exactly() {
        // The same scenario, spec-driven and hand-wired: identical
        // summaries (the equivalence the golden suite pins platform-wide).
        let spec = serving_spec();
        let outcome = spec.build().unwrap().run().unwrap();
        let (spec_run, spec_serving) = outcome.as_engine().unwrap();

        let (topo, table) = PlatformSpec::wsc(4).materialize().unwrap();
        let layout = MappingSpec::er(4).layout(&topo).unwrap();
        let config = spec.engine.engine_config(ModelConfig::tiny()).unwrap();
        let mut engine = InferenceEngine::new(&topo, &table, layout.as_parallel(), config);
        let run = engine.run(30);
        assert_eq!(*spec_run, run);
        assert_eq!(*spec_serving, engine.serving_summary());
    }
}
