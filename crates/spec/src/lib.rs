//! Declarative scenario API: one typed spec layer from topology to fleet.
//!
//! Every experiment in the workspace used to be hard-coded Rust: a bench
//! bin hand-wiring `ModelConfig` × platform × `EngineConfig` ×
//! `Fleet`/`Router` combos. This crate makes that evaluation space —
//! mapping × balancer × fidelity tier × platform × workload (paper §VI),
//! plus the fleet layer on top — expressible as *data*:
//!
//! * [`ScenarioSpec`] is the typed root of the tree: a [`PlatformSpec`]
//!   (which interconnect), a [`MappingSpec`] (how TP groups tile it), a
//!   [`ModelSpec`] (which MoE model), an [`EngineSpec`] (every engine
//!   knob, including the [`BatchSpec`]/[`ServingSpec`] batch production
//!   mode), an optional [`FleetSpec`] (replicas behind a router), and an
//!   optional [`SweepSpec`] (axes to expand into a grid of scenarios).
//! * Everything validates through the single
//!   [`ConfigError`] enum — no `assert!`
//!   panics deep inside constructors.
//! * The tree round-trips losslessly through JSON (schema
//!   [`SCHEMA`], `moentwine/scenario/v1`): [`ScenarioSpec::to_json`] /
//!   [`ScenarioSpec::from_json`], so any scenario can live in a
//!   `examples/scenarios/*.json` file and run via the `scenario` bench bin.
//! * [`ScenarioSpec::build`] materializes topology + route table + layout
//!   once; [`Scenario::run`] then drives the existing engine (or fleet)
//!   and returns the existing summaries.
//!
//! # Example
//!
//! ```
//! use moentwine_spec::{
//!     BatchSpec, EngineSpec, MappingSpec, ModelSpec, PlatformSpec, ScenarioSpec, ServingSpec,
//! };
//!
//! let spec = ScenarioSpec::new("quickstart", PlatformSpec::wsc(4))
//!     .with_mapping(MappingSpec::er(4))
//!     .with_model(ModelSpec::preset("tiny"))
//!     .with_engine(
//!         EngineSpec::default()
//!             .with_seed(7)
//!             .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 4.0e3))),
//!     )
//!     .with_iterations(50);
//! // Lossless JSON round-trip (schema moentwine/scenario/v1)...
//! let json = spec.to_json();
//! assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
//! // ...and a one-call run producing the engine's own summaries.
//! let outcome = spec.build().unwrap().run().unwrap();
//! assert!(outcome.as_engine().unwrap().0.mean_iteration_time > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod engine;
mod fleet;
mod model;
mod platform;
mod scenario;
mod sweep;
mod workload;

pub use engine::{BatchSpec, EngineSpec, ServingSpec};
pub use fleet::FleetSpec;
pub use model::ModelSpec;
pub use moentwine_core::ConfigError;
pub use platform::{MappingSpec, PlatformSpec, MAX_PLATFORM_DEVICES};
pub use scenario::{Layout, Scenario, ScenarioOutcome, ScenarioSpec, MAX_ITERATIONS};
pub use sweep::SweepSpec;
pub use workload::{
    load_trace, parse_trace, trace_to_json, ArrivalSourceSpec, WorkloadSpec, TRACE_SCHEMA,
};

/// Schema identifier embedded in (and required of) every serialized
/// [`ScenarioSpec`].
pub const SCHEMA: &str = "moentwine/scenario/v1";
