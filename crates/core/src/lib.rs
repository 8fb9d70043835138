//! MoEntwine core: the paper's contributions.
//!
//! This crate implements the two techniques of *MoEntwine: Unleashing the
//! Potential of Wafer-Scale Chips for Large-Scale Expert Parallel Inference*
//! (HPCA 2026) on top of the workspace substrates:
//!
//! * [`mapping`] — the **Full Token Domain** analysis framework and the
//!   three parallelism mappings: baseline corner blocks, **ER-Mapping**
//!   (entwined rings, Fig. 10a), and **HER-Mapping** (hierarchical, for
//!   multi-wafer systems).
//! * [`comm`] — compiles a mapping plus a gating outcome into attention
//!   all-reduce schedules and MoE dispatch/combine transfer sets.
//! * [`config`] — typed configuration validation: the [`ConfigError`] enum
//!   behind `EngineConfig::validate` / `InferenceEngine::try_new` /
//!   `Fleet::try_new` and the `moentwine-spec` scenario layer.
//! * [`placement`] — per-layer expert placement with shadow slots.
//! * [`balancer`] — the load-balancing strategies of §V: the invasive
//!   greedy baseline (EPLB-like), the **topology-aware** Algorithm 1, and
//!   the cumulative-imbalance trigger of Eq. 2.
//! * [`migration`] — expert migration execution: invasive (on the critical
//!   path) or **non-invasive** (decomposed into Local/Global steps hidden on
//!   phase-complementary cold links, Fig. 11d).
//! * [`heatmap`] — the hot/cold link analysis of Fig. 11.
//! * [`engine`] — the end-to-end per-iteration inference simulator.
//! * [`fleet`] — scale-out serving: N replica engines in lock-step behind
//!   a front-end router with pluggable dispatch policies (DESIGN.md §8).
//! * [`esp`] — Expert Sharding Parallelism (Fig. 14a).
//!
//! # Example
//!
//! ```
//! use moentwine_core::mapping::{BaselineMapping, ErMapping, TpShape};
//! use wsc_topology::{Mesh, PlatformParams};
//!
//! let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
//! let dims = topo.mesh_dims().unwrap();
//! let baseline = BaselineMapping::new(dims, TpShape::new(2, 2)).unwrap().plan();
//! let er = ErMapping::new(dims, TpShape::new(2, 2)).unwrap().plan();
//! // ER halves the average token-fetch distance (2.7 → 1.3 hops).
//! assert!(er.average_ftd_hops(&topo) < baseline.average_ftd_hops(&topo) / 1.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod comm;
pub mod config;
pub mod engine;
pub mod esp;
pub mod fleet;
pub mod heatmap;
pub mod mapping;
pub mod migration;
#[cfg(test)]
mod over_seeds;
pub mod placement;

pub use config::ConfigError;
pub use fleet::{
    Fleet, FleetConfig, FleetHandoff, FleetSummary, PlatformRefs, ReplicaPool, ReplicaRole,
    SerialReplicaPool,
};
pub use mapping::{
    BaselineMapping, ErMapping, HierarchicalErMapping, MappingError, MappingKind, MappingPlan,
    TpShape,
};
pub use placement::{ExpertId, ExpertPlacement};
