//! # MoEntwine
//!
//! A reproduction of *"MoEntwine: Unleashing the Potential of Wafer-Scale
//! Chips for Large-Scale Expert Parallel Inference"* (HPCA 2026): a complete
//! simulation stack for studying mixture-of-experts (MoE) inference on
//! wafer-scale chips (WSCs), plus the paper's two contributions —
//! **ER-Mapping** (entwined-ring co-mapping of attention and MoE layers) and
//! the **NI-Balancer** (non-invasive expert-migration load balancer).
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`topology`] — meshes, multi-wafer grids, DGX/NVL72 clusters, routing.
//! * [`sim`] — flow-level discrete-event network simulator and the fast
//!   analytical congestion estimator.
//! * [`collectives`] — all-reduce / reduce-scatter / all-gather / all-to-all
//!   schedules, including entwined multi-hop rings and hierarchical variants.
//! * [`model`] — MoE model configurations (Table I of the paper) and the
//!   roofline compute/memory cost model.
//! * [`workload`] — scenario-driven expert-selection traces, request arrival
//!   processes, and batch schedulers.
//! * [`core`] — Full Token Domain analysis, ER/HER-Mapping, the NI-Balancer,
//!   and the end-to-end inference engine.
//!
//! # Quickstart
//!
//! ```
//! use moentwine::prelude::*;
//!
//! // A 4x4 wafer (Mesh::new takes the square side length) with TP=4
//! // attention groups shaped 2x2 and EP=16 MoE.
//! let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
//! let mapping = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2)).unwrap();
//! let plan = mapping.plan();
//! assert_eq!(plan.ftds().len(), 4);
//! // ER-Mapping's compact FTDs average 1.33 token-fetch hops (paper Fig. 8c).
//! let hops = plan.average_ftd_hops(&topo);
//! assert!((hops - 4.0 / 3.0).abs() < 1e-9);
//!
//! // Communication pricing is pluggable (DESIGN.md §5): the same all-reduce
//! // schedule priced at all three fidelity tiers — closed form, memoizing
//! // cached DES, and full flow-level DES.
//! let sched = plan.all_reduce_schedule(&topo, 2.0e6);
//! let fast = CongestionBackend::Analytic.build(&topo).price_schedule(&sched);
//! let full = CongestionBackend::FlowSim.build(&topo).price_schedule(&sched);
//! assert!((fast.total_time - full.total_time).abs() / full.total_time < 0.01);
//! // The cached tier replays DES estimates for repeated schedule shapes:
//! // identical numbers, priced once ("flow-sim-cached" also parses).
//! let cached = "flow-sim-cached".parse::<CongestionBackend>().unwrap().build(&topo);
//! assert_eq!(cached.price_schedule(&sched), full);
//! assert_eq!(cached.price_schedule(&sched), full); // cache hit: no re-simulation
//! ```

pub use moe_model as model;
pub use moe_workload as workload;
pub use moentwine_core as core;
pub use moentwine_spec as spec;
pub use wsc_collectives as collectives;
pub use wsc_sim as sim;
pub use wsc_topology as topology;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use moe_model::{DeviceSpec, ModelConfig, Precision};
    pub use moe_workload::{
        ArrivalSpec, BatchScheduler, ClassSpec, Phase, ReplicaSnapshot, Request, RequestClass,
        RequestId, RequestRecord, Router, RouterPolicy, Scenario, SchedulingMode, ServingQueue,
        TraceGenerator, TraceRequest, WorkloadMix, WorkloadProfile,
    };
    pub use moentwine_core::balancer::{
        BalancerKind, GreedyBalancer, TopologyAwareBalancer, Trigger,
    };
    pub use moentwine_core::comm::{A2aModel, ClusterLayout, ParallelLayout};
    pub use moentwine_core::engine::{
        BatchMode, EngineConfig, InferenceEngine, P2Quantile, RunSummary, ServingSummary,
        StreamingSummary, SummaryMode,
    };
    pub use moentwine_core::fleet::{
        validate_fleet_events, validate_fleet_events_for_roles, Fleet, FleetAvailability,
        FleetConfig, FleetEvent, FleetEventKind, FleetHandoff, FleetSummary, PlatformRefs,
        ReplicaPool, ReplicaRole, ReplicaState, SerialReplicaPool,
    };
    pub use moentwine_core::mapping::{
        BaselineMapping, ErMapping, HierarchicalErMapping, MappingKind, MappingPlan, TpShape,
    };
    pub use moentwine_core::ConfigError;
    // The declarative scenario layer (DESIGN.md §9). The materialized
    // runner `moentwine_spec::Scenario` is deliberately not re-exported
    // here: `Scenario` already names the workload enum in this prelude —
    // reach it as `moentwine::spec::Scenario`.
    pub use moentwine_spec::{
        BatchSpec, EngineSpec, FleetSpec, MappingSpec, ModelSpec, PlatformSpec, ScenarioOutcome,
        ScenarioSpec, ServingSpec, SweepSpec,
    };
    pub use wsc_sim::{
        AnalyticModel, CachedBackend, CongestionBackend, CongestionModel, FlowSchedule,
        FlowSimBackend, NetworkSim,
    };
    pub use wsc_topology::RouteTable;
    pub use wsc_topology::{
        DeviceId, DgxCluster, FlatSwitch, Mesh, MeshDims, MultiWafer, PlatformParams, Topology,
    };
}
