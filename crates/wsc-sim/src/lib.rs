//! Flow-level network simulation for wafer-scale chips and GPU clusters.
//!
//! This crate is the substitute for the analytical network backend of
//! ASTRA-sim used by the paper (§VI-A2). It offers two tiers of fidelity:
//!
//! * [`NetworkSim`] — a discrete-event, flow-level simulator. Concurrent
//!   flows share link bandwidth max-min fairly (water-filling), rates are
//!   re-allocated whenever a flow starts or completes, and every flow pays
//!   the summed per-hop link latency of its route before transmission begins
//!   (the paper's Eq. 1: `latency = (volume/bandwidth + link_latency) × hops`
//!   generalises to heterogeneous routes as
//!   `Σ link_latency + volume / bottleneck_bandwidth`). Rate re-allocation
//!   runs on the incremental component-scoped allocator
//!   ([`fairshare::IncrementalMaxMin`]); the full-recompute water-filling
//!   ([`fairshare::max_min_rates`]) remains as the reference oracle.
//! * [`AnalyticModel`] — a closed-form congestion estimator: per-link volume
//!   accumulation, bottleneck-link serialization, plus the maximum route
//!   latency. Orders of magnitude faster; used by the end-to-end engine and
//!   validated against [`NetworkSim`] in tests.
//!
//! Collective algorithms (see the `wsc-collectives` crate) compile to
//! [`FlowSchedule`]s: sequences of phases, each phase a set of concurrent
//! flows, with a barrier between phases (step-synchronous collectives).
//!
//! Consumers that should work at any fidelity price schedules through the
//! pluggable [`CongestionModel`] trait ([`backend`] module). Three
//! implementations form the fidelity ladder, selected by the
//! [`CongestionBackend`] knob: the [`AnalyticModel`], the DES-wrapping
//! [`FlowSimBackend`], and the memoizing [`CachedBackend`] decorator that
//! replays full DES estimates for repeated schedule shapes (time-only
//! pricing, whose sampled shapes do not repeat, is not memoised).
//!
//! # Example
//!
//! ```
//! use wsc_topology::{Mesh, PlatformParams};
//! use wsc_sim::{FlowSpec, NetworkSim};
//!
//! let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
//! let a = topo.device_at_xy(0, 0).unwrap();
//! let b = topo.device_at_xy(1, 0).unwrap();
//! let mut sim = NetworkSim::new(&topo);
//! // Two flows over the same link halve each other's bandwidth.
//! let result = sim.run_concurrent(&[
//!     FlowSpec::new(topo.route(a, b), 4.0e9),
//!     FlowSpec::new(topo.route(a, b), 4.0e9),
//! ]);
//! let expect = 2.0 * 4.0e9 / 4.0e12 + 50e-9;
//! assert!((result.total_time - expect).abs() / expect < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod backend;
pub mod fairshare;
pub mod flow;
pub mod network;
pub mod schedule;
pub mod stats;

pub use analytic::{AnalyticEstimate, AnalyticModel};
pub use backend::{
    CacheStats, CachedBackend, CongestionBackend, CongestionModel, FlowSimBackend, ScheduleShape,
    DEFAULT_CACHE_ENTRIES,
};
pub use fairshare::{max_min_rates, IncrementalMaxMin};
pub use flow::{FlowId, FlowSpec, RoutedTransfer};
pub use network::{NetworkSim, RunResult};
pub use schedule::{FlowSchedule, Phase, ScheduleResult};
pub use stats::LinkStats;
