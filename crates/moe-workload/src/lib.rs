//! Synthetic MoE inference workloads.
//!
//! The paper drives its balancer experiments with expert-selection traces
//! profiled from four benchmark suites (Chat / Coding / Math / Privacy,
//! §VI-C) mixed according to Azure production arrival traces. Those traces
//! are not redistributable, so this crate generates **synthetic equivalents
//! with the same statistical structure** the paper relies on:
//!
//! * **Expert popularity bias** — some experts are intrinsically popular
//!   (Zipf-distributed base affinity, per layer).
//! * **Scenario affinity** — each scenario persistently boosts a fixed,
//!   seeded subset of domain experts per layer, so fixed-scenario load
//!   ratios stabilise after warm-up (paper Fig. 12).
//! * **Slow mixture drift** — production serving sees cyclically evolving
//!   scenario mixtures; [`WorkloadMix::Cycling`] rotates scenario weights
//!   smoothly, inducing the slow-varying load ratios that trigger dynamic
//!   rebalancing (paper §V-B).
//!
//! All generation is seeded and deterministic.
//!
//! # Example
//!
//! ```
//! use moe_model::ModelConfig;
//! use moe_workload::{Scenario, TraceGenerator, WorkloadMix};
//!
//! let config = ModelConfig::qwen3_235b();
//! let mut gen = TraceGenerator::new(
//!     &config,
//!     WorkloadMix::Fixed(Scenario::Math),
//!     4,    // DP groups
//!     256,  // tokens per group
//!     42,   // seed
//! );
//! let iter = gen.next_iteration();
//! assert_eq!(iter.layers.len(), config.num_sparse_layers as usize);
//! let totals = iter.layers[0].expert_totals();
//! assert_eq!(totals.iter().sum::<u64>(), 4 * 256 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod gating;
pub mod profile;
pub mod requests;
pub mod router;
pub mod scenario;
pub mod scheduler;
pub mod serving;
pub mod trace;

pub use affinity::AffinityModel;
pub use gating::sample_gating_counts;
pub use profile::{
    ArrivalSpec, ClassSpec, Phase, RequestClass, TraceRequest, WorkloadError, WorkloadProfile,
    DEFAULT_DIURNAL_AMPLITUDE, DEFAULT_DIURNAL_PERIOD_SECS,
};
pub use requests::{ArrivalProcess, LengthProfile, Request, RequestGenerator, RequestId};
pub use router::{max_mean_imbalance, Decision, ReplicaSnapshot, Router, RouterPolicy};
pub use scenario::Scenario;
pub use scheduler::{BatchEntry, BatchScheduler, BatchSpec, SchedulingMode, MAX_ARRIVALS_PER_PULL};
pub use serving::{
    ClassPolicy, CopyStatus, InterruptedRequest, RequestRecord, ServingQueue, TokenAccounting,
};
pub use trace::{IterationTrace, LayerGating, LayerSampler, TraceGenerator, WorkloadMix};
