//! Typed configuration validation: the single [`ConfigError`] enum.
//!
//! Every constructor in the stack that used to die in a bare `assert!` deep
//! inside [`InferenceEngine::new`](crate::engine::InferenceEngine::new) or
//! [`Fleet::new`](crate::fleet::Fleet::new) now reports through this enum:
//! [`EngineConfig::validate`](crate::engine::EngineConfig::validate) checks
//! the engine knobs, [`InferenceEngine::try_new`] /
//! [`Fleet::try_new`](crate::fleet::Fleet::try_new) surface the same checks
//! as `Result`s, and the declarative scenario layer (`moentwine-spec`)
//! reuses the enum for spec-level failures (unknown presets, malformed
//! JSON, schema mismatches), so a scenario file fails with one typed error
//! wherever in the tree the inconsistency lives.
//!
//! The old panicking constructors survive as thin wrappers that format the
//! [`ConfigError`], so existing call sites and `should_panic` contracts are
//! unchanged.
//!
//! [`InferenceEngine::try_new`]: crate::engine::InferenceEngine::try_new

use crate::mapping::MappingError;

/// Why a configuration (an [`EngineConfig`](crate::engine::EngineConfig), a
/// [`FleetConfig`](crate::fleet::FleetConfig), or a `moentwine-spec`
/// scenario tree) cannot be materialized.
#[derive(Clone, PartialEq, Debug)]
pub enum ConfigError {
    /// `comm_layer_stride` must be ≥ 1 (1 = estimate every layer).
    CommLayerStrideZero,
    /// `pipeline_microbatches` must be ≥ 1 (the overlap model divides by it).
    PipelineMicrobatchesZero,
    /// `kv_hbm_fraction` must be in `(0, 1]`: the serving admission budget
    /// is a positive share of aggregate HBM.
    KvHbmFractionOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// `load_ema` must be in `(0, 1]` (EMA factor of historical loads).
    LoadEmaOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// `cache_entries` must be ≥ 1: the memoizing backend needs at least
    /// one schedule slot.
    CacheEntriesZero,
    /// `cold_bandwidth` must be positive: non-invasive migration drains
    /// at it.
    ColdBandwidthNotPositive {
        /// The rejected value.
        value: f64,
    },
    /// `trigger_alpha_per_layer` must be ≥ 0, and its product with the
    /// model's sparse-layer count (the Eq. 2 threshold) finite.
    TriggerAlphaOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// A batch budget is zero: a fixed batch's `tokens_per_group`, or a
    /// serving batch's `max_batch_tokens` or `max_active`.
    BatchBudgetZero {
        /// The zero field.
        field: &'static str,
    },
    /// A scheduled batch's `iteration_period` must be positive.
    IterationPeriodNotPositive {
        /// The rejected value.
        value: f64,
    },
    /// A fixed batch's `avg_context` must be finite and ≥ 0: attention
    /// work grows with it, so a negative context would subtract work.
    AvgContextOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// The model's gating shape cannot be sampled: it needs at least one
    /// routed expert and at most `num_experts` experts per token.
    TopKOutOfRange {
        /// The model's `experts_per_token` (top-k).
        experts_per_token: u32,
        /// The model's `num_experts`.
        num_experts: u32,
    },
    /// The model has no sparse (MoE) layer, so there is no gating to
    /// sample.
    SparseLayersZero,
    /// The model's `num_sparse_layers × num_experts` exceeds
    /// [`MAX_EXPERT_SLOTS`](crate::engine::MAX_EXPERT_SLOTS).
    TooManyExpertSlots {
        /// The model's `num_sparse_layers × num_experts`.
        slots: u64,
        /// The ceiling it exceeds.
        max: u64,
    },
    /// A platform has more devices than the scenario layer's
    /// `MAX_PLATFORM_DEVICES` (its all-pairs route table grows with the
    /// square of the count).
    TooManyDevices {
        /// The platform's device count.
        devices: u64,
        /// The ceiling it exceeds.
        max: u64,
    },
    /// A DP group's largest batch, in tokens, times the model's top-k
    /// exceeds `u32::MAX`, the most gating selections the sampler draws
    /// for one group.
    BatchTokensOutOfRange {
        /// The batch bound: `tokens_per_group` for a fixed batch,
        /// `max_batch_tokens + max_active` for a serving one (one decode
        /// token per active sequence on top of the prefill budget).
        tokens: u64,
        /// The model's `experts_per_token` (top-k).
        experts_per_token: u32,
    },
    /// A scenario's iteration (or fleet round) count exceeds the scenario
    /// layer's `MAX_ITERATIONS`.
    TooManyIterations {
        /// The scenario's iteration count.
        iterations: u64,
        /// The ceiling it exceeds.
        max: u64,
    },
    /// A fleet needs at least one replica.
    ReplicasZero,
    /// A fleet's initial replicas plus every scale-up in its timeline
    /// exceed [`MAX_REPLICAS`](crate::fleet::MAX_REPLICAS).
    TooManyReplicas {
        /// The fleet's peak size: initial replicas plus all scale-ups
        /// (saturating at `usize::MAX`).
        replicas: usize,
        /// The ceiling it exceeds.
        max: usize,
    },
    /// Fleet replicas need a serving batch mode
    /// ([`BatchMode::Scheduled`](crate::engine::BatchMode::Scheduled) or
    /// [`BatchMode::External`](crate::engine::BatchMode::External)), not
    /// [`BatchMode::Fixed`](crate::engine::BatchMode::Fixed).
    FleetNeedsServingBatch,
    /// Fleet event times must be finite, non-negative, and non-decreasing;
    /// `index` is the first event out of order.
    FleetEventsUnsorted {
        /// Position of the offending event in the timeline.
        index: usize,
    },
    /// A fleet event names a replica outside the fleet as sized at that
    /// point in the timeline (scale-ups extend the valid range).
    FleetEventReplicaOutOfRange {
        /// Position of the offending event in the timeline.
        index: usize,
        /// The out-of-range replica index.
        replica: usize,
        /// Fleet size at that point in the timeline.
        replicas: usize,
    },
    /// A fleet event is a no-op or an invalid lifecycle transition
    /// (draining a non-active replica, recovering a replica that never
    /// failed, a zero-count scale-up, ...).
    FleetEventNoOp {
        /// Position of the offending event in the timeline.
        index: usize,
    },
    /// A fleet event would leave no active replica to route arrivals to.
    FleetEventLeavesNoReplicas {
        /// Position of the offending event in the timeline.
        index: usize,
    },
    /// A [`RouterPolicy::Speculative`](moe_workload::RouterPolicy::Speculative)
    /// fleet must dispatch at least one copy per request (`k` ≥ 1).
    SpeculativeFanOutZero,
    /// A fleet role list must either be empty (all replicas colocated) or
    /// name a role for every initial replica.
    FleetRolesLengthMismatch {
        /// Number of roles supplied.
        roles: usize,
        /// Number of initial replicas.
        replicas: usize,
    },
    /// A disaggregated fleet needs at least one prefill-capable replica
    /// (`Colocated` or `Prefill`) to accept arrivals.
    FleetNoPrefillCapacity,
    /// A disaggregated fleet needs at least one decode-capable replica
    /// (`Colocated` or `Decode`) to accept KV hand-offs.
    FleetNoDecodeCapacity,
    /// A decode platform was supplied but no replica carries the `Decode`
    /// role, so nothing would ever run on it.
    FleetDecodePlatformUnused,
    /// A fleet event would leave no prefill-capable replica to route
    /// arrivals to.
    FleetEventLeavesNoPrefillCapacity {
        /// Position of the offending event in the timeline.
        index: usize,
    },
    /// A fleet event would leave no decode-capable replica to deliver KV
    /// hand-offs to.
    FleetEventLeavesNoDecodeCapacity {
        /// Position of the offending event in the timeline.
        index: usize,
    },
    /// A mapping could not be constructed for the requested platform
    /// (TP degree does not tile, no mesh dimensions, ...).
    Mapping(MappingError),
    /// The workload profile (arrival shape, trace, or tenant classes) is
    /// invalid.
    Workload(moe_workload::WorkloadError),
    /// A spec-level failure: `context` names the field or section, and
    /// `message` says what is wrong with it.
    Spec {
        /// The offending field or section (e.g. `"platform.kind"`).
        context: String,
        /// What went wrong.
        message: String,
    },
    /// The document is not valid JSON.
    Json(moentwine_json::ParseError),
    /// The document carries the wrong (or no) schema tag.
    SchemaMismatch {
        /// The tag found in the document, or an empty string when missing.
        found: String,
        /// The tag that was required.
        expected: String,
    },
}

impl ConfigError {
    /// Shorthand for a [`ConfigError::Spec`] failure.
    pub fn spec(context: impl Into<String>, message: impl Into<String>) -> Self {
        ConfigError::Spec {
            context: context.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CommLayerStrideZero => {
                write!(f, "comm_layer_stride must be ≥ 1 (stride must be ≥ 1)")
            }
            ConfigError::PipelineMicrobatchesZero => {
                write!(
                    f,
                    "pipeline_microbatches must be ≥ 1 (need ≥ 1 micro-batch)"
                )
            }
            ConfigError::KvHbmFractionOutOfRange { value } => {
                write!(f, "kv_hbm_fraction must be in (0, 1], got {value}")
            }
            ConfigError::LoadEmaOutOfRange { value } => {
                write!(f, "EMA factor must be in (0, 1], got {value}")
            }
            ConfigError::CacheEntriesZero => {
                write!(f, "cache_entries must be ≥ 1")
            }
            ConfigError::ColdBandwidthNotPositive { value } => {
                write!(f, "cold_bandwidth must be positive, got {value}")
            }
            ConfigError::TriggerAlphaOutOfRange { value } => write!(
                f,
                "trigger_alpha_per_layer must be ≥ 0 and finite times the sparse layer \
                 count, got {value}"
            ),
            ConfigError::BatchBudgetZero { field } => write!(f, "batch: {field} must be ≥ 1"),
            ConfigError::IterationPeriodNotPositive { value } => {
                write!(f, "batch: iteration_period must be positive, got {value}")
            }
            ConfigError::AvgContextOutOfRange { value } => {
                write!(f, "batch: avg_context must be finite and ≥ 0, got {value}")
            }
            ConfigError::TopKOutOfRange {
                experts_per_token,
                num_experts,
            } => {
                write!(
                    f,
                    "model: experts_per_token {experts_per_token} must be ≤ num_experts \
                     {num_experts}, and num_experts ≥ 1"
                )
            }
            ConfigError::SparseLayersZero => {
                write!(f, "model: num_sparse_layers must be ≥ 1")
            }
            ConfigError::TooManyExpertSlots { slots, max } => write!(
                f,
                "model: num_sparse_layers × num_experts = {slots} exceeds the ceiling of {max}"
            ),
            ConfigError::TooManyDevices { devices, max } => {
                write!(f, "platform: {devices} devices exceed the ceiling of {max}")
            }
            ConfigError::BatchTokensOutOfRange {
                tokens,
                experts_per_token,
            } => write!(
                f,
                "batch: {tokens} tokens per group × top-k {experts_per_token} exceed {} \
                 gating selections",
                u32::MAX
            ),
            ConfigError::TooManyIterations { iterations, max } => write!(
                f,
                "scenario: {iterations} iterations exceed the ceiling of {max}"
            ),
            ConfigError::ReplicasZero => write!(f, "need at least one replica"),
            ConfigError::TooManyReplicas { replicas, max } => write!(
                f,
                "fleet: {replicas} replicas (initial plus scale-ups) exceed the ceiling of {max}"
            ),
            ConfigError::FleetNeedsServingBatch => {
                write!(
                    f,
                    "fleet replicas need a serving batch mode, not BatchMode::Fixed"
                )
            }
            ConfigError::FleetEventsUnsorted { index } => {
                write!(
                    f,
                    "fleet event {index}: times must be finite, non-negative, and sorted"
                )
            }
            ConfigError::FleetEventReplicaOutOfRange {
                index,
                replica,
                replicas,
            } => {
                write!(
                    f,
                    "fleet event {index}: replica {replica} out of range (fleet has {replicas})"
                )
            }
            ConfigError::FleetEventNoOp { index } => {
                write!(
                    f,
                    "fleet event {index}: no-op or invalid lifecycle transition"
                )
            }
            ConfigError::FleetEventLeavesNoReplicas { index } => {
                write!(
                    f,
                    "fleet event {index}: leaves no active replica to route to"
                )
            }
            ConfigError::SpeculativeFanOutZero => {
                write!(f, "fleet policy: speculative dispatch needs k ≥ 1 copies")
            }
            ConfigError::FleetRolesLengthMismatch { roles, replicas } => {
                write!(
                    f,
                    "fleet roles: {roles} roles for {replicas} replicas (must be empty or match)"
                )
            }
            ConfigError::FleetNoPrefillCapacity => {
                write!(f, "fleet roles: no prefill-capable replica for arrivals")
            }
            ConfigError::FleetNoDecodeCapacity => {
                write!(f, "fleet roles: no decode-capable replica for KV hand-offs")
            }
            ConfigError::FleetDecodePlatformUnused => {
                write!(
                    f,
                    "fleet decode_platform set but no replica has the decode role"
                )
            }
            ConfigError::FleetEventLeavesNoPrefillCapacity { index } => {
                write!(
                    f,
                    "fleet event {index}: leaves no prefill-capable replica for arrivals"
                )
            }
            ConfigError::FleetEventLeavesNoDecodeCapacity { index } => {
                write!(
                    f,
                    "fleet event {index}: leaves no decode-capable replica for KV hand-offs"
                )
            }
            ConfigError::Mapping(e) => write!(f, "mapping: {e}"),
            ConfigError::Workload(e) => write!(f, "workload: {e}"),
            ConfigError::Spec { context, message } => write!(f, "{context}: {message}"),
            ConfigError::Json(e) => write!(f, "{e}"),
            ConfigError::SchemaMismatch { found, expected } => {
                if found.is_empty() {
                    write!(f, "missing schema tag (expected {expected:?})")
                } else {
                    write!(f, "schema {found:?}, expected {expected:?}")
                }
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<MappingError> for ConfigError {
    fn from(e: MappingError) -> Self {
        ConfigError::Mapping(e)
    }
}

impl From<moe_workload::WorkloadError> for ConfigError {
    fn from(e: moe_workload::WorkloadError) -> Self {
        ConfigError::Workload(e)
    }
}

impl From<moentwine_json::ParseError> for ConfigError {
    fn from(e: moentwine_json::ParseError) -> Self {
        ConfigError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_stable() {
        // The panicking wrappers surface these texts; the fleet one is
        // pinned by a `should_panic(expected = "serving batch mode")` test.
        assert!(ConfigError::FleetNeedsServingBatch
            .to_string()
            .contains("serving batch mode"));
        assert!(ConfigError::CommLayerStrideZero
            .to_string()
            .contains("stride must be ≥ 1"));
        assert!(ConfigError::LoadEmaOutOfRange { value: 2.0 }
            .to_string()
            .contains("(0, 1]"));
        assert_eq!(
            ConfigError::TopKOutOfRange {
                experts_per_token: 8,
                num_experts: 4,
            }
            .to_string(),
            "model: experts_per_token 8 must be ≤ num_experts 4, and num_experts ≥ 1"
        );
        assert_eq!(
            ConfigError::SparseLayersZero.to_string(),
            "model: num_sparse_layers must be ≥ 1"
        );
        assert_eq!(
            ConfigError::TooManyExpertSlots {
                slots: 4_000_000_000,
                max: 1 << 20,
            }
            .to_string(),
            "model: num_sparse_layers × num_experts = 4000000000 exceeds the ceiling of 1048576"
        );
        assert_eq!(
            ConfigError::TooManyDevices {
                devices: 65_535,
                max: 2_048,
            }
            .to_string(),
            "platform: 65535 devices exceed the ceiling of 2048"
        );
        assert_eq!(
            ConfigError::BatchTokensOutOfRange {
                tokens: 1 << 30,
                experts_per_token: 8,
            }
            .to_string(),
            "batch: 1073741824 tokens per group × top-k 8 exceed 4294967295 gating selections"
        );
        assert_eq!(
            ConfigError::TooManyIterations {
                iterations: 1_000_000_000_000_000,
                max: 10_000_000,
            }
            .to_string(),
            "scenario: 1000000000000000 iterations exceed the ceiling of 10000000"
        );
        assert_eq!(
            ConfigError::TooManyReplicas {
                replicas: 5000,
                max: 4096,
            }
            .to_string(),
            "fleet: 5000 replicas (initial plus scale-ups) exceed the ceiling of 4096"
        );
        assert!(ConfigError::FleetEventsUnsorted { index: 2 }
            .to_string()
            .contains("fleet event 2"));
        assert_eq!(
            ConfigError::FleetEventReplicaOutOfRange {
                index: 0,
                replica: 9,
                replicas: 4,
            }
            .to_string(),
            "fleet event 0: replica 9 out of range (fleet has 4)"
        );
        assert!(ConfigError::FleetEventNoOp { index: 1 }
            .to_string()
            .contains("no-op or invalid"));
        assert!(ConfigError::FleetEventLeavesNoReplicas { index: 3 }
            .to_string()
            .contains("no active replica"));
        assert_eq!(
            ConfigError::SpeculativeFanOutZero.to_string(),
            "fleet policy: speculative dispatch needs k ≥ 1 copies"
        );
        assert_eq!(
            ConfigError::FleetRolesLengthMismatch {
                roles: 3,
                replicas: 4,
            }
            .to_string(),
            "fleet roles: 3 roles for 4 replicas (must be empty or match)"
        );
        assert!(ConfigError::FleetNoPrefillCapacity
            .to_string()
            .contains("no prefill-capable replica"));
        assert!(ConfigError::FleetNoDecodeCapacity
            .to_string()
            .contains("no decode-capable replica"));
        assert!(ConfigError::FleetDecodePlatformUnused
            .to_string()
            .contains("decode_platform"));
        assert!(ConfigError::FleetEventLeavesNoPrefillCapacity { index: 2 }
            .to_string()
            .contains("fleet event 2"));
        assert!(ConfigError::FleetEventLeavesNoDecodeCapacity { index: 5 }
            .to_string()
            .contains("no decode-capable replica"));
        assert_eq!(
            ConfigError::Workload(moe_workload::WorkloadError::NonPositiveRate { value: 0.0 })
                .to_string(),
            "workload: rate must be positive, got 0"
        );
    }

    #[test]
    fn json_and_mapping_errors_convert() {
        let parse = moentwine_json::Value::parse("{").unwrap_err();
        assert!(matches!(ConfigError::from(parse), ConfigError::Json(_)));
        let spec = ConfigError::spec("platform.kind", "unknown kind \"torus\"");
        assert_eq!(spec.to_string(), "platform.kind: unknown kind \"torus\"");
    }
}
