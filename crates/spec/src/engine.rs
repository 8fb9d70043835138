//! Engine knob specifications: batch production, serving parameters, and
//! every [`EngineConfig`] field expressible as data.

use crate::workload::WorkloadSpec;
use moe_model::{InferencePhase, ModelConfig};
use moe_workload::{SchedulingMode, WorkloadMix};
use moentwine_core::balancer::BalancerKind;
use moentwine_core::engine::{BatchMode, EngineConfig, SummaryMode};
use moentwine_core::ConfigError;
use wsc_sim::CongestionBackend;

/// Request-level serving parameters (the engine's
/// [`BatchMode::Scheduled`] knobs).
#[derive(Clone, PartialEq, Debug)]
pub struct ServingSpec {
    /// Serving discipline.
    pub mode: SchedulingMode,
    /// Token budget per group per iteration.
    pub max_batch_tokens: u32,
    /// Concurrent decode sequences per group.
    pub max_active: usize,
    /// Request arrival rate (requests/second, whole system). Ignored by
    /// fleet scenarios, where [`FleetSpec`](crate::FleetSpec) owns the
    /// global arrival stream.
    pub request_rate: f64,
    /// Wall-clock estimate of one iteration (drives arrival admission).
    pub iteration_period: f64,
    /// How serving summaries are maintained: exact record retention (the
    /// golden oracle, default) or streaming P² sketches in O(1) memory.
    pub summary: SummaryMode,
    /// Arrival source and tenant classes. `None` (the default) keeps the
    /// legacy hard-coded diurnal stream with a single anonymous tenant —
    /// and its exact RNG stream, so existing scenarios stay byte-identical.
    pub workload: Option<WorkloadSpec>,
}

impl ServingSpec {
    /// Hybrid continuous batching at `request_rate`, with the workspace's
    /// conventional 0.02 s iteration period and exact summaries.
    pub fn hybrid(max_batch_tokens: u32, max_active: usize, request_rate: f64) -> Self {
        ServingSpec {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens,
            max_active,
            request_rate,
            iteration_period: 0.02,
            summary: SummaryMode::Exact,
            workload: None,
        }
    }

    /// Sets the serving discipline (builder style).
    pub fn with_mode(mut self, mode: SchedulingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the arrival rate (builder style).
    pub fn with_request_rate(mut self, request_rate: f64) -> Self {
        self.request_rate = request_rate;
        self
    }

    /// Sets the summary maintenance mode (builder style).
    pub fn with_summary(mut self, summary: SummaryMode) -> Self {
        self.summary = summary;
        self
    }

    /// Sets the workload realism spec (builder style).
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }
}

/// How iteration batches are produced — the spec mirror of [`BatchMode`].
#[derive(Clone, PartialEq, Debug)]
pub enum BatchSpec {
    /// A fixed batch every iteration (the communication experiments).
    Fixed {
        /// Tokens per TP group per iteration.
        tokens_per_group: u32,
        /// Average attended context length.
        avg_context: f64,
        /// Roofline phase.
        phase: InferencePhase,
    },
    /// Request-pool driven serving ([`BatchMode::Scheduled`]; fleet
    /// scenarios convert it to [`BatchMode::External`] per replica).
    Serving(ServingSpec),
}

impl BatchSpec {
    /// Fixed decode batches of `tokens_per_group` tokens over a 4096-token
    /// context — the communication-experiment default.
    pub fn fixed_decode(tokens_per_group: u32) -> Self {
        BatchSpec::Fixed {
            tokens_per_group,
            avg_context: 4096.0,
            phase: InferencePhase::Decode,
        }
    }

    /// Converts to the engine's [`BatchMode`].
    pub fn to_batch_mode(&self) -> BatchMode {
        match self {
            BatchSpec::Fixed {
                tokens_per_group,
                avg_context,
                phase,
            } => BatchMode::Fixed {
                tokens_per_group: *tokens_per_group,
                avg_context: *avg_context,
                phase: *phase,
            },
            BatchSpec::Serving(s) => BatchMode::Scheduled {
                mode: s.mode,
                max_batch_tokens: s.max_batch_tokens,
                max_active: s.max_active,
                request_rate: s.request_rate,
                iteration_period: s.iteration_period,
            },
        }
    }
}

impl Default for BatchSpec {
    /// The [`EngineConfig::new`] default: fixed 256-token decode batches.
    fn default() -> Self {
        BatchSpec::fixed_decode(256)
    }
}

/// Every engine knob as data. Field defaults mirror [`EngineConfig::new`]
/// exactly, so a default `EngineSpec` materializes the default engine and
/// spec-driven runs are byte-identical to hand-constructed ones.
///
/// The device cost model is not part of the spec: every scenario prices on
/// the paper's B200-equivalent device (§VI-A1), like every hand-written
/// experiment in the workspace.
#[derive(Clone, PartialEq, Debug)]
pub struct EngineSpec {
    /// Master seed.
    pub seed: u64,
    /// Communication-pricing fidelity tier.
    pub backend: CongestionBackend,
    /// Balancing strategy.
    pub balancer: BalancerKind,
    /// Scenario mixture driving expert selection (and request lengths in
    /// serving modes).
    pub workload: WorkloadMix,
    /// Batch production mode.
    pub batch: BatchSpec,
    /// Eq. 2 `α`, specified per layer.
    pub trigger_alpha_per_layer: f64,
    /// Eq. 2 `β` in iterations.
    pub trigger_beta: u64,
    /// Shadow slots per device.
    pub slots_per_device: usize,
    /// Cap on replications per layer per balancing event.
    pub max_actions_per_layer: usize,
    /// Price the all-to-all on every `k`-th layer only; the layers between
    /// reuse its times and compute their own device loads.
    pub comm_layer_stride: usize,
    /// Micro-batches for communication/compute overlap.
    pub pipeline_microbatches: usize,
    /// Force uniform gating.
    pub uniform_gating: bool,
    /// Bandwidth available to non-invasive migration, bytes/s.
    pub cold_bandwidth: f64,
    /// EMA factor for historical expert loads in `(0, 1]`.
    pub load_ema: f64,
    /// Fraction of aggregate device HBM available to the KV cache.
    pub kv_hbm_fraction: f64,
    /// Entry bound of the memoizing schedule cache.
    pub cache_entries: usize,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            seed: 7,
            backend: CongestionBackend::Analytic,
            balancer: BalancerKind::None,
            workload: WorkloadMix::mixed(500.0),
            batch: BatchSpec::default(),
            trigger_alpha_per_layer: 0.25,
            trigger_beta: 10,
            slots_per_device: 1,
            max_actions_per_layer: 4,
            comm_layer_stride: 1,
            pipeline_microbatches: 4,
            uniform_gating: false,
            cold_bandwidth: 4.0e12,
            load_ema: 0.3,
            kv_hbm_fraction: 0.3,
            cache_entries: wsc_sim::DEFAULT_CACHE_ENTRIES,
        }
    }
}

impl EngineSpec {
    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pricing backend (builder style).
    pub fn with_backend(mut self, backend: CongestionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the balancer kind (builder style).
    pub fn with_balancer(mut self, balancer: BalancerKind) -> Self {
        self.balancer = balancer;
        self
    }

    /// Sets the workload mix (builder style).
    pub fn with_workload(mut self, workload: WorkloadMix) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the batch production mode (builder style).
    pub fn with_batch(mut self, batch: BatchSpec) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the all-to-all estimation stride (builder style).
    pub fn with_comm_layer_stride(mut self, stride: usize) -> Self {
        self.comm_layer_stride = stride;
        self
    }

    /// Sets the shadow-slot count (builder style).
    pub fn with_slots_per_device(mut self, slots: usize) -> Self {
        self.slots_per_device = slots;
        self
    }

    /// Sets the per-event replication cap (builder style).
    pub fn with_max_actions_per_layer(mut self, max_actions: usize) -> Self {
        self.max_actions_per_layer = max_actions;
        self
    }

    /// Sets the KV-cache HBM share (builder style).
    pub fn with_kv_hbm_fraction(mut self, fraction: f64) -> Self {
        self.kv_hbm_fraction = fraction;
        self
    }

    /// Sets the cold-link migration bandwidth (builder style).
    pub fn with_cold_bandwidth(mut self, bandwidth: f64) -> Self {
        self.cold_bandwidth = bandwidth;
        self
    }

    /// Materializes a validated [`EngineConfig`] for `model`.
    ///
    /// # Errors
    ///
    /// Returns whatever [`EngineConfig::validate`] rejects.
    pub fn engine_config(&self, model: ModelConfig) -> Result<EngineConfig, ConfigError> {
        let mut config = EngineConfig::new(model)
            .with_seed(self.seed)
            .with_backend(self.backend)
            .with_balancer(self.balancer)
            .with_workload(self.workload.clone())
            .with_batch(self.batch.to_batch_mode())
            .with_cache_entries(self.cache_entries);
        if let BatchSpec::Serving(serving) = &self.batch {
            config.summary = serving.summary;
            if let Some(workload) = &serving.workload {
                config.workload_profile = workload.to_profile()?;
            }
        }
        config.trigger_alpha_per_layer = self.trigger_alpha_per_layer;
        config.trigger_beta = self.trigger_beta;
        config.slots_per_device = self.slots_per_device;
        config.max_actions_per_layer = self.max_actions_per_layer;
        config.comm_layer_stride = self.comm_layer_stride;
        config.pipeline_microbatches = self.pipeline_microbatches;
        config.uniform_gating = self.uniform_gating;
        config.cold_bandwidth = self.cold_bandwidth;
        config.load_ema = self.load_ema;
        config.kv_hbm_fraction = self.kv_hbm_fraction;
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The load-bearing equivalence: a default spec materializes exactly
    /// the default engine config (spec-driven runs must be byte-identical
    /// to hand-constructed ones).
    #[test]
    fn default_spec_matches_default_engine_config() {
        let model = ModelConfig::tiny();
        let from_spec = EngineSpec::default().engine_config(model.clone()).unwrap();
        let by_hand = EngineConfig::new(model);
        // EngineConfig is not PartialEq (it carries a CostModel); compare
        // the spec-controlled fields one by one.
        assert_eq!(from_spec.seed, by_hand.seed);
        assert_eq!(from_spec.backend, by_hand.backend);
        assert_eq!(from_spec.balancer, by_hand.balancer);
        assert_eq!(from_spec.workload, by_hand.workload);
        assert_eq!(
            from_spec.trigger_alpha_per_layer,
            by_hand.trigger_alpha_per_layer
        );
        assert_eq!(from_spec.trigger_beta, by_hand.trigger_beta);
        assert_eq!(from_spec.slots_per_device, by_hand.slots_per_device);
        assert_eq!(
            from_spec.max_actions_per_layer,
            by_hand.max_actions_per_layer
        );
        assert_eq!(from_spec.comm_layer_stride, by_hand.comm_layer_stride);
        assert_eq!(
            from_spec.pipeline_microbatches,
            by_hand.pipeline_microbatches
        );
        assert_eq!(from_spec.uniform_gating, by_hand.uniform_gating);
        assert_eq!(from_spec.cold_bandwidth, by_hand.cold_bandwidth);
        assert_eq!(from_spec.load_ema, by_hand.load_ema);
        assert_eq!(from_spec.kv_hbm_fraction, by_hand.kv_hbm_fraction);
        assert_eq!(from_spec.cache_entries, by_hand.cache_entries);
        assert_eq!(from_spec.summary, by_hand.summary);
        assert!(matches!(
            (from_spec.batch, by_hand.batch),
            (
                BatchMode::Fixed {
                    tokens_per_group: 256,
                    ..
                },
                BatchMode::Fixed {
                    tokens_per_group: 256,
                    ..
                }
            )
        ));
    }

    #[test]
    fn invalid_knobs_surface_typed_errors() {
        let spec = EngineSpec {
            comm_layer_stride: 0,
            ..EngineSpec::default()
        };
        assert_eq!(
            spec.engine_config(ModelConfig::tiny()).unwrap_err(),
            ConfigError::CommLayerStrideZero
        );
        let spec = EngineSpec::default().with_kv_hbm_fraction(0.0);
        assert_eq!(
            spec.engine_config(ModelConfig::tiny()).unwrap_err(),
            ConfigError::KvHbmFractionOutOfRange { value: 0.0 }
        );
    }
}
