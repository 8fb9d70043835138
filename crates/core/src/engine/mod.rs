//! The end-to-end per-iteration inference simulator.
//!
//! [`InferenceEngine`] drives the full loop of paper Fig. 11(e): for every
//! sparse layer of every iteration it prices attention compute overlapped
//! with the all-reduce, gating, dispatch all-to-all overlapped with expert
//! compute, and combine; it tracks per-layer expert loads, fires the Eq. 2
//! trigger, runs the configured balancer, and executes migrations either
//! invasively (stall on the critical path) or non-invasively (drained on
//! phase-cold links by the [`MigrationEngine`](crate::migration)).
//!
//! Communication is priced through the pluggable
//! [`CongestionModel`] backend selected by
//! [`EngineConfig::backend`], a three-tier fidelity ladder: the default
//! analytical congestion model (per-link volumes over precomputed routes)
//! for production-scale sweeps, the `flow-sim-cached` tier (DES fidelity;
//! repeated full-estimate schedules such as the all-reduce and migration
//! transfer lists are simulated once, while the sampled per-step
//! all-to-all, whose shapes never repeat, is simulated on every stride
//! layer), or the uncached flow-level simulator when every collective must
//! be re-simulated (see DESIGN.md §5 for the fidelity ladder and
//! `tests/analytic_vs_des.rs` for the cross-validation contract).

mod metrics;
mod overlap;
mod sketch;

pub use metrics::{percentile, ClassServingSummary, IterationMetrics, RunSummary, ServingSummary};
pub use sketch::{P2Quantile, StreamingSummary, SummaryMode};

use overlap::{sample_overlapped, CoreClaim, Helper};

use moe_model::{CostModel, InferencePhase, ModelConfig, Precision};
use moe_workload::{
    BatchScheduler, ClassPolicy, IterationTrace, LayerGating, RequestClass, RequestGenerator,
    RequestRecord, SchedulingMode, TraceGenerator, WorkloadMix, WorkloadProfile,
};
use serde::{Deserialize, Serialize};
use wsc_sim::{CongestionBackend, CongestionModel};
use wsc_topology::{RouteTable, Topology};

use crate::balancer::{
    cumulative_imbalance, BalanceAction, BalanceContext, Balancer, BalancerKind, GreedyBalancer,
    TopologyAwareBalancer, Trigger,
};
use crate::comm::{A2aModel, LayerScratch, ParallelLayout};
use crate::config::ConfigError;
use crate::migration::{enqueue_replications, invasive_stall, MigrationEngine, MigrationPhase};
use crate::placement::ExpertPlacement;

/// Layers the serial driver draws before running them.
const SAMPLING_RUN: usize = 8;

pub use crate::balancer::cumulative_imbalance as imbalance_statistic;

/// Diurnal amplitude of the default serving arrival process (engine
/// `Scheduled` mode and the fleet's global stream draw from the same cycle,
/// so fleet and single-replica sweep curves stay comparable). Alias of
/// [`moe_workload::DEFAULT_DIURNAL_AMPLITUDE`], the default of
/// [`WorkloadProfile`]'s diurnal arrival source.
pub const ARRIVAL_DIURNAL_AMPLITUDE: f64 = moe_workload::DEFAULT_DIURNAL_AMPLITUDE;

/// Diurnal cycle period of the default serving arrival process, seconds.
/// Alias of [`moe_workload::DEFAULT_DIURNAL_PERIOD_SECS`].
pub const ARRIVAL_DIURNAL_PERIOD_SECS: f64 = moe_workload::DEFAULT_DIURNAL_PERIOD_SECS;

/// The most (sparse layer, expert) slots a model may have:
/// `num_sparse_layers × num_experts`. The engine sizes its affinity
/// tables, gating distributions and per-group counts by this product, so
/// a larger model is rejected as [`ConfigError::TooManyExpertSlots`]
/// before any of them is allocated. 2^20 is about 70× the largest preset
/// (DeepSeek-V3, 58 × 256 = 14,848).
pub const MAX_EXPERT_SLOTS: u64 = 1 << 20;

/// How iteration batches are produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum BatchMode {
    /// A fixed batch every iteration (the communication experiments).
    Fixed {
        /// Tokens per TP group per iteration.
        tokens_per_group: u32,
        /// Average attended context length.
        avg_context: f64,
        /// Roofline phase.
        phase: InferencePhase,
    },
    /// Request-pool driven batches (the balancer experiments, §VI-C).
    Scheduled {
        /// Serving discipline.
        mode: SchedulingMode,
        /// Token budget per group per iteration.
        max_batch_tokens: u32,
        /// Concurrent decode sequences per group.
        max_active: usize,
        /// Request arrival rate (requests/second, whole system).
        request_rate: f64,
        /// Wall-clock estimate of one iteration (drives arrival admission).
        iteration_period: f64,
    },
    /// Externally-fed serving: like [`BatchMode::Scheduled`] but with no
    /// internal arrival generator — requests enter only through
    /// [`InferenceEngine::offer_request`]. This is the replica shape in a
    /// fleet deployment, where a front-end router owns the global arrival
    /// stream (see [`crate::fleet`]).
    External {
        /// Serving discipline.
        mode: SchedulingMode,
        /// Token budget per group per iteration.
        max_batch_tokens: u32,
        /// Concurrent decode sequences per group.
        max_active: usize,
    },
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The MoE model being served.
    pub model: ModelConfig,
    /// Device cost model.
    pub cost: CostModel,
    /// Scenario mixture driving expert selection.
    pub workload: WorkloadMix,
    /// Serving workload shape: arrival source (diurnal Poisson, phase
    /// schedule, or trace replay) and tenant request classes with SLO
    /// targets. The default profile reproduces the legacy diurnal stream
    /// bit-for-bit with a single class-free tenant, so workload-free
    /// scenarios are byte-unchanged. Only consulted by the serving batch
    /// modes ([`BatchMode::Scheduled`] generates from it;
    /// [`BatchMode::External`] applies its class shed policy while the
    /// fleet router owns the arrival stream).
    pub workload_profile: WorkloadProfile,
    /// Batch production mode.
    pub batch: BatchMode,
    /// Communication-pricing fidelity: the fast analytic congestion model
    /// (default), the memoizing cached DES (`FlowSimCached` — DES estimates,
    /// repeated full-estimate schedules priced once; the per-step
    /// all-to-all is time-only and simulated every time), or the flow-level
    /// DES re-simulating every collective.
    pub backend: CongestionBackend,
    /// Balancing strategy.
    pub balancer: BalancerKind,
    /// Eq. 2 `α`, specified per layer (total `α = this × L`).
    pub trigger_alpha_per_layer: f64,
    /// Eq. 2 `β` in iterations (forced to 0 for non-invasive balancing).
    pub trigger_beta: u64,
    /// Shadow slots per device.
    pub slots_per_device: usize,
    /// Cap on replications per layer per balancing event.
    pub max_actions_per_layer: usize,
    /// Master seed.
    pub seed: u64,
    /// Price the all-to-all on every `k`-th layer only (1 = every layer).
    /// The layers between reuse the last priced dispatch and combine times:
    /// they compute their own device loads but never call the backend.
    pub comm_layer_stride: usize,
    /// Micro-batches for communication/compute overlap (PipeMoE-style).
    pub pipeline_microbatches: usize,
    /// Force uniform gating (isolates mapping effects, §VI-B).
    pub uniform_gating: bool,
    /// Bandwidth available to non-invasive migration on cold links, bytes/s.
    pub cold_bandwidth: f64,
    /// EMA factor for historical expert loads in `(0, 1]`.
    pub load_ema: f64,
    /// Fraction of aggregate device HBM available to the KV cache in
    /// [`BatchMode::Scheduled`]; the serving layer's admission budget is
    /// `kv_token_capacity(kv_hbm_fraction × Σ hbm_bytes)` (weights,
    /// activations, and fragmentation take the rest).
    pub kv_hbm_fraction: f64,
    /// Entry bound of the memoizing schedule cache when `backend` is
    /// [`CongestionBackend::FlowSimCached`] (ignored by the stateless
    /// tiers). Only full-estimate pricing (the all-reduce schedule and
    /// invasive migration stalls) fills it; the per-step all-to-all stores
    /// nothing. Defaults to [`wsc_sim::DEFAULT_CACHE_ENTRIES`].
    pub cache_entries: usize,
    /// How serving summaries are maintained: [`SummaryMode::Exact`] retains
    /// every completion record and the full iteration history (the golden
    /// oracle); [`SummaryMode::Streaming`] folds completions into P²
    /// sketches and keeps only the latest history entry — O(1) memory in
    /// request count, for million-request fleet runs.
    pub summary: SummaryMode,
}

impl EngineConfig {
    /// PipeMoE-style overlap: with `m` micro-batches the longer stream
    /// hides the shorter except for one pipeline-fill fragment.
    fn overlap(&self, compute: f64, comm: f64) -> f64 {
        let m = self.pipeline_microbatches as f64;
        compute.max(comm) + compute.min(comm) / m
    }

    /// Reasonable defaults for `model`: fixed 256-token decode batches,
    /// mixed workload, no balancing.
    pub fn new(model: ModelConfig) -> Self {
        EngineConfig {
            cost: CostModel::new(moe_model::DeviceSpec::b200()),
            workload: WorkloadMix::mixed(500.0),
            workload_profile: WorkloadProfile::default(),
            batch: BatchMode::Fixed {
                tokens_per_group: 256,
                avg_context: 4096.0,
                phase: InferencePhase::Decode,
            },
            backend: CongestionBackend::Analytic,
            balancer: BalancerKind::None,
            trigger_alpha_per_layer: 0.25,
            trigger_beta: 10,
            slots_per_device: 1,
            max_actions_per_layer: 4,
            seed: 7,
            comm_layer_stride: 1,
            pipeline_microbatches: 4,
            uniform_gating: false,
            cold_bandwidth: 4.0e12,
            load_ema: 0.3,
            kv_hbm_fraction: 0.3,
            cache_entries: wsc_sim::DEFAULT_CACHE_ENTRIES,
            summary: SummaryMode::Exact,
            model,
        }
    }

    /// Sets the summary maintenance mode (builder style).
    pub fn with_summary(mut self, summary: SummaryMode) -> Self {
        self.summary = summary;
        self
    }

    /// Sets the balancer kind (builder style).
    pub fn with_balancer(mut self, kind: BalancerKind) -> Self {
        self.balancer = kind;
        self
    }

    /// Sets the communication-pricing backend (builder style).
    pub fn with_backend(mut self, backend: CongestionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the workload mix (builder style).
    pub fn with_workload(mut self, workload: WorkloadMix) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the serving workload profile (builder style): arrival source
    /// and tenant classes.
    pub fn with_workload_profile(mut self, profile: WorkloadProfile) -> Self {
        self.workload_profile = profile;
        self
    }

    /// Sets the batch mode (builder style).
    pub fn with_batch(mut self, batch: BatchMode) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds the cached backend's schedule cache (builder style); only
    /// meaningful with [`CongestionBackend::FlowSimCached`].
    pub fn with_cache_entries(mut self, cache_entries: usize) -> Self {
        self.cache_entries = cache_entries;
        self
    }

    /// Checks the configuration's internal consistency: stride and
    /// micro-batch counts ≥ 1, `load_ema` and `kv_hbm_fraction` in
    /// `(0, 1]`, at least one schedule-cache entry, a positive
    /// `cold_bandwidth`, a non-negative `trigger_alpha_per_layer` whose
    /// product with the sparse-layer count is finite, non-zero batch
    /// budgets, a finite non-negative fixed `avg_context` and a positive
    /// `iteration_period`, and a model whose
    /// top-k gating can be sampled (at least one sparse layer,
    /// `1 ≤ num_experts`, `experts_per_token ≤ num_experts`,
    /// `num_sparse_layers × num_experts` at most [`MAX_EXPERT_SLOTS`], and
    /// a group's largest batch times top-k at most `u32::MAX`). This is
    /// the single
    /// validation gate behind [`InferenceEngine::try_new`],
    /// [`Fleet::try_new`](crate::fleet::Fleet::try_new), and the
    /// `moentwine-spec` scenario layer.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`] variant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.comm_layer_stride < 1 {
            return Err(ConfigError::CommLayerStrideZero);
        }
        if self.pipeline_microbatches < 1 {
            return Err(ConfigError::PipelineMicrobatchesZero);
        }
        if !(self.load_ema > 0.0 && self.load_ema <= 1.0) {
            return Err(ConfigError::LoadEmaOutOfRange {
                value: self.load_ema,
            });
        }
        if !(self.kv_hbm_fraction > 0.0 && self.kv_hbm_fraction <= 1.0) {
            return Err(ConfigError::KvHbmFractionOutOfRange {
                value: self.kv_hbm_fraction,
            });
        }
        if self.cache_entries < 1 {
            return Err(ConfigError::CacheEntriesZero);
        }
        if self.cold_bandwidth.is_nan() || self.cold_bandwidth <= 0.0 {
            return Err(ConfigError::ColdBandwidthNotPositive {
                value: self.cold_bandwidth,
            });
        }
        let alpha = self.trigger_alpha_per_layer;
        if !(alpha >= 0.0 && (alpha * f64::from(self.model.num_sparse_layers)).is_finite()) {
            return Err(ConfigError::TriggerAlphaOutOfRange { value: alpha });
        }
        let (experts_per_token, num_experts) =
            (self.model.experts_per_token, self.model.num_experts);
        if num_experts == 0 || experts_per_token > num_experts {
            return Err(ConfigError::TopKOutOfRange {
                experts_per_token,
                num_experts,
            });
        }
        let sparse_layers = self.model.num_sparse_layers;
        if sparse_layers == 0 {
            return Err(ConfigError::SparseLayersZero);
        }
        let slots = u64::from(sparse_layers) * u64::from(num_experts);
        if slots > MAX_EXPERT_SLOTS {
            return Err(ConfigError::TooManyExpertSlots {
                slots,
                max: MAX_EXPERT_SLOTS,
            });
        }
        let zero = |field| Err(ConfigError::BatchBudgetZero { field });
        let tokens = match self.batch {
            BatchMode::Fixed {
                tokens_per_group,
                avg_context,
                ..
            } => {
                if tokens_per_group == 0 {
                    return zero("tokens_per_group");
                }
                if !(avg_context.is_finite() && avg_context >= 0.0) {
                    return Err(ConfigError::AvgContextOutOfRange { value: avg_context });
                }
                u64::from(tokens_per_group)
            }
            BatchMode::Scheduled {
                max_batch_tokens,
                max_active,
                ..
            }
            | BatchMode::External {
                max_batch_tokens,
                max_active,
                ..
            } => {
                if max_batch_tokens == 0 {
                    return zero("max_batch_tokens");
                }
                if max_active == 0 {
                    return zero("max_active");
                }
                u64::from(max_batch_tokens).saturating_add(max_active as u64)
            }
        };
        if let BatchMode::Scheduled {
            iteration_period, ..
        } = self.batch
        {
            if iteration_period.is_nan() || iteration_period <= 0.0 {
                return Err(ConfigError::IterationPeriodNotPositive {
                    value: iteration_period,
                });
            }
        }
        if tokens.saturating_mul(u64::from(experts_per_token)) > u64::from(u32::MAX) {
            return Err(ConfigError::BatchTokensOutOfRange {
                tokens,
                experts_per_token,
            });
        }
        self.workload_profile.validate()?;
        Ok(())
    }

    /// The streaming accumulator a run under this config keeps: `None`
    /// under [`SummaryMode::Exact`], otherwise one over the profile's
    /// [reported classes](WorkloadProfile::reported_classes). The engine
    /// and the fleet both build theirs here.
    pub(crate) fn streaming_accumulator(&self) -> Option<StreamingSummary> {
        (self.summary == SummaryMode::Streaming)
            .then(|| StreamingSummary::with_classes(self.workload_profile.reported_classes()))
    }
}

/// The end-to-end inference simulator. See the [module docs](self).
pub struct InferenceEngine<'a> {
    topo: &'a Topology,
    table: &'a RouteTable,
    layout: &'a dyn ParallelLayout,
    config: EngineConfig,
    /// Communication-pricing backend built from `config.backend`.
    backend: Box<dyn CongestionModel + 'a>,
    a2a: A2aModel<'a>,
    trace: TraceGenerator,
    /// The current step's gating outcomes, overwritten in place each step.
    gating: IterationTrace,
    /// Whether a step draws enough gating counts to sample them on a
    /// helper thread, overlapped with the layer loop, when a core is free
    /// (see [`overlap::overlaps`] and [`CoreClaim`]).
    overlap_sampling: bool,
    /// One layer's loads and capped dispatch volumes, plus its transfer
    /// lists on node-aggregated fabrics only, reused across layers and
    /// steps.
    scratch: LayerScratch,
    scheduler: Option<BatchScheduler>,
    placements: Vec<ExpertPlacement>,
    /// `[layer][expert]` smoothed historical loads.
    loads: Vec<Vec<f64>>,
    /// The Eq. 2 trigger's per-layer device loads, one run of
    /// `num_devices` per layer, overwritten each step (empty without a
    /// balancer).
    layer_device_loads: Vec<f64>,
    balancer: Option<Box<dyn Balancer>>,
    invasive: bool,
    migration: MigrationEngine,
    trigger: Trigger,
    iteration: u64,
    /// Simulated wall-clock time: the sum of priced iteration durations.
    clock: f64,
    /// Lifecycle records of completed requests (serving modes under
    /// [`SummaryMode::Exact`]; empty under [`SummaryMode::Streaming`]).
    completed: Vec<RequestRecord>,
    /// Streaming accumulator ([`SummaryMode::Streaming`] only).
    streaming: Option<StreamingSummary>,
    /// Completions since the last [`Self::take_fresh_completions`] drain —
    /// populated only in [`BatchMode::External`], under either summary
    /// mode: the fleet drains them after every step. Bounded by the drain
    /// cadence, not by total request count.
    fresh: Vec<RequestRecord>,
    /// All-reduce cost decomposition: `time = ser_per_byte × bytes + lat`.
    ar_ser_per_byte: f64,
    ar_latency: f64,
    /// Per-iteration metrics, in order.
    pub history: Vec<IterationMetrics>,
}

impl<'a> InferenceEngine<'a> {
    /// Builds an engine over a topology, its route table, and a layout.
    ///
    /// This is a thin wrapper over [`InferenceEngine::try_new`] for call
    /// sites that treat an inconsistent config as a programming error.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero stride or
    /// micro-batches, EMA or KV fraction out of range) — the panic message
    /// is the [`ConfigError`]'s display text.
    pub fn new(
        topo: &'a Topology,
        table: &'a RouteTable,
        layout: &'a dyn ParallelLayout,
        config: EngineConfig,
    ) -> Self {
        Self::try_new(topo, table, layout, config)
            .unwrap_or_else(|e| panic!("invalid engine config: {e}"))
    }

    /// Builds an engine over a topology, its route table, and a layout,
    /// reporting configuration inconsistencies as typed errors instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by
    /// [`EngineConfig::validate`].
    pub fn try_new(
        topo: &'a Topology,
        table: &'a RouteTable,
        layout: &'a dyn ParallelLayout,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let num_layers = config.model.num_sparse_layers as usize;
        let num_experts = config.model.num_experts as usize;
        let num_groups = layout.num_groups();

        let trace = {
            let t = TraceGenerator::new(
                &config.model,
                config.workload.clone(),
                num_groups,
                256,
                config.seed,
            );
            if config.uniform_gating {
                t.with_uniform_gating()
            } else {
                t
            }
        };

        // Admission budget for the serving modes: the KV tokens that fit in
        // the HBM share set aside for cache, across the whole platform
        // (`validate` has already pinned the fraction to (0, 1]).
        let kv_budget = || {
            let kv_bytes =
                config.kv_hbm_fraction * config.cost.device().hbm_bytes * topo.num_devices() as f64;
            config
                .model
                .kv_token_capacity(kv_bytes, Precision::Fp16)
                .max(1)
        };
        let scheduler = match &config.batch {
            BatchMode::Fixed { .. } => None,
            BatchMode::Scheduled {
                mode,
                max_batch_tokens,
                max_active,
                request_rate,
                iteration_period,
            } => {
                // The workload profile owns the arrival source (diurnal
                // Poisson by default, phase schedule, or trace replay) and
                // the tenant-class mixture. Request scenarios follow the
                // gating workload mix so length profiles and expert
                // affinities stay coherent (time-varying mixes use their
                // initial blend). The seed streams are unchanged from the
                // legacy construction, so the default profile reproduces
                // the pre-profile request stream bit-for-bit.
                let generator = RequestGenerator::try_from_profile(
                    &config.workload_profile,
                    *request_rate,
                    config.workload.weights(0),
                    config.seed ^ 0x5EED,
                    config.seed ^ 0xFEED,
                )?;
                Some(
                    BatchScheduler::new(
                        *mode,
                        *max_batch_tokens,
                        *max_active,
                        *iteration_period,
                        generator,
                    )
                    .with_kv_budget(kv_budget())
                    .with_class_policy(ClassPolicy::from_classes(&config.workload_profile.classes)),
                )
            }
            BatchMode::External {
                mode,
                max_batch_tokens,
                max_active,
            } => Some(
                BatchScheduler::external(*mode, *max_batch_tokens, *max_active)
                    .with_kv_budget(kv_budget())
                    .with_class_policy(ClassPolicy::from_classes(&config.workload_profile.classes)),
            ),
        };

        let placements = (0..num_layers)
            .map(|_| {
                ExpertPlacement::balanced(num_experts, topo.num_devices(), config.slots_per_device)
            })
            .collect();

        let (balancer, invasive): (Option<Box<dyn Balancer>>, bool) = match config.balancer {
            BalancerKind::None => (None, false),
            BalancerKind::Greedy => (
                Some(Box::new(GreedyBalancer::new(config.max_actions_per_layer))),
                true,
            ),
            BalancerKind::TopologyAware => (
                Some(Box::new(TopologyAwareBalancer::new(
                    config.max_actions_per_layer,
                ))),
                true,
            ),
            BalancerKind::NonInvasive => (
                Some(Box::new(TopologyAwareBalancer::new(
                    config.max_actions_per_layer,
                ))),
                false,
            ),
        };

        let beta = if config.balancer == BalancerKind::NonInvasive {
            0
        } else {
            config.trigger_beta
        };
        let trigger = Trigger::new(config.trigger_alpha_per_layer * num_layers as f64, beta);

        let mut migration = MigrationEngine::new(config.cold_bandwidth);
        if layout.ftd_of_device(wsc_topology::DeviceId(0)).is_none() {
            migration = migration.phase_agnostic();
        }

        // All-reduce cost decomposition from a unit-byte schedule, priced by
        // the configured backend (both backends are linear in bytes for a
        // fixed schedule shape, so slope+intercept extraction is exact).
        let backend = config
            .backend
            .build_with_cache_capacity(topo, config.cache_entries);
        let unit = layout.all_reduce_schedule(topo, 1.0);
        let est = backend.price_schedule(&unit);
        let a2a = A2aModel::new(topo, table, layout);

        Ok(InferenceEngine {
            topo,
            table,
            layout,
            backend,
            a2a,
            trace,
            gating: IterationTrace {
                iteration: 0,
                weights: Vec::new(),
                layers: Vec::new(),
            },
            overlap_sampling: overlap::overlaps(num_layers * num_groups * num_experts),
            scratch: LayerScratch::default(),
            scheduler,
            placements,
            loads: vec![vec![0.0; num_experts]; num_layers],
            layer_device_loads: if balancer.is_some() {
                vec![0.0; num_layers * topo.num_devices()]
            } else {
                Vec::new()
            },
            balancer,
            invasive,
            migration,
            trigger,
            iteration: 0,
            clock: 0.0,
            completed: Vec::new(),
            streaming: config.streaming_accumulator(),
            fresh: Vec::new(),
            ar_ser_per_byte: est.serialization_time,
            ar_latency: est.latency_time,
            history: Vec::new(),
            config,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active communication-pricing backend.
    pub fn backend(&self) -> &dyn CongestionModel {
        self.backend.as_ref()
    }

    /// Current per-layer placements.
    pub fn placements(&self) -> &[ExpertPlacement] {
        &self.placements
    }

    /// Runs `iterations` steps.
    pub fn run(&mut self, iterations: usize) -> RunSummary {
        for _ in 0..iterations {
            self.step();
        }
        RunSummary::from_history(&self.history, 0, self.topo.num_devices())
    }

    /// Executes one iteration and records its metrics.
    pub fn step(&mut self) -> &IterationMetrics {
        let cores = CoreClaim::take(self.overlap_sampling);
        self.step_with(cores.helper().map(Helper::new))
    }

    /// [`InferenceEngine::step`], sampling gating on this thread, or, given
    /// a `helper`, sharing the draw with its worker overlapped with the
    /// layer loop, as `helper` says. Every driver gives the same bits.
    fn step_with(&mut self, helper: Option<Helper<'_>>) -> &IterationMetrics {
        let config = &self.config;
        let model = &config.model;
        let tp = self.layout.tp_degree();
        let num_layers = model.num_sparse_layers as usize;

        // 1. Batch shape. Scheduled mode runs on the simulated wall clock:
        // the iteration is scheduled at the current clock and closed after
        // its priced duration is known (step 5).
        let mut serving_stats: Option<(u64, u64, u64)> = None;
        let (tokens_per_group, avg_context, phase) = match &config.batch {
            BatchMode::Fixed {
                tokens_per_group,
                avg_context,
                phase,
            } => (*tokens_per_group, *avg_context, *phase),
            BatchMode::Scheduled { .. } | BatchMode::External { .. } => {
                let scheduler = self
                    .scheduler
                    .as_mut()
                    .expect("serving modes have a scheduler");
                let spec = scheduler.next_batch_at(self.clock);
                let queue = scheduler.queue();
                serving_stats = Some((
                    queue.queue_depth() as u64,
                    queue.num_active() as u64,
                    queue.kv_tokens_in_use(),
                ));
                (
                    spec.total_tokens().max(1),
                    spec.avg_context.max(1.0),
                    spec.phase,
                )
            }
        };
        self.trace.set_tokens_per_group(tokens_per_group);

        // 2. Attention phase costs (identical across layers).
        let attn =
            config
                .cost
                .attention_time(model, tokens_per_group as f64, avg_context, tp, phase);
        let ar_bytes = tokens_per_group as f64 * model.token_bytes(Precision::Fp16);
        let ar_time = self.ar_ser_per_byte * ar_bytes + self.ar_latency;
        let attn_phase = config.overlap(attn.total(), ar_time);

        // 3. Per-layer MoE phases: gating sampling feeds the layer loop in
        // layer order, on this thread or shared with a helper.
        let mut metrics = IterationMetrics {
            iteration: self.iteration,
            tokens_per_group,
            ..Default::default()
        };
        if let Some((queue_depth, active_requests, kv_tokens_in_use)) = serving_stats {
            metrics.queue_depth = queue_depth;
            metrics.active_requests = active_requests;
            metrics.kv_tokens_in_use = kv_tokens_in_use;
        }
        let mut layer_loop = LayerLoop {
            config,
            topo: self.topo,
            a2a: &self.a2a,
            backend: self.backend.as_ref(),
            scratch: &mut self.scratch,
            placements: &mut self.placements,
            loads: &mut self.loads,
            layer_device_loads: &mut self.layer_device_loads,
            migration: &mut self.migration,
            metrics: &mut metrics,
            attn_total: attn.total(),
            ar_time,
            attn_phase,
            token_bytes: model.token_bytes(Precision::Fp16),
            tokens_per_group,
            cached_comm: (0.0, 0.0),
            next: 0,
        };
        let sampler = self.trace.begin_iteration(&mut self.gating);
        match helper {
            Some(helper) => sample_overlapped(sampler, helper, |gating| layer_loop.layer(gating)),
            None => sampler.sample(SAMPLING_RUN, |run| {
                run.iter().for_each(|g| layer_loop.layer(g))
            }),
        }
        debug_assert_eq!(layer_loop.next, num_layers, "every layer ran");
        let num_devices = self.topo.num_devices();

        // 4. Balancing trigger (Eq. 2) and execution.
        if let Some(balancer) = self.balancer.as_mut() {
            let imbalance = cumulative_imbalance(self.layer_device_loads.chunks(num_devices));
            if self.trigger.should_balance(self.iteration, imbalance) {
                let expert_bytes = model.expert_bytes(config.cost.linear_precision);
                let mut stall_pairs: Vec<(wsc_topology::DeviceId, wsc_topology::DeviceId, f64)> =
                    Vec::new();
                for l in 0..num_layers {
                    let actions = balancer.plan_layer(&BalanceContext {
                        layer: l,
                        expert_loads: &self.loads[l],
                        placement: &self.placements[l],
                        table: self.table,
                    });
                    if self.invasive {
                        for action in &actions {
                            match *action {
                                BalanceAction::Replicate {
                                    layer,
                                    expert,
                                    source,
                                    target,
                                } => {
                                    if self.placements[layer].add_replica(expert, target).is_ok() {
                                        stall_pairs.push((source, target, expert_bytes));
                                        metrics.migrations_started += 1;
                                        metrics.migrations_completed += 1;
                                    }
                                }
                                BalanceAction::Release {
                                    layer,
                                    expert,
                                    device,
                                } => {
                                    self.placements[layer].remove_replica(expert, device);
                                }
                            }
                        }
                    } else {
                        let before = self.migration.in_flight();
                        let releases = enqueue_replications(
                            &mut self.migration,
                            self.topo,
                            self.table,
                            self.layout,
                            &actions,
                            expert_bytes,
                        );
                        metrics.migrations_started += (self.migration.in_flight() - before) as u64;
                        for action in releases {
                            if let BalanceAction::Release {
                                layer,
                                expert,
                                device,
                            } = action
                            {
                                self.placements[layer].remove_replica(expert, device);
                            }
                        }
                    }
                }
                if self.invasive && !stall_pairs.is_empty() {
                    // The migrations run concurrently on the idle-but-shared
                    // fabric, interrupting inference (paper Fig. 7b).
                    let est = invasive_stall(self.backend.as_ref(), self.table, &stall_pairs);
                    metrics.migration_stall = est.total_time;
                    metrics.iteration_time += est.total_time;
                }
            }
        }

        // 5. Advance the simulated wall clock by the priced iteration
        // duration and close the serving iteration at the new time: TTFT /
        // TPOT / completion events are stamped with modeled hardware time.
        self.clock += metrics.iteration_time;
        metrics.sim_time = self.clock;
        if let Some(scheduler) = self.scheduler.as_mut() {
            scheduler.finish_iteration(self.clock);
            let mut done = scheduler.drain_completed();
            metrics.requests_completed = done.len() as u64;
            // A fleet replica stages every completion for the fleet's
            // drain, whatever the summary mode: hand-offs, router feedback,
            // speculative races and the fleet sketch all read it there.
            // Standalone engines stage nothing.
            let staged = matches!(self.config.batch, BatchMode::External { .. });
            match self.streaming.as_mut() {
                Some(streaming) => {
                    for record in &done {
                        streaming.observe_record(record);
                    }
                }
                None if staged => self.completed.extend_from_slice(&done),
                None => self.completed.append(&mut done),
            }
            if staged {
                self.fresh.append(&mut done);
            }
        }
        if let Some(streaming) = self.streaming.as_mut() {
            streaming.observe_iteration(metrics.queue_depth, metrics.active_requests);
            // O(1) history: keep only the latest entry (its `sim_time` is
            // the covered span; occupancy means live in the sketch).
            self.history.clear();
        }

        self.iteration += 1;
        self.history.push(metrics);
        self.history.last().expect("just pushed")
    }

    /// Simulated wall-clock time elapsed so far, seconds.
    pub fn sim_time(&self) -> f64 {
        self.clock
    }

    /// Jumps the simulated clock forward to `t` (no-op if `t` is in the
    /// past) without pricing an iteration. Used by the fleet's event loop
    /// to park an idle replica and resume it at the next arrival:
    /// the serving scheduler re-synchronizes on the next
    /// `next_batch_at(clock)` call, so no phantom idle iterations are
    /// priced or recorded.
    pub fn fast_forward(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Feeds one routed request to this replica's serving queue
    /// ([`BatchMode::External`]; also accepted in [`BatchMode::Scheduled`],
    /// where it mixes with generated arrivals). Requests must be offered in
    /// non-decreasing arrival order per engine.
    ///
    /// # Panics
    ///
    /// Panics in [`BatchMode::Fixed`], which has no request lifecycle.
    pub fn offer_request(&mut self, request: moe_workload::Request) {
        self.scheduler
            .as_mut()
            .expect("offer_request requires a serving batch mode")
            .offer(request);
    }

    /// Removes and returns every not-yet-admitted request from this
    /// replica's serving queue (fleet drain/crash re-routing; see
    /// [`moe_workload::ServingQueue::evict_waiting`]).
    ///
    /// # Panics
    ///
    /// Panics in [`BatchMode::Fixed`], which has no request lifecycle.
    pub fn evict_waiting_requests(&mut self) -> Vec<moe_workload::Request> {
        self.scheduler
            .as_mut()
            .expect("eviction requires a serving batch mode")
            .evict_waiting()
    }

    /// Removes and returns every resident request with its lost progress
    /// (fleet crash re-queue; see
    /// [`moe_workload::ServingQueue::evict_resident`]).
    ///
    /// # Panics
    ///
    /// Panics in [`BatchMode::Fixed`], which has no request lifecycle.
    pub fn evict_resident_requests(&mut self) -> Vec<moe_workload::InterruptedRequest> {
        self.scheduler
            .as_mut()
            .expect("eviction requires a serving batch mode")
            .evict_resident()
    }

    /// Where a routed request currently sits inside this replica's serving
    /// queue (speculative-dispatch probe; a completed or never-offered
    /// request reports [`moe_workload::CopyStatus::Absent`]).
    pub fn copy_status(&self, id: moe_workload::RequestId) -> moe_workload::CopyStatus {
        self.scheduler
            .as_ref()
            .map_or(moe_workload::CopyStatus::Absent, |s| {
                s.queue().copy_status(id)
            })
    }

    /// Cancels a waiting or active request, releasing its KV reservation
    /// and unwinding its admitted-token accounting (speculative
    /// loser-copy teardown; see
    /// [`moe_workload::ServingQueue::cancel_request`]). Returns `false`
    /// when the request is not resident.
    ///
    /// # Panics
    ///
    /// Panics in [`BatchMode::Fixed`], which has no request lifecycle.
    pub fn cancel_request(&mut self, id: moe_workload::RequestId) -> bool {
        self.scheduler
            .as_mut()
            .expect("cancellation requires a serving batch mode")
            .cancel_request(id)
    }

    /// Removes one retained completion record by id — newest match first
    /// ([`SummaryMode::Exact`]; a no-op under [`SummaryMode::Streaming`],
    /// which retains none). The fleet deletes speculative loser copies that
    /// finished before their group resolved through here, so every logical
    /// request is counted once.
    pub(crate) fn remove_completed(&mut self, id: moe_workload::RequestId) {
        if let Some(pos) = self.completed.iter().rposition(|r| r.id == id) {
            self.completed.remove(pos);
        }
    }

    /// This replica's serving load as observed by a fleet router (`None`
    /// in [`BatchMode::Fixed`]).
    pub fn replica_snapshot(&self) -> Option<moe_workload::ReplicaSnapshot> {
        self.scheduler.as_ref().map(|s| {
            let q = s.queue();
            moe_workload::ReplicaSnapshot {
                queue_depth: q.queue_depth(),
                active: q.num_active(),
                kv_tokens_in_use: q.kv_tokens_in_use(),
                kv_budget_tokens: q.kv_budget_tokens(),
                mode: q.mode(),
            }
        })
    }

    /// Lifecycle records of every request completed so far (empty in
    /// [`BatchMode::Fixed`] and in [`SummaryMode::Streaming`], which folds
    /// records into sketches instead of retaining them).
    pub fn completed_requests(&self) -> &[RequestRecord] {
        &self.completed
    }

    /// Drains the completions staged since the last drain
    /// ([`BatchMode::External`] only; empty otherwise). The fleet's one
    /// completion channel: it calls this after every step it prices.
    pub(crate) fn take_fresh_completions(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.fresh)
    }

    /// Memory proxy: records and iteration-history entries currently
    /// retained. O(completed requests) under [`SummaryMode::Exact`];
    /// bounded (last history entry + undrained fresh completions) under
    /// [`SummaryMode::Streaming`].
    pub fn retained_records(&self) -> usize {
        self.completed.len() + self.fresh.len() + self.history.len()
    }

    /// Request-level serving statistics over the run so far: SLO
    /// percentiles, goodput, queue occupancy, and admission rejects.
    /// Zeroed in [`BatchMode::Fixed`], which has no request lifecycle.
    /// Under [`SummaryMode::Streaming`] the percentiles are the sketch
    /// estimates (exact for runs of ≤ [`P2Quantile::WARMUP`] completions).
    pub fn serving_summary(&self) -> ServingSummary {
        let (rejects, peak_kv) = self.scheduler.as_ref().map_or((0, 0), |s| {
            (s.queue().rejected(), s.queue().peak_kv_tokens())
        });
        match self.streaming.as_ref() {
            Some(streaming) => {
                streaming.summary(self.clock, rejects, peak_kv, self.class_counters())
            }
            None => ServingSummary::from_records(
                &self.completed,
                &self.history,
                self.history.last().map_or(0.0, |m| m.sim_time),
                rejects,
                peak_kv,
                self.class_counters(),
                self.config.workload_profile.reported_classes(),
            ),
        }
    }

    /// Per-class `(shed, rejected)` admission counters of this replica's
    /// serving queue, indexed by [`RequestClass::index`]. All zeros in
    /// [`BatchMode::Fixed`]. The fleet sums these across replicas for its
    /// aggregate per-class attainment report.
    pub fn class_counters(&self) -> ([u64; 2], [u64; 2]) {
        self.scheduler.as_ref().map_or(([0; 2], [0; 2]), |s| {
            let q = s.queue();
            let shed = [
                q.shed_for(RequestClass::Interactive),
                q.shed_for(RequestClass::Batch),
            ];
            let rejected = [
                q.rejected_for(RequestClass::Interactive),
                q.rejected_for(RequestClass::Batch),
            ];
            (shed, rejected)
        })
    }
}

/// The per-layer body of one step: everything a sparse layer's MoE phase
/// reads and writes besides its gating. Both step drivers hand it every
/// layer's gating in layer order, so they price the same step.
struct LayerLoop<'s, 'a> {
    config: &'s EngineConfig,
    topo: &'a Topology,
    a2a: &'s A2aModel<'a>,
    backend: &'s (dyn CongestionModel + 'a),
    scratch: &'s mut LayerScratch,
    placements: &'s mut [ExpertPlacement],
    loads: &'s mut [Vec<f64>],
    /// The Eq. 2 trigger's device loads; empty without a balancer.
    layer_device_loads: &'s mut [f64],
    migration: &'s mut MigrationEngine,
    metrics: &'s mut IterationMetrics,
    attn_total: f64,
    ar_time: f64,
    attn_phase: f64,
    token_bytes: f64,
    tokens_per_group: u32,
    /// The last priced `(dispatch, combine)` times.
    cached_comm: (f64, f64),
    /// The next layer's index.
    next: usize,
}

impl LayerLoop<'_, '_> {
    /// Runs the next layer on its gating.
    fn layer(&mut self, gating: &LayerGating) {
        let (config, l) = (self.config, self.next);
        self.next += 1;
        let model = &config.model;
        let num_layers = model.num_sparse_layers as usize;
        let num_devices = self.topo.num_devices();
        // Every layer loads its devices from its own gating; only stride
        // layers price the all-to-all, and the layers between reuse the last
        // priced `(dispatch, combine)` times. Layer 0 is always a stride layer.
        if l % config.comm_layer_stride == 0 {
            self.cached_comm = self.a2a.price_layer(
                self.backend,
                gating,
                &self.placements[l],
                (self.token_bytes, self.tokens_per_group),
                self.scratch,
            );
        } else {
            self.a2a
                .fill_layer(gating, &self.placements[l], None, self.scratch);
        }
        let (dispatch_t, combine_t) = self.cached_comm;
        let device_tokens = &self.scratch.device_tokens;
        let device_active = &self.scratch.device_active;

        // Expert compute: slowest device.
        let mut moe_comp: f64 = 0.0;
        for d in 0..num_devices {
            let t = config
                .cost
                .moe_device_time(model, device_tokens[d], device_active[d])
                .total();
            moe_comp = moe_comp.max(t);
        }
        // Shared experts run where the tokens live.
        if model.num_shared_experts > 0 {
            let local_tokens = gating.total_selections() as f64
                / model.experts_per_token as f64
                / num_devices as f64;
            moe_comp += config
                .cost
                .moe_device_time(model, local_tokens, model.num_shared_experts as f64)
                .total();
        }

        let a2a_time = dispatch_t + combine_t;
        let moe_phase = config.overlap(moe_comp, a2a_time);

        // Accumulate.
        let metrics = &mut *self.metrics;
        metrics.attention_compute += self.attn_total;
        metrics.all_reduce += self.ar_time;
        metrics.dispatch += dispatch_t;
        metrics.combine += combine_t;
        metrics.moe_compute += moe_comp;
        metrics.iteration_time += self.attn_phase + moe_phase;

        let max = device_tokens.iter().copied().fold(0.0, f64::max);
        let mean = device_tokens.iter().sum::<f64>() / device_tokens.len() as f64;
        metrics.max_device_tokens += max / num_layers as f64;
        metrics.avg_device_tokens += mean / num_layers as f64;
        metrics.load_ratio += if mean > 0.0 { max / mean } else { 1.0 } / num_layers as f64;

        // Non-invasive migration progress on cold links.
        for done in self
            .migration
            .advance(MigrationPhase::Local, self.attn_phase)
        {
            if self.placements[done.layer]
                .add_replica(done.expert, done.target)
                .is_ok()
            {
                metrics.migrations_completed += 1;
            }
        }
        for done in self.migration.advance(MigrationPhase::Global, moe_phase) {
            if self.placements[done.layer]
                .add_replica(done.expert, done.target)
                .is_ok()
            {
                metrics.migrations_completed += 1;
            }
        }

        // Historical loads (EMA).
        let ema = config.load_ema;
        for (slot, &t) in self.loads[l].iter_mut().zip(&self.scratch.expert_totals) {
            *slot = (1.0 - ema) * *slot + ema * t as f64;
        }
        if !self.layer_device_loads.is_empty() {
            self.placements[l].device_loads_into(
                &self.loads[l],
                &mut self.layer_device_loads[l * num_devices..][..num_devices],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ErMapping, TpShape};
    use moe_workload::Scenario;
    use overlap::CallerCells;
    use wsc_topology::{Mesh, PlatformParams};

    fn small_model() -> ModelConfig {
        // A scaled-down model for fast engine tests.
        ModelConfig::tiny()
    }

    fn fixture() -> (Topology, RouteTable, crate::mapping::MappingPlan) {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::new(topo.mesh_dims().unwrap(), TpShape::new(2, 2))
            .unwrap()
            .plan();
        (topo, table, plan)
    }

    #[test]
    fn engine_runs_and_records_history() {
        let (topo, table, plan) = fixture();
        let config = EngineConfig::new(small_model()).with_seed(3);
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        let summary = engine.run(5);
        assert_eq!(summary.iterations, 5);
        assert!(summary.mean_iteration_time > 0.0);
        assert!(summary.mean_all_to_all > 0.0);
        assert_eq!(engine.history.len(), 5);
    }

    #[test]
    fn non_invasive_never_stalls() {
        let (topo, table, plan) = fixture();
        let config = EngineConfig::new(small_model())
            .with_balancer(BalancerKind::NonInvasive)
            .with_workload(WorkloadMix::Fixed(Scenario::Math));
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(30);
        assert!(engine.history.iter().all(|m| m.migration_stall == 0.0));
        // And some migrations actually happened.
        let completed: u64 = engine.history.iter().map(|m| m.migrations_completed).sum();
        assert!(completed > 0, "no migrations completed");
    }

    #[test]
    fn invasive_greedy_stalls_iterations() {
        let (topo, table, plan) = fixture();
        let config = EngineConfig::new(small_model())
            .with_balancer(BalancerKind::Greedy)
            .with_workload(WorkloadMix::Fixed(Scenario::Math));
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(30);
        assert!(
            engine.history.iter().any(|m| m.migration_stall > 0.0),
            "greedy balancing should interrupt at least once"
        );
    }

    #[test]
    fn balancing_improves_load_ratio() {
        let (topo, table, plan) = fixture();
        let base_cfg = EngineConfig::new(small_model())
            .with_workload(WorkloadMix::Fixed(Scenario::Math))
            .with_seed(11);
        let mut unbalanced = InferenceEngine::new(&topo, &table, &plan, base_cfg.clone());
        let without = unbalanced.run(40);
        let mut balanced = InferenceEngine::new(
            &topo,
            &table,
            &plan,
            base_cfg.with_balancer(BalancerKind::NonInvasive),
        );
        let with = balanced.run(40);
        assert!(
            with.mean_load_ratio < without.mean_load_ratio,
            "balancing should reduce load ratio: {} vs {}",
            with.mean_load_ratio,
            without.mean_load_ratio
        );
    }

    #[test]
    fn backend_knob_swaps_pricing_fidelity() {
        let (topo, table, plan) = fixture();
        let run = |backend: CongestionBackend| {
            let config = EngineConfig::new(small_model())
                .with_seed(3)
                .with_backend(backend);
            let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
            assert_eq!(engine.backend().name(), backend.name());
            engine.run(3)
        };
        let analytic = run(CongestionBackend::Analytic);
        let des = run(CongestionBackend::FlowSim);
        assert!(analytic.mean_all_to_all > 0.0);
        assert!(des.mean_all_to_all > 0.0);
        // Same traffic, different fidelity: the results must be in the same
        // ballpark (the analytic model is a conservative bottleneck bound).
        let ratio = des.mean_all_to_all / analytic.mean_all_to_all;
        assert!(
            (0.2..=1.5).contains(&ratio),
            "DES/analytic a2a ratio {ratio} out of range: {} vs {}",
            des.mean_all_to_all,
            analytic.mean_all_to_all
        );
    }

    #[test]
    fn cached_backend_reproduces_flow_sim_run_exactly() {
        let (topo, table, plan) = fixture();
        let run = |backend: CongestionBackend| {
            let config = EngineConfig::new(small_model())
                .with_seed(9)
                .with_backend(backend);
            InferenceEngine::new(&topo, &table, &plan, config).run(4)
        };
        let des = run(CongestionBackend::FlowSim);
        let cached = run(CongestionBackend::FlowSimCached);
        assert_eq!(des.mean_iteration_time, cached.mean_iteration_time);
        assert_eq!(des.mean_all_to_all, cached.mean_all_to_all);
        assert_eq!(des.mean_all_reduce, cached.mean_all_reduce);
    }

    #[test]
    fn layer_stride_changes_pricing_but_never_loads() {
        // Gating and placements do not depend on the stride (fixed batches,
        // no balancing), so every layer's loads — and everything derived
        // from them — must be bit-equal across strides, while the layers
        // between stride layers reuse the priced all-to-all times.
        let (topo, table, plan) = fixture();
        let run = |stride: usize| {
            let mut config = EngineConfig::new(small_model()).with_seed(11);
            config.comm_layer_stride = stride;
            let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
            engine.run(12);
            engine.history
        };
        let loads = |m: &IterationMetrics| {
            (
                m.max_device_tokens.to_bits(),
                m.avg_device_tokens.to_bits(),
                m.load_ratio.to_bits(),
                m.moe_compute.to_bits(),
            )
        };
        let every_layer = run(1);
        for stride in 2..=5 {
            let strided = run(stride);
            assert_eq!(strided.len(), every_layer.len());
            for (a, b) in every_layer.iter().zip(&strided) {
                assert_eq!(
                    loads(a),
                    loads(b),
                    "stride {stride}, iteration {}",
                    a.iteration
                );
            }
            assert!(
                every_layer
                    .iter()
                    .zip(&strided)
                    .any(|(a, b)| a.dispatch != b.dispatch),
                "stride {stride} should reuse priced times on some layer"
            );
        }
    }

    /// A Qwen3-235B-shaped engine (above the overlap size rule) with the
    /// NI-Balancer on, under a cycling mix whose weights move a lot every
    /// step (so every step's worker mixes every layer ahead), and with
    /// cold-link migrations landing in the middle of the layer loop and
    /// changing the placements later layers load.
    fn overlap_test_config() -> EngineConfig {
        EngineConfig {
            slots_per_device: 2,
            comm_layer_stride: 8,
            ..EngineConfig::new(ModelConfig::qwen3_235b())
                .with_workload(WorkloadMix::mixed(3.0))
                .with_balancer(BalancerKind::NonInvasive)
                .with_seed(5)
        }
    }

    /// The overlap test engine's history and placements after `steps`
    /// steps through `helper`'s driver (the serial one for `None`).
    fn overlap_test_run(
        helper: Option<Helper<'_>>,
        steps: usize,
    ) -> (Vec<IterationMetrics>, Vec<ExpertPlacement>) {
        let (topo, table, plan) = fixture();
        let mut engine = InferenceEngine::new(&topo, &table, &plan, overlap_test_config());
        for _ in 0..steps {
            engine.step_with(helper);
        }
        (engine.history, engine.placements)
    }

    /// The overlap test engine steps to the same bits through the serial
    /// driver and the shared one: with the production claims, and with the
    /// caller forced to draw no cell, every cell, and every other cell;
    /// each with the worker mixing ahead after every draw and with mixing
    /// ahead off. One worker serves every run, so its mixing job for one
    /// run's last step may still run when the next run begins.
    #[test]
    fn overlapped_sampling_matches_the_serial_driver() {
        let model = ModelConfig::qwen3_235b();
        assert!(
            model.num_sparse_layers as usize
                * fixture().2.num_groups()
                * model.num_experts as usize
                > overlap::MIN_OVERLAPPED_COUNTS
        );
        let steps = 16;
        let serial = overlap_test_run(None, steps);
        assert!(
            serial.0.iter().any(|m| m.migrations_completed > 0),
            "no migration completed inside a layer loop"
        );
        let worker = overlap::Lease::take().expect("a worker thread starts");
        let splits = [
            CallerCells::WhenWaiting,
            CallerCells::Fixed(|_| false),
            CallerCells::Fixed(|_| true),
            CallerCells::Fixed(|layer| layer % 2 == 0),
        ];
        for split in splits {
            for mix_ahead in [true, false] {
                let helper = Helper {
                    worker: &worker,
                    split,
                    mix_ahead,
                };
                let (history, placements) = overlap_test_run(Some(helper), steps);
                let case = format!("{split:?}, mixing ahead {mix_ahead}");
                assert_eq!(format!("{history:?}"), format!("{:?}", serial.0), "{case}");
                assert_eq!(placements, serial.1, "{case}");
            }
        }
    }

    /// Dropping an engine while its worker still mixes the next
    /// iteration's distributions is safe, and the worker then serves a new
    /// engine to the serial driver's bits. A step returns as soon as its
    /// last layer is consumed, and mixing 94 layers takes the worker about
    /// 0.1 ms, so a drop most likely lands mid-mix, but timing decides:
    /// `moe_workload`'s `mixing_ahead_stops_once_the_generator_is_gone`
    /// covers the stop deterministically.
    #[test]
    fn dropping_an_engine_while_its_worker_mixes_ahead_is_safe() {
        let (topo, table, plan) = fixture();
        let worker = overlap::Lease::take().expect("a worker thread starts");
        let helper = Helper::new(&worker);
        for _ in 0..4 {
            let mut engine = InferenceEngine::new(&topo, &table, &plan, overlap_test_config());
            engine.step_with(Some(helper));
        }
        let (history, placements) = overlap_test_run(Some(helper), 3);
        let serial = overlap_test_run(None, 3);
        assert_eq!(format!("{history:?}"), format!("{:?}", serial.0));
        assert_eq!(placements, serial.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let (topo, table, plan) = fixture();
        let mk = || {
            let config = EngineConfig::new(small_model()).with_seed(42);
            let mut e = InferenceEngine::new(&topo, &table, &plan, config);
            e.run(5).mean_iteration_time
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn scheduled_decode_mode_runs() {
        let (topo, table, plan) = fixture();
        let config = EngineConfig::new(small_model()).with_batch(BatchMode::Scheduled {
            mode: SchedulingMode::DecodeOnly,
            max_batch_tokens: 512,
            max_active: 64,
            request_rate: 200.0,
            iteration_period: 0.02,
        });
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        let summary = engine.run(20);
        assert!(summary.mean_tokens_per_group >= 1.0);
    }

    #[test]
    fn serving_clock_advances_by_priced_durations() {
        let (topo, table, plan) = fixture();
        let config =
            EngineConfig::new(small_model())
                .with_seed(21)
                .with_batch(BatchMode::Scheduled {
                    mode: SchedulingMode::Hybrid,
                    max_batch_tokens: 512,
                    max_active: 64,
                    request_rate: 400.0,
                    iteration_period: 0.02,
                });
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(60);
        let total: f64 = engine.history.iter().map(|m| m.iteration_time).sum();
        assert!((engine.sim_time() - total).abs() < 1e-12);
        // sim_time is the cumulative sum, strictly increasing.
        let mut last = 0.0;
        for m in &engine.history {
            assert!(m.sim_time > last);
            last = m.sim_time;
        }
    }

    #[test]
    fn serving_summary_reports_request_latencies() {
        let (topo, table, plan) = fixture();
        // Privacy requests are short (median 384 in / 128 out), so full
        // lifecycles fit in a few hundred decode iterations.
        let config = EngineConfig::new(small_model())
            .with_seed(23)
            .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
            .with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 2000.0,
                iteration_period: 0.02,
            });
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(600);
        let s = engine.serving_summary();
        assert!(s.completed > 0, "no request completed in 300 iterations");
        assert!(s.sim_seconds > 0.0);
        assert!(s.goodput_rps > 0.0);
        assert!(s.ttft_p50 > 0.0);
        assert!(s.ttft_p50 <= s.ttft_p95);
        assert!(s.ttft_p95 <= s.ttft_p99);
        assert!(s.tpot_p50 <= s.tpot_p99);
        assert!(s.e2e_p50 >= s.ttft_p50, "e2e includes TTFT");
        for r in engine.completed_requests() {
            assert!(r.arrival <= r.admitted);
            assert!(r.admitted <= r.first_token);
            assert!(r.first_token <= r.finish);
        }
        // Fixed-batch mode has no request lifecycle.
        let fixed = InferenceEngine::new(&topo, &table, &plan, EngineConfig::new(small_model()));
        assert_eq!(fixed.serving_summary().completed, 0);
    }

    #[test]
    fn streaming_summary_is_exact_within_warmup_and_retains_nothing() {
        let (topo, table, plan) = fixture();
        let base = EngineConfig::new(small_model())
            .with_seed(23)
            .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
            .with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 2.0e4,
                iteration_period: 0.02,
            });
        let mut exact = InferenceEngine::new(&topo, &table, &plan, base.clone());
        let mut streaming = InferenceEngine::new(
            &topo,
            &table,
            &plan,
            base.with_summary(SummaryMode::Streaming),
        );
        exact.run(600);
        streaming.run(600);
        let e = exact.serving_summary();
        let s = streaming.serving_summary();
        assert!(e.completed > 0, "scenario produced no completions");
        assert!(
            e.completed <= P2Quantile::WARMUP,
            "scenario outgrew the warm-up window ({}); lower the rate",
            e.completed
        );
        // Within the warm-up window every percentile is bit-identical.
        assert_eq!(s.completed, e.completed);
        assert_eq!(s.ttft_p50, e.ttft_p50);
        assert_eq!(s.ttft_p95, e.ttft_p95);
        assert_eq!(s.ttft_p99, e.ttft_p99);
        assert_eq!(s.tpot_p50, e.tpot_p50);
        assert_eq!(s.tpot_p99, e.tpot_p99);
        assert_eq!(s.e2e_p50, e.e2e_p50);
        assert_eq!(s.e2e_p99, e.e2e_p99);
        assert_eq!(s.queueing_p50, e.queueing_p50);
        assert_eq!(s.queueing_p99, e.queueing_p99);
        assert_eq!(s.sim_seconds, e.sim_seconds);
        assert_eq!(s.goodput_rps, e.goodput_rps);
        assert_eq!(s.goodput_tokens_per_s, e.goodput_tokens_per_s);
        assert_eq!(s.max_queue_depth, e.max_queue_depth);
        assert_eq!(s.peak_kv_tokens, e.peak_kv_tokens);
        // Occupancy means differ only in summation order.
        assert!((s.mean_queue_depth - e.mean_queue_depth).abs() < 1e-9);
        assert!((s.mean_active_requests - e.mean_active_requests).abs() < 1e-9);
        // And the streaming engine held on to nothing but the last entry.
        assert!(streaming.completed_requests().is_empty());
        assert_eq!(streaming.retained_records(), 1);
        assert!(exact.retained_records() > e.completed);
    }

    #[test]
    fn fast_forward_parks_the_clock_monotonically() {
        let (topo, table, plan) = fixture();
        let config = EngineConfig::new(small_model())
            .with_seed(5)
            .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
            .with_batch(BatchMode::External {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
            });
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.step();
        let t = engine.sim_time();
        engine.fast_forward(t - 1.0); // past: no-op
        assert_eq!(engine.sim_time(), t);
        engine.fast_forward(t + 5.0);
        assert_eq!(engine.sim_time(), t + 5.0);
        // The next priced iteration starts from the jumped clock.
        let m = engine.step().sim_time;
        assert!(m > t + 5.0);
    }

    #[test]
    fn kv_budget_caps_resident_requests() {
        let (topo, table, plan) = fixture();
        // A deliberately starved KV share: admission must throttle and the
        // reservation high-water mark must respect the derived budget.
        let mut config = EngineConfig::new(small_model())
            .with_seed(31)
            .with_workload(WorkloadMix::Fixed(Scenario::Chat))
            .with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 4096,
                request_rate: 5000.0,
                iteration_period: 0.02,
            });
        // ≈2100 KV tokens: room for roughly two median chat requests, so
        // admission throttles while arrivals keep landing.
        config.kv_hbm_fraction = 3e-6;
        let model = config.model.clone();
        let kv_bytes =
            config.kv_hbm_fraction * config.cost.device().hbm_bytes * topo.num_devices() as f64;
        let budget = model.kv_token_capacity(kv_bytes, Precision::Fp16).max(1);
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(100);
        let s = engine.serving_summary();
        assert!(
            s.peak_kv_tokens <= budget,
            "{} > {budget}",
            s.peak_kv_tokens
        );
        assert!(
            s.mean_queue_depth > 0.0,
            "starved budget should leave requests queued"
        );
    }

    #[test]
    fn per_class_summary_gated_on_profile() {
        let (topo, table, plan) = fixture();
        let serving = |profile: WorkloadProfile| {
            let config = EngineConfig::new(small_model())
                .with_seed(23)
                .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
                .with_workload_profile(profile)
                .with_batch(BatchMode::Scheduled {
                    mode: SchedulingMode::Hybrid,
                    max_batch_tokens: 2048,
                    max_active: 128,
                    request_rate: 2000.0,
                    iteration_period: 0.02,
                });
            let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
            engine.run(600);
            engine.serving_summary()
        };
        // The default profile keeps summaries class-free (byte-stability of
        // workload-free scenarios).
        let default = serving(WorkloadProfile::default());
        assert!(default.completed > 0, "scenario produced no completions");
        assert!(default.classes.is_empty());
        assert_eq!(default.shed, 0);
        // A two-tenant profile reports one section per class, and the class
        // sections partition the completions.
        let profile = WorkloadProfile {
            classes: vec![
                moe_workload::ClassSpec::interactive().with_weight(3.0),
                moe_workload::ClassSpec::batch(),
            ],
            ..Default::default()
        };
        let s = serving(profile);
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.classes[0].class, RequestClass::Interactive);
        assert_eq!(s.classes[1].class, RequestClass::Batch);
        let total: usize = s.classes.iter().map(|c| c.completed).sum();
        assert_eq!(total, s.completed);
        assert!(s.classes[0].completed > 0, "interactive share never served");
    }

    #[test]
    fn trace_replay_profile_drives_scheduled_mode() {
        let (topo, table, plan) = fixture();
        let rows: Vec<moe_workload::TraceRequest> = (0..20)
            .map(|i| moe_workload::TraceRequest {
                arrival: 1e-6 * i as f64,
                scenario: Scenario::Privacy,
                input_len: 64,
                output_len: 8,
                class: RequestClass::Interactive,
            })
            .collect();
        let profile = WorkloadProfile {
            arrivals: moe_workload::ArrivalSpec::Trace(rows),
            ..Default::default()
        };
        let config = EngineConfig::new(small_model())
            .with_seed(23)
            .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
            .with_workload_profile(profile)
            .with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 2000.0, // ignored by replay sources
                iteration_period: 0.02,
            });
        let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
        engine.run(600);
        let s = engine.serving_summary();
        assert_eq!(s.completed, 20, "every trace row served exactly once");
        assert_eq!(s.admission_rejects, 0);
    }

    #[test]
    fn validate_reports_exact_variants() {
        use crate::config::ConfigError;
        let base = || EngineConfig::new(small_model());
        assert_eq!(base().validate(), Ok(()));

        let mut c = base();
        c.comm_layer_stride = 0;
        assert_eq!(c.validate(), Err(ConfigError::CommLayerStrideZero));

        let mut c = base();
        c.pipeline_microbatches = 0;
        assert_eq!(c.validate(), Err(ConfigError::PipelineMicrobatchesZero));

        let mut c = base();
        c.kv_hbm_fraction = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::KvHbmFractionOutOfRange { value: 0.0 })
        );
        c.kv_hbm_fraction = 1.5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::KvHbmFractionOutOfRange { value: 1.5 })
        );

        let mut c = base();
        c.load_ema = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::LoadEmaOutOfRange { value: 0.0 })
        );
        c.load_ema = 1.25;
        assert_eq!(
            c.validate(),
            Err(ConfigError::LoadEmaOutOfRange { value: 1.25 })
        );

        let c = base().with_cache_entries(0);
        assert_eq!(c.validate(), Err(ConfigError::CacheEntriesZero));

        let mut c = base();
        for value in [0.0, -1.0] {
            c.cold_bandwidth = value;
            assert_eq!(
                c.validate(),
                Err(ConfigError::ColdBandwidthNotPositive { value })
            );
        }

        // The threshold is alpha × sparse layers: 1e308 is finite alone
        // but overflows times the layer count.
        let mut c = base();
        assert!(c.model.num_sparse_layers > 1);
        for value in [-1.0, 1e308, f64::INFINITY] {
            c.trigger_alpha_per_layer = value;
            assert_eq!(
                c.validate(),
                Err(ConfigError::TriggerAlphaOutOfRange { value })
            );
        }
        c.trigger_alpha_per_layer = 0.0;
        assert_eq!(c.validate(), Ok(()));

        let mut c = base();
        c.model.experts_per_token = c.model.num_experts + 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TopKOutOfRange {
                experts_per_token: c.model.num_experts + 1,
                num_experts: c.model.num_experts,
            })
        );
        c.model.experts_per_token = c.model.num_experts;
        assert_eq!(c.validate(), Ok(()));
        c.model.num_experts = 0;
        c.model.experts_per_token = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TopKOutOfRange {
                experts_per_token: 0,
                num_experts: 0,
            })
        );

        // No sparse layer: nothing to sample.
        let mut c = base();
        c.model.num_sparse_layers = 0;
        assert_eq!(c.validate(), Err(ConfigError::SparseLayersZero));

        // Layers × experts at the ceiling passes; one layer more fails,
        // and so does a 4e9-expert model.
        let mut c = base();
        c.model.num_sparse_layers = 1024;
        c.model.num_experts = (MAX_EXPERT_SLOTS / 1024) as u32;
        assert_eq!(c.validate(), Ok(()));
        c.model.num_sparse_layers = 1025;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyExpertSlots {
                slots: MAX_EXPERT_SLOTS + 1024,
                max: MAX_EXPERT_SLOTS,
            })
        );
        let mut c = base();
        c.model.num_experts = 4_000_000_000;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyExpertSlots {
                slots: u64::from(c.model.num_sparse_layers) * 4_000_000_000,
                max: MAX_EXPERT_SLOTS,
            })
        );
        // Every preset sits far below the ceiling.
        for model in ModelConfig::evaluation_suite() {
            let slots = u64::from(model.num_sparse_layers) * u64::from(model.num_experts);
            assert!(slots * 64 < MAX_EXPERT_SLOTS, "{}", model.name);
        }

        // A group's largest batch times top-k must fit the sampler's u32
        // trial count: exactly u32::MAX passes, one token more fails.
        let top_k = base().model.experts_per_token;
        let fixed = |tokens_per_group| {
            base().with_batch(BatchMode::Fixed {
                tokens_per_group,
                avg_context: 1.0,
                phase: InferencePhase::Decode,
            })
        };
        assert_eq!(top_k, 2);
        assert_eq!(fixed(u32::MAX / 2).validate(), Ok(()));
        assert_eq!(
            fixed(u32::MAX / 2 + 1).validate(),
            Err(ConfigError::BatchTokensOutOfRange {
                tokens: u64::from(u32::MAX / 2 + 1),
                experts_per_token: 2,
            })
        );
        let serving = base().with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: u32::MAX / 2,
            max_active: 1,
        });
        assert_eq!(
            serving.validate(),
            Err(ConfigError::BatchTokensOutOfRange {
                tokens: u64::from(u32::MAX / 2) + 1,
                experts_per_token: 2,
            })
        );

        // Zero batch budgets and a non-positive iteration period.
        assert_eq!(
            fixed(0).validate(),
            Err(ConfigError::BatchBudgetZero {
                field: "tokens_per_group"
            })
        );

        // A fixed batch's context must be finite and non-negative; an
        // empty context is fine.
        let context = |avg_context| {
            base().with_batch(BatchMode::Fixed {
                tokens_per_group: 8,
                avg_context,
                phase: InferencePhase::Decode,
            })
        };
        assert_eq!(context(0.0).validate(), Ok(()));
        for value in [-1.0, -1e-300, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                context(value).validate(),
                Err(ConfigError::AvgContextOutOfRange { value })
            );
        }
        assert!(matches!(
            context(f64::NAN).validate(),
            Err(ConfigError::AvgContextOutOfRange { value }) if value.is_nan()
        ));
        let scheduled = |max_batch_tokens, max_active, iteration_period| {
            base().with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens,
                max_active,
                request_rate: 100.0,
                iteration_period,
            })
        };
        assert_eq!(scheduled(64, 8, 0.02).validate(), Ok(()));
        assert_eq!(
            scheduled(0, 8, 0.02).validate(),
            Err(ConfigError::BatchBudgetZero {
                field: "max_batch_tokens"
            })
        );
        assert_eq!(
            scheduled(64, 0, 0.02).validate(),
            Err(ConfigError::BatchBudgetZero {
                field: "max_active"
            })
        );
        for value in [0.0, -1.0] {
            assert_eq!(
                scheduled(64, 8, value).validate(),
                Err(ConfigError::IterationPeriodNotPositive { value })
            );
        }
        let external = base().with_batch(BatchMode::External {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 64,
            max_active: 0,
        });
        assert_eq!(
            external.validate(),
            Err(ConfigError::BatchBudgetZero {
                field: "max_active"
            })
        );
    }

    #[test]
    fn try_new_surfaces_validation_and_new_panics() {
        use crate::config::ConfigError;
        let (topo, table, plan) = fixture();
        let mut config = EngineConfig::new(small_model());
        config.comm_layer_stride = 0;
        let err = InferenceEngine::try_new(&topo, &table, &plan, config).err();
        assert_eq!(err, Some(ConfigError::CommLayerStrideZero));
    }

    #[test]
    #[should_panic(expected = "stride must be ≥ 1")]
    fn new_panics_on_zero_stride() {
        let (topo, table, plan) = fixture();
        let mut config = EngineConfig::new(small_model());
        config.comm_layer_stride = 0;
        let _ = InferenceEngine::new(&topo, &table, &plan, config);
    }

    #[test]
    fn cache_entries_knob_reaches_backend() {
        let (topo, table, plan) = fixture();
        // A 1-entry cache still prices correctly (bit-identity contract is
        // capacity-independent), proving the knob is threaded through.
        let run = |entries: usize| {
            let config = EngineConfig::new(small_model())
                .with_seed(9)
                .with_backend(CongestionBackend::FlowSimCached)
                .with_cache_entries(entries);
            InferenceEngine::new(&topo, &table, &plan, config).run(3)
        };
        let tiny = run(1);
        let default = run(wsc_sim::DEFAULT_CACHE_ENTRIES);
        assert_eq!(tiny.mean_iteration_time, default.mean_iteration_time);
        assert_eq!(tiny.mean_all_to_all, default.mean_all_to_all);
    }
}
