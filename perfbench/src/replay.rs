//! Replays of a priced step through the layers' public functions.
//!
//! The engine's step is one call; its phases are private. After a step the
//! benchmark reads the step's batch shape (`history.last()`) and expert
//! placement (`placements()`), then calls the same public functions the
//! step calls — gating sampling, all-to-all pricing, expert compute,
//! balancer planning, migration progress — on shadow state of its own, and
//! times each call. Batch formation and the serving close are replayed on
//! a shadow `BatchScheduler` that every step advances; fleet-level layers
//! (routing, KV hand-off pricing) are replayed on shadow routers and
//! transfer models. The engine's simulated results are never touched.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use moentwine::core::balancer::{
    cumulative_imbalance, BalanceContext, Balancer, BalancerKind, GreedyBalancer,
    TopologyAwareBalancer, Trigger,
};
use moentwine::core::comm::{A2aModel, ParallelLayout};
use moentwine::core::engine::{BatchMode, EngineConfig, InferenceEngine};
use moentwine::core::fleet::ReplicaRole;
use moentwine::core::migration::{enqueue_replications, MigrationEngine, MigrationPhase};
use moentwine::model::{ModelConfig, Precision};
use moentwine::sim::{
    CacheStats, CachedBackend, CongestionBackend, CongestionModel, FlowSimBackend,
};
use moentwine::topology::{DeviceId, RouteTable, Topology};
use moentwine::workload::{
    BatchScheduler, ClassPolicy, Decision, ReplicaSnapshot, RequestGenerator, RequestId, Router,
    SchedulingMode, TraceGenerator,
};

use crate::stats::{ns_since, Samples};

/// Per-layer call timings gathered by the replays.
#[derive(Default)]
pub struct LayerTimes {
    /// `TraceGenerator::next_iteration`.
    pub trace: Samples,
    /// `A2aModel::estimate_with` on the analytic tier.
    pub comm: Samples,
    /// `A2aModel::estimate_with` on a flow-level DES tier.
    pub wsc_sim: Samples,
    /// `CostModel::moe_device_time`, per call.
    pub roofline: Samples,
    /// `BatchScheduler::next_batch_at`.
    pub next_batch: Samples,
    /// `BatchScheduler::finish_iteration` plus `drain_completed`.
    pub finish: Samples,
    /// `Balancer::plan_layer`.
    pub plan: Samples,
    /// `MigrationEngine::advance` (local and global phase of one layer).
    pub advance: Samples,
    /// `Router::route_decision`.
    pub route: Samples,
    /// Decisions that multicast speculative copies.
    pub multicast: u64,
    /// KV hand-off pricing: stripe building plus `CongestionModel::price_pairs`.
    pub handoff: Samples,
}

/// The replayed pricing tier: the cached DES tier is held concretely so
/// its hit and miss counters can be read.
enum Pricing<'a> {
    Cached(CachedBackend<'a>),
    Plain(Box<dyn CongestionModel + 'a>),
}

/// Shadow of one platform's all-to-all pricing.
pub struct PlatformReplay<'a> {
    topo: &'a Topology,
    table: &'a RouteTable,
    layout: &'a dyn ParallelLayout,
    a2a: A2aModel<'a>,
    pricing: Pricing<'a>,
}

impl<'a> PlatformReplay<'a> {
    /// A shadow pricing stack for `backend` on one platform.
    pub fn new(
        topo: &'a Topology,
        table: &'a RouteTable,
        layout: &'a dyn ParallelLayout,
        backend: CongestionBackend,
        cache_entries: usize,
    ) -> Self {
        let pricing = match backend {
            CongestionBackend::FlowSimCached => {
                Pricing::Cached(CachedBackend::with_capacity_limit(
                    Box::new(FlowSimBackend::new(topo)),
                    cache_entries,
                ))
            }
            other => Pricing::Plain(other.build(topo)),
        };
        PlatformReplay {
            topo,
            table,
            layout,
            a2a: A2aModel::new(topo, table, layout),
            pricing,
        }
    }

    fn model(&self) -> &dyn CongestionModel {
        match &self.pricing {
            Pricing::Cached(c) => c,
            Pricing::Plain(m) => m.as_ref(),
        }
    }

    /// Whether this platform prices on a flow-level DES tier.
    fn des(&self) -> bool {
        self.model().name() != CongestionBackend::Analytic.name()
    }

    /// Hit and miss counters of the cached tier.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.pricing {
            Pricing::Cached(c) => Some(c.cache_stats()),
            Pricing::Plain(_) => None,
        }
    }
}

/// Shadow balancer state: historical loads, the Eq. 2 trigger, and the
/// cold-link migration queue.
struct BalanceReplay {
    balancer: Box<dyn Balancer>,
    trigger: Trigger,
    migration: Option<MigrationEngine>,
    loads: Vec<Vec<f64>>,
}

/// Shadow of one replica's step layers.
pub struct StepReplay {
    /// Index of the platform the replica runs on.
    pub platform: usize,
    trace: TraceGenerator,
    scheduler: BatchScheduler,
    /// Requests offered to the shadow scheduler, newest last.
    offered: VecDeque<RequestId>,
    balance: Option<BalanceReplay>,
    iteration: u64,
}

/// `(mode, max_batch_tokens, max_active, request_rate, iteration_period)`
/// of a serving batch mode.
fn serving_shape(config: &EngineConfig) -> (SchedulingMode, u32, usize, f64, f64) {
    match config.batch {
        BatchMode::Scheduled {
            mode,
            max_batch_tokens,
            max_active,
            request_rate,
            iteration_period,
        } => (
            mode,
            max_batch_tokens,
            max_active,
            request_rate,
            iteration_period,
        ),
        BatchMode::External {
            mode,
            max_batch_tokens,
            max_active,
        } => (mode, max_batch_tokens, max_active, 0.0, 1.0),
        BatchMode::Fixed { .. } => unreachable!("benchmark workloads serve requests"),
    }
}

impl StepReplay {
    /// A shadow of the standalone engine `engine` built from `config`. Its
    /// scheduler draws the engine's own arrival stream (same seeds), so
    /// batch formation and the serving close are replayed exactly.
    pub fn for_engine(
        config: &EngineConfig,
        engine: &InferenceEngine<'_>,
        platform: &PlatformReplay<'_>,
    ) -> Result<Self, String> {
        let (mode, tokens, active, rate, period) = serving_shape(config);
        let generator = RequestGenerator::try_from_profile(
            &config.workload_profile,
            rate,
            config.workload.weights(0),
            config.seed ^ 0x5EED,
            config.seed ^ 0xFEED,
        )
        .map_err(|e| e.to_string())?;
        let budget = engine
            .replica_snapshot()
            .map_or(u64::MAX, |s| s.kv_budget_tokens);
        let scheduler = BatchScheduler::new(mode, tokens, active, period, generator)
            .with_kv_budget(budget)
            .with_class_policy(ClassPolicy::from_classes(&config.workload_profile.classes));
        Ok(Self::with_scheduler(
            config,
            0,
            config.seed,
            scheduler,
            platform,
        ))
    }

    /// A shadow of fleet replica `engine` (running on `platform_index`).
    /// Its scheduler is externally fed, like the replica's; the benchmark
    /// offers it as many requests as the router sent the replica.
    pub fn for_replica(
        config: &EngineConfig,
        engine: &InferenceEngine<'_>,
        platform_index: usize,
        platform: &PlatformReplay<'_>,
        seed: u64,
    ) -> Self {
        let (_, tokens, active, _, _) = serving_shape(config);
        let snap = engine.replica_snapshot().expect("fleet replicas serve");
        let scheduler = BatchScheduler::external(snap.mode, tokens, active)
            .with_kv_budget(snap.kv_budget_tokens)
            .with_class_policy(ClassPolicy::from_classes(&config.workload_profile.classes));
        Self::with_scheduler(config, platform_index, seed, scheduler, platform)
    }

    fn with_scheduler(
        config: &EngineConfig,
        platform_index: usize,
        seed: u64,
        scheduler: BatchScheduler,
        platform: &PlatformReplay<'_>,
    ) -> Self {
        let model = &config.model;
        let trace = TraceGenerator::new(
            model,
            config.workload.clone(),
            platform.a2a.num_groups(),
            256,
            seed,
        );
        let trace = if config.uniform_gating {
            trace.with_uniform_gating()
        } else {
            trace
        };
        let layers = model.num_sparse_layers as usize;
        let balancer: Option<Box<dyn Balancer>> = match config.balancer {
            BalancerKind::None => None,
            BalancerKind::Greedy => {
                Some(Box::new(GreedyBalancer::new(config.max_actions_per_layer)))
            }
            BalancerKind::TopologyAware | BalancerKind::NonInvasive => Some(Box::new(
                TopologyAwareBalancer::new(config.max_actions_per_layer),
            )),
        };
        let balance = balancer.map(|balancer| {
            let non_invasive = config.balancer == BalancerKind::NonInvasive;
            let beta = if non_invasive { 0 } else { config.trigger_beta };
            let mut migration = MigrationEngine::new(config.cold_bandwidth);
            if platform.layout.ftd_of_device(DeviceId(0)).is_none() {
                migration = migration.phase_agnostic();
            }
            BalanceReplay {
                balancer,
                trigger: Trigger::new(config.trigger_alpha_per_layer * layers as f64, beta),
                migration: non_invasive.then_some(migration),
                loads: vec![vec![0.0; model.num_experts as usize]; layers],
            }
        });
        StepReplay {
            platform: platform_index,
            trace,
            scheduler,
            offered: VecDeque::new(),
            balance,
            iteration: 0,
        }
    }

    /// Offers `count` requests from `source`, stamped at `now` (a fleet
    /// replica's share of the round's routed requests).
    pub fn offer(&mut self, source: &mut RequestGenerator, count: u64, now: f64) {
        for _ in 0..count {
            let Some(mut request) = source.next_request() else {
                return;
            };
            request.arrival = now;
            self.offered.push_back(request.id);
            self.scheduler.offer(request);
        }
    }

    /// Replays batch formation at `start` and the serving close at `end`.
    pub fn schedule(&mut self, start: f64, end: f64, times: &mut LayerTimes) {
        black_box(
            times
                .next_batch
                .time(|| self.scheduler.next_batch_at(start)),
        );
        times.finish.time(|| {
            self.scheduler.finish_iteration(end);
            black_box(self.scheduler.drain_completed());
        });
    }

    /// Cancels the newest shadow requests until the shadow holds no more
    /// work than the replica (`real`). Speculative losers and work the
    /// shadow drew longer than the replica's would otherwise pile up.
    pub fn match_occupancy(&mut self, real: &ReplicaSnapshot) {
        let target = real.queue_depth + real.active;
        let held = |s: &BatchScheduler| s.queue().queue_depth() + s.queue().num_active();
        while held(&self.scheduler) > target {
            let Some(id) = self.offered.pop_back() else {
                break;
            };
            self.scheduler.cancel_request(id);
        }
        // Ids of completed requests are dead weight; keep the deque short.
        while self.offered.len() > 4 * (target + 1) {
            self.offered.pop_front();
        }
    }

    /// Replays the step `engine` just priced: gating on its batch shape,
    /// all-to-all pricing and expert compute on its placement, and the
    /// balancer and migration queue when the engine balances.
    pub fn replay_layers(
        &mut self,
        engine: &InferenceEngine<'_>,
        platform: &PlatformReplay<'_>,
        times: &mut LayerTimes,
    ) {
        let config = engine.config();
        let model: &ModelConfig = &config.model;
        let metrics = engine.history.last().expect("the engine just stepped");
        let tokens = metrics.tokens_per_group;
        let token_bytes = model.token_bytes(Precision::Fp16);
        self.trace.set_tokens_per_group(tokens);
        let trace = times.trace.time(|| self.trace.next_iteration());
        let placements = engine.placements();
        let layers = trace.layers.len() as f64;
        let overlap = |compute: f64, comm: f64| {
            compute.max(comm) + compute.min(comm) / config.pipeline_microbatches as f64
        };
        let attn_phase = overlap(
            metrics.attention_compute / layers,
            metrics.all_reduce / layers,
        );
        let moe_phase = overlap(
            metrics.moe_compute / layers,
            (metrics.dispatch + metrics.combine) / layers,
        );
        let mut device_loads = Vec::with_capacity(trace.layers.len());
        for (l, gating) in trace.layers.iter().enumerate() {
            let pricing = if platform.des() {
                &mut times.wsc_sim
            } else {
                &mut times.comm
            };
            let est = pricing.time(|| {
                platform.a2a.estimate_with(
                    platform.model(),
                    gating,
                    &placements[l],
                    token_bytes,
                    tokens,
                )
            });
            let devices = est.device_tokens.len();
            let start = Instant::now();
            for d in 0..devices {
                black_box(config.cost.moe_device_time(
                    model,
                    est.device_tokens[d],
                    est.device_active_experts[d],
                ));
            }
            times.roofline.push_batch(ns_since(start), devices);
            if let Some(b) = self.balance.as_mut() {
                let ema = config.load_ema;
                for (slot, &t) in b.loads[l].iter_mut().zip(&gating.expert_totals()) {
                    *slot = (1.0 - ema) * *slot + ema * t as f64;
                }
                device_loads.push(placements[l].device_loads(&b.loads[l]));
                if let Some(migration) = b.migration.as_mut() {
                    times.advance.time(|| {
                        black_box(migration.advance(MigrationPhase::Local, attn_phase));
                        black_box(migration.advance(MigrationPhase::Global, moe_phase));
                    });
                }
            }
        }
        if let Some(b) = self.balance.as_mut() {
            let imbalance = cumulative_imbalance(device_loads.iter().map(Vec::as_slice));
            if b.trigger.should_balance(self.iteration, imbalance) {
                let expert_bytes = model.expert_bytes(config.cost.linear_precision);
                for (l, placement) in placements.iter().enumerate() {
                    let actions = times.plan.time(|| {
                        b.balancer.plan_layer(&BalanceContext {
                            layer: l,
                            expert_loads: &b.loads[l],
                            placement,
                            table: platform.table,
                        })
                    });
                    if let Some(migration) = b.migration.as_mut() {
                        enqueue_replications(
                            migration,
                            platform.topo,
                            platform.table,
                            platform.layout,
                            &actions,
                            expert_bytes,
                        );
                    }
                }
            }
        }
        self.iteration += 1;
    }
}

/// Shadow of the fleet front end: a router with the fleet's policy making
/// as many decisions per replayed round as the fleet's router did.
pub struct RouterReplay {
    router: Router,
    source: RequestGenerator,
}

impl RouterReplay {
    /// A router replay over `router`'s policy, drawing requests from
    /// `source`.
    pub fn new(router: &Router, source: RequestGenerator) -> Self {
        RouterReplay {
            router: Router::new(router.policy(), router.num_replicas(), 0x0A5E_11A3),
            source,
        }
    }

    /// Replays one round: per tier (arrivals to prefill-capable replicas,
    /// hand-offs to decode replicas), decisions on the round's starting
    /// snapshots until the shadow routed as many copies as the fleet did.
    pub fn replay_round(
        &mut self,
        snapshots: &[ReplicaSnapshot],
        roles: &[ReplicaRole],
        routed_before: &[u64],
        routed_after: &[u64],
        times: &mut LayerTimes,
    ) {
        // A colocated fleet routes every arrival among all replicas; a
        // disaggregated one routes arrivals to the prefill tier and
        // hand-offs to the decode tier.
        let tiers: Vec<Vec<bool>> = if roles.iter().all(|&r| r == ReplicaRole::Colocated) {
            vec![vec![true; roles.len()]]
        } else {
            vec![
                roles.iter().map(|r| r.prefill_capable()).collect(),
                roles.iter().map(|&r| r == ReplicaRole::Decode).collect(),
            ]
        };
        let mut snaps = snapshots.to_vec();
        for mask in tiers {
            let target: u64 = (0..mask.len())
                .filter(|&i| mask[i])
                .map(|i| routed_after[i] - routed_before[i])
                .sum();
            let mut routed = 0u64;
            let mut attempts = 0u64;
            while routed < target && attempts < target + 16 {
                attempts += 1;
                let Some(request) = self.source.next_request() else {
                    return;
                };
                let decision = times
                    .route
                    .time(|| self.router.route_decision(&request, &snaps, &mask));
                let targets = match decision {
                    Decision::Unicast(i) => vec![i],
                    Decision::Speculative(ts) => {
                        times.multicast += 1;
                        ts
                    }
                    Decision::Shed => Vec::new(),
                };
                for t in targets {
                    snaps[t].queue_depth += 1;
                    routed += 1;
                }
            }
        }
    }
}

/// Shadow of the fleet's KV hand-off pricing: the template backend on the
/// prefill platform, with transfers striped across `devices / 2` pairs.
pub struct HandoffReplay<'a> {
    model: Box<dyn CongestionModel + 'a>,
    table: &'a RouteTable,
    devices: usize,
    bytes_per_token: f64,
}

impl<'a> HandoffReplay<'a> {
    /// Hand-off pricing for a fleet whose prefill platform is `topo`.
    pub fn new(
        topo: &'a Topology,
        table: &'a RouteTable,
        backend: CongestionBackend,
        model: &ModelConfig,
    ) -> Self {
        HandoffReplay {
            model: backend.build(topo),
            table,
            devices: topo.num_devices(),
            bytes_per_token: model.kv_bytes_per_token_all_layers(Precision::Fp16),
        }
    }

    /// Prices the hand-offs prefill replica `engine` emitted in its last
    /// step (its newest retained completion records).
    pub fn replay_step(&self, engine: &InferenceEngine<'_>, times: &mut LayerTimes) {
        let fresh = engine.history.last().map_or(0, |m| m.requests_completed) as usize;
        let records = engine.completed_requests();
        for r in &records[records.len().saturating_sub(fresh)..] {
            times.handoff.time(|| {
                let bytes = self.bytes_per_token * f64::from(r.prefill_scheduled);
                let half = (self.devices / 2).max(1);
                let pairs: Vec<(DeviceId, DeviceId, f64)> = (0..half)
                    .map(|i| {
                        (
                            DeviceId(i as u32),
                            DeviceId((self.devices - 1 - i) as u32),
                            bytes / half as f64,
                        )
                    })
                    .collect();
                black_box(self.model.price_pairs(self.table, &pairs))
            });
        }
    }
}

/// A request source for the shadows: the spec's arrival profile at
/// `rate`, on seeds of its own.
pub fn request_source(
    config: &EngineConfig,
    rate: f64,
    salt: u64,
) -> Result<RequestGenerator, String> {
    RequestGenerator::try_from_profile(
        &config.workload_profile,
        rate,
        config.workload.weights(0),
        config.seed ^ salt,
        config.seed ^ salt.rotate_left(17),
    )
    .map_err(|e| e.to_string())
}
