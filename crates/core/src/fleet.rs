//! Fleet-level serving: N replica engines behind a front-end router.
//!
//! The ROADMAP north star is heavy traffic from millions of users, which in
//! practice means scale-*out*: a fleet of wafer (or multi-wafer pod)
//! replicas, each running its own continuous-batching
//! [`InferenceEngine`], behind a router that owns the global arrival
//! stream. [`Fleet`] models exactly that deployment shape (see DESIGN.md
//! §8):
//!
//! * **Replicas** are homogeneous engines sharing one immutable
//!   [`Topology`] / [`RouteTable`] / [`ParallelLayout`] by reference —
//!   single-wafer meshes and `wsc_topology::MultiWafer` pods both work —
//!   each in [`BatchMode::External`] with its own seed-split RNG streams
//!   and (optionally) its own congestion-pricing backend.
//! * **The router** ([`moe_workload::Router`]) dispatches every arrival to
//!   a replica's serving queue under a pluggable
//!   [`RouterPolicy`].
//! * **The clock** advances in lock-step rounds ([`Fleet::run`]) or, for a
//!   time-horizon run, in one event loop ([`Fleet::run_until`]).
//!   Round-driven stepping routes all arrivals up to the fleet clock (the
//!   *minimum* of the replicas' simulated times, so no replica is ever fed
//!   an arrival from its own future), then every replica executes exactly
//!   one iteration. Between synchronization points replicas share no
//!   mutable state, so the per-replica steps can run on worker threads —
//!   [`Fleet::run_with`] takes any [`ReplicaPool`] — and the result is
//!   byte-identical to serial stepping by construction: routing is serial
//!   at the barrier, and each engine's iteration is a pure function of its
//!   own state. After every step the fleet drains the replica's staged
//!   completions through one channel: a racing speculative copy is held
//!   back, a prefill record becomes a KV hand-off, and any other record
//!   completes end to end.
//! * **Routing** reads one live replica view — every replica's snapshot
//!   plus its arrival and hand-off eligibility — that the fleet updates
//!   wherever a queue or a lifecycle state changes. Both drives route
//!   through one step that takes the earlier of the next hand-off and the
//!   next arrival.
//! * **Time-horizon runs** ([`Fleet::run_until`]) advance each replica
//!   only when it has work: idle replicas *park* (no phantom iterations)
//!   and are woken by the next routed arrival. A round loop to the same
//!   horizon would price an idle iteration on every drained replica every
//!   round. See DESIGN.md §10 for the heap invariants and the
//!   determinism / tie-break contract.
//!
//! [`Fleet::summary`] reports per-replica and aggregate
//! [`ServingSummary`]s plus the load-imbalance ratios a capacity planner
//! reads ("how many wafers for this arrival rate at p99 TTFT ≤ X?").

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use moe_workload::{
    CopyStatus, Decision, ReplicaSnapshot, Request, RequestGenerator, RequestRecord, Router,
    RouterPolicy, SchedulingMode,
};
use wsc_sim::{CongestionBackend, CongestionModel};
use wsc_topology::{DeviceId, RouteTable, Topology};

use crate::comm::ParallelLayout;
use crate::config::ConfigError;
use crate::engine::{
    BatchMode, EngineConfig, InferenceEngine, ServingSummary, StreamingSummary, SummaryMode,
};

/// Executes a batch of independent replica-step jobs. The contract is
/// *completion*, not order: when [`ReplicaPool::run`] returns, every job
/// has run exactly once. Jobs touch disjoint state (one engine each), so
/// any execution order — serial, or spread over a worker pool like
/// `moentwine_bench::perf::pool::WorkerPool` — produces identical fleet
/// state.
pub trait ReplicaPool {
    /// Runs every job to completion.
    fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>);
}

/// The trivial in-thread executor: runs jobs in replica order.
#[derive(Copy, Clone, Debug, Default)]
pub struct SerialReplicaPool;

impl ReplicaPool for SerialReplicaPool {
    fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
        for job in jobs {
            job();
        }
    }
}

/// SplitMix64 stream splitting: replica `stream` of master seed `master`.
/// Each replica's engine (gating trace, request-length draws) gets an
/// independent, reproducible stream; the arrival process and router draw
/// from further streams of the same master.
fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serving role of one fleet replica (DESIGN.md §13). The default
/// [`ReplicaRole::Colocated`] runs prefill and decode on the same engine —
/// the pre-disaggregation fleet, byte-identical to fleets that never
/// mention roles. `Prefill`/`Decode` split the phases
/// Mooncake/DistServe-style: arrivals route to prefill-capable replicas
/// only, and every finished prefill hands its KV footprint to a
/// decode-capable replica over a transfer priced through the congestion
/// model before it joins that replica's continuous-batching queue.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReplicaRole {
    /// Prefill and decode on the same replica (the default).
    #[default]
    Colocated,
    /// Prefill-only: completes at KV hand-off, serves no decode.
    Prefill,
    /// Decode-only: admits hand-offs with their prefill already done
    /// (KV admission still reserves input + output tokens).
    Decode,
}

impl ReplicaRole {
    /// Stable lowercase name (`"colocated"` / `"prefill"` / `"decode"`),
    /// matching the `FromStr` spelling and the scenario-spec JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaRole::Colocated => "colocated",
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
        }
    }

    /// Whether arrivals (fresh or re-routed) may be dispatched here.
    pub fn prefill_capable(self) -> bool {
        matches!(self, ReplicaRole::Colocated | ReplicaRole::Prefill)
    }

    /// Whether KV hand-offs may be delivered here.
    pub fn decode_capable(self) -> bool {
        matches!(self, ReplicaRole::Colocated | ReplicaRole::Decode)
    }
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ReplicaRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "colocated" => Ok(ReplicaRole::Colocated),
            "prefill" => Ok(ReplicaRole::Prefill),
            "decode" => Ok(ReplicaRole::Decode),
            other => Err(format!(
                "unknown replica role {other:?} (expected \"colocated\", \"prefill\", or \"decode\")"
            )),
        }
    }
}

/// The immutable platform a replica engine borrows: topology, routes, and
/// parallel layout. Disaggregated fleets carry one of these per role so
/// prefill pods and decode replicas can run on heterogeneous hardware
/// (e.g. multi-wafer prefill + DGX decode); see
/// [`Fleet::try_new_disaggregated`].
#[derive(Copy, Clone)]
pub struct PlatformRefs<'a> {
    /// Device topology.
    pub topo: &'a Topology,
    /// Precomputed routes over `topo`.
    pub table: &'a RouteTable,
    /// Expert/parallelism placement on `topo`.
    pub layout: &'a dyn ParallelLayout,
}

/// What a [`FleetEvent`] does to the fleet when it fires.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum FleetEventKind {
    /// Add `count` fresh replicas (fast-forwarded to the event time, seeded
    /// from the next replica streams of the master seed).
    ScaleUp {
        /// Replicas to add (≥ 1).
        count: usize,
    },
    /// Graceful drain: `replica` stops admitting, its waiting requests
    /// re-route through the router, and its in-flight prefill/decode runs
    /// to completion; the replica retires once empty.
    Drain {
        /// Replica to drain (must be active).
        replica: usize,
    },
    /// Hard failure: `replica`'s waiting *and* resident requests re-route
    /// fleet-wide; resident requests lose their progress and replay their
    /// prefill on the re-admitting replica (counted as interruptions).
    Crash {
        /// Replica to crash (must be active or draining).
        replica: usize,
    },
    /// Return a failed `replica` to service with an empty queue.
    Recover {
        /// Replica to recover (must be failed).
        replica: usize,
    },
}

impl FleetEventKind {
    /// Stable lowercase name (`"scale-up"` / `"drain"` / `"crash"` /
    /// `"recover"`), matching the scenario-spec JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            FleetEventKind::ScaleUp { .. } => "scale-up",
            FleetEventKind::Drain { .. } => "drain",
            FleetEventKind::Crash { .. } => "crash",
            FleetEventKind::Recover { .. } => "recover",
        }
    }
}

/// One entry of a fleet elasticity/failure timeline: `kind` fires at
/// simulated time `time`. Round-driven runs apply an event at the first
/// synchronization barrier whose fleet clock has reached it; the event
/// loop of [`Fleet::run_until`] applies it at exactly `time`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FleetEvent {
    /// Simulated firing time, seconds (timeline must be sorted).
    pub time: f64,
    /// What happens.
    pub kind: FleetEventKind,
}

/// Lifecycle state of one fleet replica (DESIGN.md §11):
/// `Active → Draining → Retired` on drain, `Active → Failed → Active` on
/// crash + recover.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReplicaState {
    /// Serving and admitting new requests.
    Active,
    /// Finishing in-flight work; admits nothing new.
    Draining,
    /// Drained to empty; prices no further iterations.
    Retired,
    /// Crashed; prices no iterations until recovered.
    Failed,
}

impl ReplicaState {
    /// Whether the router may dispatch new work here.
    pub fn admits(self) -> bool {
        matches!(self, ReplicaState::Active)
    }

    /// Whether the replica still prices iterations.
    pub fn steppable(self) -> bool {
        matches!(self, ReplicaState::Active | ReplicaState::Draining)
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaState::Active => "active",
            ReplicaState::Draining => "draining",
            ReplicaState::Retired => "retired",
            ReplicaState::Failed => "failed",
        }
    }
}

/// The most replicas a fleet may ever hold, counting every scale-up in its
/// timeline: 64× the largest shipped fleet (`mega_fleet`, 64 replicas).
/// Each replica owns a whole engine, so a larger count is a typo or a
/// hostile input, not a deployment; it is rejected as
/// [`ConfigError::TooManyReplicas`] before anything is allocated for it.
pub const MAX_REPLICAS: usize = 4096;

/// Checks that `replicas` plus every scale-up in `events` stays within
/// [`MAX_REPLICAS`]. Allocates nothing, so callers run it before sizing any
/// per-replica state; [`validate_fleet_events_for_roles`] and
/// [`validate_fleet_shape`] both do.
///
/// # Errors
///
/// [`ConfigError::TooManyReplicas`] with the fleet's peak size.
pub fn validate_replica_count(replicas: usize, events: &[FleetEvent]) -> Result<(), ConfigError> {
    let peak = events.iter().fold(replicas, |n, e| match e.kind {
        FleetEventKind::ScaleUp { count } => n.saturating_add(count),
        _ => n,
    });
    if peak > MAX_REPLICAS {
        return Err(ConfigError::TooManyReplicas {
            replicas: peak,
            max: MAX_REPLICAS,
        });
    }
    Ok(())
}

/// Validates a fleet's shape: the replica ceiling (first, before anything
/// is sized by the count), the router policy, the role list, and the
/// elasticity timeline under the resolved roles. `decode_platform` says
/// whether a separate decode-tier platform is configured. Shared by
/// [`Fleet::try_new_disaggregated`] and the `moentwine-spec` fleet spec,
/// so a bad shape fails with the same typed [`ConfigError`] at parse,
/// build, and construction time. Returns the per-replica roles, an empty
/// `roles` resolved to every replica [`ReplicaRole::Colocated`].
///
/// # Errors
///
/// The first violated of, in this order:
/// [`ConfigError::TooManyReplicas`],
/// [`ConfigError::SpeculativeFanOutZero`],
/// [`ConfigError::FleetRolesLengthMismatch`],
/// [`ConfigError::FleetNoPrefillCapacity`],
/// [`ConfigError::FleetNoDecodeCapacity`],
/// [`ConfigError::FleetDecodePlatformUnused`], and the timeline errors of
/// [`validate_fleet_events_for_roles`].
pub fn validate_fleet_shape(
    replicas: usize,
    policy: RouterPolicy,
    roles: &[ReplicaRole],
    events: &[FleetEvent],
    decode_platform: bool,
) -> Result<Vec<ReplicaRole>, ConfigError> {
    validate_replica_count(replicas, events)?;
    if policy == (RouterPolicy::Speculative { k: 0 }) {
        return Err(ConfigError::SpeculativeFanOutZero);
    }
    if !roles.is_empty() && roles.len() != replicas {
        return Err(ConfigError::FleetRolesLengthMismatch {
            roles: roles.len(),
            replicas,
        });
    }
    let mut resolved = roles.to_vec();
    resolved.resize(replicas, ReplicaRole::Colocated);
    if resolved.iter().any(|&r| r != ReplicaRole::Colocated) {
        if !resolved.iter().any(|r| r.prefill_capable()) {
            return Err(ConfigError::FleetNoPrefillCapacity);
        }
        if !resolved.iter().any(|r| r.decode_capable()) {
            return Err(ConfigError::FleetNoDecodeCapacity);
        }
    }
    if decode_platform && !resolved.contains(&ReplicaRole::Decode) {
        return Err(ConfigError::FleetDecodePlatformUnused);
    }
    validate_fleet_events_for_roles(&resolved, events)?;
    Ok(resolved)
}

/// Validates a fleet event timeline against the initial replicas' roles
/// by simulating the projected lifecycle states: times must be finite,
/// non-negative, and sorted; replica indices must be in range at their
/// point in the timeline (scale-ups extend it, adding
/// [`ReplicaRole::Colocated`] replicas); transitions must be legal and
/// meaningful (no draining a drained replica, no zero scale-up); and at
/// least one replica must remain active after every event, so the router
/// always has somewhere to send arrivals. A disaggregated fleet must
/// additionally keep at least one admitting prefill-capable replica (for
/// arrivals) and one admitting decode-capable replica (for KV hand-offs);
/// for an all-colocated role list those role checks are implied by the
/// generic one.
///
/// [`validate_fleet_shape`] runs it for [`Fleet::try_new`], the
/// `moentwine-spec` scenario builder, and the spec codec, so a bad
/// timeline fails with the same typed [`ConfigError`] wherever it enters
/// the stack.
///
/// # Errors
///
/// [`ConfigError::TooManyReplicas`] (see [`validate_replica_count`]), or
/// the first violated
/// [`ConfigError::FleetEventsUnsorted`] /
/// [`ConfigError::FleetEventReplicaOutOfRange`] /
/// [`ConfigError::FleetEventNoOp`] /
/// [`ConfigError::FleetEventLeavesNoReplicas`] /
/// [`ConfigError::FleetEventLeavesNoPrefillCapacity`] /
/// [`ConfigError::FleetEventLeavesNoDecodeCapacity`] variant.
pub fn validate_fleet_events_for_roles(
    roles: &[ReplicaRole],
    events: &[FleetEvent],
) -> Result<(), ConfigError> {
    validate_replica_count(roles.len(), events)?;
    let disaggregated = roles.iter().any(|&r| r != ReplicaRole::Colocated);
    let mut roles: Vec<ReplicaRole> = roles.to_vec();
    let mut states = vec![ReplicaState::Active; roles.len()];
    let mut prev = 0.0_f64;
    for (index, event) in events.iter().enumerate() {
        // Rejecting everything but a finite `time >= prev` also rejects
        // NaN and (via prev starting at 0) negative times.
        if !(event.time >= prev && event.time.is_finite()) {
            return Err(ConfigError::FleetEventsUnsorted { index });
        }
        prev = event.time;
        match event.kind {
            FleetEventKind::ScaleUp { count } => {
                if count == 0 {
                    return Err(ConfigError::FleetEventNoOp { index });
                }
                states.extend(std::iter::repeat_n(ReplicaState::Active, count));
                roles.extend(std::iter::repeat_n(ReplicaRole::Colocated, count));
            }
            FleetEventKind::Drain { replica }
            | FleetEventKind::Crash { replica }
            | FleetEventKind::Recover { replica } => {
                let replicas = states.len();
                let Some(state) = states.get_mut(replica) else {
                    return Err(ConfigError::FleetEventReplicaOutOfRange {
                        index,
                        replica,
                        replicas,
                    });
                };
                // A draining replica may still crash before it empties (the
                // runtime treats a crash on an already-retired replica as a
                // no-op); every other transition needs the one legal source
                // state.
                *state = match (event.kind, *state) {
                    (FleetEventKind::Drain { .. }, ReplicaState::Active) => ReplicaState::Draining,
                    (
                        FleetEventKind::Crash { .. },
                        ReplicaState::Active | ReplicaState::Draining,
                    ) => ReplicaState::Failed,
                    (FleetEventKind::Recover { .. }, ReplicaState::Failed) => ReplicaState::Active,
                    _ => return Err(ConfigError::FleetEventNoOp { index }),
                };
            }
        }
        if !states.iter().any(|s| s.admits()) {
            return Err(ConfigError::FleetEventLeavesNoReplicas { index });
        }
        if disaggregated {
            if !states
                .iter()
                .zip(&roles)
                .any(|(s, r)| s.admits() && r.prefill_capable())
            {
                return Err(ConfigError::FleetEventLeavesNoPrefillCapacity { index });
            }
            if !states
                .iter()
                .zip(&roles)
                .any(|(s, r)| s.admits() && r.decode_capable())
            {
                return Err(ConfigError::FleetEventLeavesNoDecodeCapacity { index });
            }
        }
    }
    Ok(())
}

/// Configuration of a [`Fleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of replica engines.
    pub replicas: usize,
    /// Front-end dispatch policy.
    pub policy: RouterPolicy,
    /// Global arrival rate (requests/second across the whole fleet).
    pub request_rate: f64,
    /// Per-replica engine template. Its `batch` must be a serving mode
    /// ([`BatchMode::Scheduled`] or [`BatchMode::External`]); the fleet
    /// converts it to [`BatchMode::External`] and replaces the seed with a
    /// per-replica stream split from `engine.seed`.
    pub engine: EngineConfig,
    /// Per-replica congestion-backend overrides: empty uses the template's
    /// backend everywhere; otherwise replica `i` gets `overrides[i % len]`
    /// (so a two-entry list alternates fidelity tiers across the fleet).
    pub backend_overrides: Vec<CongestionBackend>,
    /// Elasticity/failure timeline, sorted by time (empty = the immortal
    /// fixed fleet). Validated by [`validate_fleet_events_for_roles`].
    pub events: Vec<FleetEvent>,
    /// Serving role per initial replica: empty means every replica is
    /// [`ReplicaRole::Colocated`] (the byte-compatible default); otherwise
    /// the length must equal `replicas` and a mixed list enables
    /// prefill/decode disaggregation with priced KV hand-offs.
    pub roles: Vec<ReplicaRole>,
}

impl FleetConfig {
    /// A fleet of `replicas` engines dispatched by `policy` under a global
    /// arrival stream of `request_rate` requests/second.
    pub fn new(
        replicas: usize,
        policy: RouterPolicy,
        request_rate: f64,
        engine: EngineConfig,
    ) -> Self {
        FleetConfig {
            replicas,
            policy,
            request_rate,
            engine,
            backend_overrides: Vec::new(),
            events: Vec::new(),
            roles: Vec::new(),
        }
    }

    /// Sets per-replica backend overrides (builder style).
    pub fn with_backend_overrides(mut self, overrides: Vec<CongestionBackend>) -> Self {
        self.backend_overrides = overrides;
        self
    }

    /// Sets the elasticity/failure timeline (builder style).
    pub fn with_events(mut self, events: Vec<FleetEvent>) -> Self {
        self.events = events;
        self
    }

    /// Sets per-replica serving roles (builder style). Empty keeps every
    /// replica colocated.
    pub fn with_roles(mut self, roles: Vec<ReplicaRole>) -> Self {
        self.roles = roles;
        self
    }
}

/// One goodput measurement window between fleet-event boundaries: how many
/// requests completed fleet-wide in `[start, end)` and at what rate. The
/// window sequence shows the SLO-under-failure shape — goodput dipping
/// after a crash and recovering as re-queued work drains.
#[derive(Clone, PartialEq, Debug)]
pub struct GoodputWindow {
    /// What opened this window: `"start"`, or the event that fired, as
    /// `"<kind>@<configured time>"` (e.g. `"crash@0.002"`).
    pub after: String,
    /// Window start, simulated seconds.
    pub start: f64,
    /// Window end, simulated seconds (the next event, or the clock).
    pub end: f64,
    /// Requests completed fleet-wide inside the window.
    pub completed: u64,
    /// `completed / (end − start)` (0 for a zero-length window).
    pub goodput_rps: f64,
}

/// The availability section of a [`FleetSummary`]: interruption counts per
/// failure class, re-queued token totals, the time-weighted available
/// (actively admitting) replica fraction, and goodput-vs-time around each
/// timeline event. For an event-free fleet the counters are zero, the
/// fraction is 1.0, the windows are empty, and every replica is active
/// (`Default` additionally leaves `replica_states` empty).
#[derive(Clone, PartialEq, Debug)]
pub struct FleetAvailability {
    /// Timeline events applied so far.
    pub events_applied: u64,
    /// In-flight (admitted) requests interrupted by crashes and re-queued
    /// with their prefill replayed elsewhere.
    pub crash_interruptions: u64,
    /// Waiting (not yet admitted) requests re-routed by graceful drains.
    pub drain_rerouted: u64,
    /// Waiting requests re-routed by crashes.
    pub crash_rerouted: u64,
    /// Σ (input + output) tokens across every re-queued request.
    pub requeued_tokens: u64,
    /// Prompt tokens whose prefill work was lost to crashes and re-done on
    /// the re-admitting replica (the KV re-admission cost, priced through
    /// the congestion model when the new replica re-prefills).
    pub replayed_prefill_tokens: u64,
    /// Time-weighted fraction of replicas in the active state over the run
    /// (1.0 for an event-free fleet).
    pub available_fraction: f64,
    /// Final lifecycle state of each replica, in replica order
    /// ([`ReplicaState::name`] strings).
    pub replica_states: Vec<&'static str>,
    /// Goodput between consecutive event boundaries (empty for an
    /// event-free fleet).
    pub goodput_windows: Vec<GoodputWindow>,
}

impl Default for FleetAvailability {
    fn default() -> Self {
        FleetAvailability {
            events_applied: 0,
            crash_interruptions: 0,
            drain_rerouted: 0,
            crash_rerouted: 0,
            requeued_tokens: 0,
            replayed_prefill_tokens: 0,
            available_fraction: 1.0,
            replica_states: Vec::new(),
            goodput_windows: Vec::new(),
        }
    }
}

/// The prefill→decode hand-off section of a [`FleetSummary`]: how many KV
/// transfers were priced, their byte and time totals, and the end-to-end
/// hand-off latency (prefill finish → first decode token on the receiving
/// replica). All zeros for a colocated fleet.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FleetHandoff {
    /// Finished prefills handed to the decode tier (each priced as one KV
    /// transfer through the congestion model).
    pub kv_transfers: u64,
    /// Σ transferred KV bytes
    /// (`kv_bytes_per_token_all_layers × prefill tokens` per hand-off).
    pub kv_transfer_bytes: f64,
    /// Σ priced transfer time, seconds.
    pub kv_transfer_seconds: f64,
    /// Slowest single transfer, seconds.
    pub max_transfer_seconds: f64,
    /// Transfers priced but not yet delivered to a decode queue (in
    /// flight past the fleet clock).
    pub pending_transfers: u64,
    /// Hand-offs whose decode side produced its first token.
    pub handoffs_completed: u64,
    /// Mean prefill-finish → first-decode-token latency, seconds
    /// (transfer + decode queueing).
    pub mean_handoff_latency: f64,
    /// Worst hand-off latency, seconds.
    pub max_handoff_latency: f64,
    /// Mean end-to-end TTFT across completed hand-offs: original arrival →
    /// first decode token, spanning both tiers and the transfer.
    pub mean_e2e_ttft: f64,
    /// Worst end-to-end TTFT, seconds.
    pub max_e2e_ttft: f64,
}

/// The speculative-dispatch section of a [`FleetSummary`]: multi-copy
/// groups dispatched by [`RouterPolicy::Speculative`], loser copies
/// cancelled once the group produced its first token, and groups still
/// racing at the clock. All zeros for unicast policies.
/// Cancelled copies are accounted here, *separately* from the
/// crash-interruption counters in [`FleetAvailability`] — a cancellation
/// is the router reclaiming a redundant copy, not a failure.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FleetSpeculative {
    /// Requests dispatched as speculative multi-copy groups (each group
    /// routed one request to ≥ 2 replicas).
    pub groups_dispatched: u64,
    /// Loser copies cancelled (waiting or mid-flight work torn down, KV
    /// released) or discarded post-completion after another copy of their
    /// group won the first-token race — plus copies dropped from a crashed
    /// or drained replica while a sibling copy survived elsewhere.
    pub cancelled_copies: u64,
    /// Groups whose first-token race is still undecided at the clock.
    pub open_groups: u64,
}

/// One copy of a speculatively dispatched request, tracked until its group
/// resolves.
#[derive(Clone, Debug)]
struct SpecCopy {
    /// Replica currently holding the copy (updated if the copy is the last
    /// survivor and gets re-routed off a crashed/drained replica).
    replica: usize,
    /// Completion record harvested at the current synchronization point,
    /// held back from the fleet aggregates until the race is decided.
    /// Always `None` between synchronization points: a completed copy is a
    /// first-token candidate, so the group resolves at the point that
    /// stashed it.
    done: Option<RequestRecord>,
}

/// An unresolved speculative dispatch: every live copy of one request.
/// Keyed by request id in a `BTreeMap` so resolution order is
/// deterministic (std's `HashMap` iteration order is not).
#[derive(Clone, Debug)]
struct SpecGroup {
    copies: Vec<SpecCopy>,
}

/// Running hand-off accounting inside [`Fleet`] (see [`FleetHandoff`],
/// its public readout).
#[derive(Clone, Debug, Default)]
struct HandoffTracker {
    kv_transfers: u64,
    kv_transfer_bytes: f64,
    kv_transfer_seconds: f64,
    max_transfer_seconds: f64,
    handoffs_completed: u64,
    handoff_latency_seconds: f64,
    max_handoff_latency: f64,
    e2e_ttft_seconds: f64,
    max_e2e_ttft: f64,
}

/// An entry of the fleet's two event heaps, ordered so that
/// `BinaryHeap::pop` yields the *earliest* `time` (`f64::total_cmp`), ties
/// to the lowest `tie` — the deterministic tie-break contract (DESIGN.md
/// §10). `item` takes no part in the order. A replica step ties on its
/// replica index and carries the replica's lifecycle epoch when enqueued
/// (crashes and retirements bump the epoch, lazily invalidating the
/// entry). A KV transfer in flight becomes routable at prefill finish plus
/// the priced transfer time, ties on its creation sequence (same-instant
/// transfers deliver in creation order) and carries the decode-side
/// request.
#[derive(Copy, Clone, Debug)]
struct Timed<T> {
    time: f64,
    tie: usize,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<T> Eq for Timed<T> {}

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min element.
        other
            .time
            .total_cmp(&self.time)
            .then(other.tie.cmp(&self.tie))
    }
}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Prefill-side facts about one in-flight hand-off, matched back when the
/// decode side reports the request's first token.
#[derive(Copy, Clone, Debug)]
struct HandoffMeta {
    /// Arrival the prefill tier served under (re-stamped if the request
    /// was ever re-queued by a crash or drain).
    arrival: f64,
    /// When the prefill finished (the transfer starts here).
    prefill_finish: f64,
}

/// Fleet-level serving statistics: per-replica and aggregate SLO
/// percentiles plus cross-replica balance. See [`Fleet::summary`].
#[derive(Clone, PartialEq, Debug)]
pub struct FleetSummary {
    /// Number of replicas.
    pub replicas: usize,
    /// Synchronization rounds executed (iterations per replica).
    pub rounds: u64,
    /// Fleet simulated time, seconds (minimum over replica clocks — the
    /// time up to which all routing decisions have been made).
    pub sim_seconds: f64,
    /// Requests routed to each replica.
    pub routed: Vec<u64>,
    /// Per-replica serving summaries, in replica order.
    pub per_replica: Vec<ServingSummary>,
    /// Fleet-wide summary: percentiles over the union of all completed
    /// requests; mean queue depth, mean active requests, rejects, and peak
    /// KV are fleet-wide sums (peak KV sums per-replica peaks, an upper
    /// bound since they need not coincide in time), while
    /// `max_queue_depth` is the worst single replica's high-water mark;
    /// goodput is measured against `sim_seconds`.
    pub aggregate: ServingSummary,
    /// Max/mean ratio of per-replica routed-request counts (1.0 when
    /// balanced or empty).
    pub routing_imbalance: f64,
    /// Max/mean ratio of per-replica completed-request counts (1.0 when
    /// balanced or empty).
    pub completion_imbalance: f64,
    /// Failure/elasticity accounting (zero counters, fraction 1.0, and all
    /// replicas active for an event-free fleet).
    pub availability: FleetAvailability,
    /// Prefill→decode hand-off accounting (all zeros for a colocated
    /// fleet).
    pub handoff: FleetHandoff,
    /// Speculative-dispatch accounting (all zeros for unicast policies).
    pub speculative: FleetSpeculative,
}

/// Failure/elasticity bookkeeping of a [`Fleet`] (see
/// [`FleetAvailability`], its public readout).
#[derive(Clone, Debug, Default)]
struct ChaosTracker {
    events_applied: u64,
    crash_interruptions: u64,
    drain_rerouted: u64,
    crash_rerouted: u64,
    requeued_tokens: u64,
    replayed_prefill_tokens: u64,
    /// ∫ (active replicas / replicas) dt accumulated up to `last_t`.
    avail_integral: f64,
    last_t: f64,
    /// One mark per applied event: the goodput windows are the spans
    /// between consecutive marks (plus start → first and last → clock).
    marks: Vec<EventMark>,
}

#[derive(Clone, Debug)]
struct EventMark {
    /// `"<kind>@<configured time>"`.
    label: String,
    /// Application time (the barrier clock in round-driven runs; the exact
    /// event time in event-driven `run_until`).
    time: f64,
    /// Fleet-wide completions when the event was applied.
    completed: u64,
}

/// The router's live view of the replicas, in replica order: each
/// replica's [`ReplicaSnapshot`] plus its two eligibility masks. [`Fleet`]
/// keeps it current instead of rebuilding it per routing pass: a snapshot
/// is re-read wherever a queue changes (offer, step, eviction,
/// cancellation) and the masks wherever a lifecycle state does, so both
/// drives route from it as is.
#[derive(Clone, PartialEq, Debug, Default)]
struct ReplicaView {
    snapshots: Vec<ReplicaSnapshot>,
    /// Admitting and prefill-capable: where arrivals and re-routed
    /// evictions may go. For a colocated fleet, the admitting set.
    arrival: Vec<bool>,
    /// Admitting and decode-capable: where KV hand-offs may go.
    handoff: Vec<bool>,
}

impl ReplicaView {
    /// Appends one replica's entry.
    fn push(&mut self, snapshot: ReplicaSnapshot, state: ReplicaState, role: ReplicaRole) {
        let (arrival, handoff) = eligibility(state, role);
        self.snapshots.push(snapshot);
        self.arrival.push(arrival);
        self.handoff.push(handoff);
    }
}

/// `(arrival, hand-off)` eligibility of a replica in `state` with `role`.
fn eligibility(state: ReplicaState, role: ReplicaRole) -> (bool, bool) {
    (
        state.admits() && role.prefill_capable(),
        state.admits() && role.decode_capable(),
    )
}

/// Replica `engine`'s serving load as the router observes it.
fn snapshot_of(engine: &InferenceEngine<'_>) -> ReplicaSnapshot {
    engine
        .replica_snapshot()
        .expect("replicas run a serving mode")
}

/// N replica engines behind a router on a shared simulated clock. See the
/// [module docs](self).
pub struct Fleet<'a> {
    topo: &'a Topology,
    table: &'a RouteTable,
    layout: &'a dyn ParallelLayout,
    /// Replica engine template, normalized to [`BatchMode::External`];
    /// scale-ups clone it with the next seed stream.
    template: EngineConfig,
    backend_overrides: Vec<CongestionBackend>,
    /// Master seed the per-replica streams are split from.
    master: u64,
    engines: Vec<InferenceEngine<'a>>,
    /// Lifecycle state per replica, in replica order.
    states: Vec<ReplicaState>,
    /// What the router sees of every replica (see [`ReplicaView`]).
    view: ReplicaView,
    /// Serving role per replica, in replica order (scale-ups join as
    /// [`ReplicaRole::Colocated`]).
    roles: Vec<ReplicaRole>,
    /// Platform decode-role replicas run on (heterogeneous
    /// disaggregation); `None` shares the prefill platform.
    decode_platform: Option<PlatformRefs<'a>>,
    /// Prices KV hand-off transfers on the prefill platform's
    /// interconnect. `Some` iff the fleet is disaggregated — this doubles
    /// as the disaggregation flag, so colocated fleets skip every
    /// hand-off code path.
    transfer_model: Option<Box<dyn CongestionModel + 'a>>,
    /// KV bytes per token across all layers (FP16), from the model config.
    kv_bytes_per_token: f64,
    /// Priced transfers not yet delivered to a decode queue, min-ordered
    /// by decode-side arrival.
    pending_handoffs: BinaryHeap<Timed<Request>>,
    /// Creation sequence for deterministic same-instant delivery order.
    handoff_seq: usize,
    /// In-flight hand-offs by request id, matched when the decode side
    /// completes. A request re-queued off a crashed decode replica
    /// re-prefills and re-inserts (overwriting) under the same id.
    inflight: HashMap<u64, HandoffMeta>,
    handoff: HandoffTracker,
    /// Unapplied timeline events, in time order.
    pending_events: VecDeque<FleetEvent>,
    chaos: ChaosTracker,
    /// Unresolved speculative dispatch groups by request id (empty for
    /// unicast policies, so snapshot fleets skip every speculative path).
    spec_groups: BTreeMap<u64, SpecGroup>,
    /// Speculative groups dispatched so far.
    spec_dispatched: u64,
    /// Speculative loser copies cancelled so far.
    spec_cancelled: u64,
    router: Router,
    generator: RequestGenerator,
    /// First generated arrival beyond the fleet clock.
    lookahead: Option<Request>,
    /// Fleet clock: min over steppable replica clocks at the last
    /// synchronization (round-driven), or the covered horizon (event-driven
    /// `run_until`).
    clock: f64,
    /// Synchronization rounds in round-driven runs; priced step events in
    /// `run_until`'s event loop (there are no barriers to count).
    rounds: u64,
    /// Fleet-wide streaming aggregate ([`SummaryMode::Streaming`] replicas
    /// only): P² sketches don't merge, so the fleet folds every replica's
    /// fresh completions into its own accumulator as they drain.
    streaming: Option<StreamingSummary>,
    /// End-to-end completions booked so far, fleet-wide. Prefill records
    /// (hand-offs) and discarded speculative losers are not counted.
    completed: u64,
}

/// A pending replica step: `tie` is the replica, `item` its epoch.
type StepEvent = Timed<u64>;

/// The event drive's step heap with its per-replica bookkeeping:
/// `scheduled[i]` tracks heap membership, so a replica is never enqueued
/// twice, and `epoch[i]` lazily invalidates entries orphaned by a crash or
/// retirement.
struct StepHeap {
    heap: BinaryHeap<StepEvent>,
    scheduled: Vec<bool>,
    epoch: Vec<u64>,
}

impl StepHeap {
    /// An empty heap over `replicas` parked replicas.
    fn new(replicas: usize) -> Self {
        StepHeap {
            heap: BinaryHeap::new(),
            scheduled: vec![false; replicas],
            epoch: vec![0; replicas],
        }
    }

    /// Extends the mirrors to `replicas` after a scale-up. New replicas
    /// stay parked until the router first offers them work.
    fn grow(&mut self, replicas: usize) {
        self.scheduled.resize(replicas, false);
        self.epoch.resize(replicas, 0);
    }

    /// Enqueues replica `i`'s next step at `time`.
    fn push(&mut self, i: usize, time: f64) {
        self.heap.push(StepEvent {
            time,
            tie: i,
            item: self.epoch[i],
        });
        self.scheduled[i] = true;
    }

    /// Wakes replica `i` at `t` if it is parked: its clock jumps to `t`
    /// (no phantom idle iterations were priced while it slept) and its
    /// next step is enqueued. A no-op for a replica already in the heap.
    fn wake(&mut self, i: usize, engine: &mut InferenceEngine<'_>, t: f64) {
        if !self.scheduled[i] {
            engine.fast_forward(t);
            self.push(i, engine.sim_time());
        }
    }

    /// Parks replica `i`: it has no heap entry until woken.
    fn park(&mut self, i: usize) {
        self.scheduled[i] = false;
    }

    /// Parks replica `i` and orphans any entry it still has in the heap.
    fn invalidate(&mut self, i: usize) {
        self.epoch[i] += 1;
        self.scheduled[i] = false;
    }

    /// The earliest live step, after discarding orphaned entries.
    fn peek(&mut self) -> Option<StepEvent> {
        while self
            .heap
            .peek()
            .is_some_and(|top| top.item != self.epoch[top.tie])
        {
            self.heap.pop();
        }
        self.heap.peek().copied()
    }

    /// Removes and returns the earliest live step.
    fn pop(&mut self) -> Option<StepEvent> {
        let next = self.peek();
        self.heap.pop();
        next
    }
}

/// Whether a replica has neither queued nor resident work.
fn idle(snap: &ReplicaSnapshot) -> bool {
    snap.queue_depth == 0 && snap.active == 0
}

impl<'a> Fleet<'a> {
    /// Builds a homogeneous fleet: every replica borrows the same
    /// `topo`/`table`/`layout` and gets its own engine with a seed-split
    /// RNG stream (and backend override, if configured).
    ///
    /// This is a thin wrapper over [`Fleet::try_new`] for call sites that
    /// treat an inconsistent config as a programming error.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero, the engine template's batch
    /// mode is [`BatchMode::Fixed`] (no request lifecycle to route), or the
    /// template fails [`EngineConfig::validate`] — the panic message is the
    /// [`ConfigError`]'s display text.
    pub fn new(
        topo: &'a Topology,
        table: &'a RouteTable,
        layout: &'a dyn ParallelLayout,
        config: FleetConfig,
    ) -> Self {
        Self::try_new(topo, table, layout, config)
            .unwrap_or_else(|e| panic!("invalid fleet config: {e}"))
    }

    /// Builds a homogeneous fleet, reporting configuration inconsistencies
    /// as typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ReplicasZero`] for an empty fleet, then
    /// whatever [`validate_fleet_shape`] rejects (the replica ceiling
    /// first, before any per-replica allocation; a zero speculative
    /// fan-out; the timeline), whatever [`EngineConfig::validate`] rejects
    /// about the replica template, and
    /// [`ConfigError::FleetNeedsServingBatch`] for a [`BatchMode::Fixed`]
    /// template.
    pub fn try_new(
        topo: &'a Topology,
        table: &'a RouteTable,
        layout: &'a dyn ParallelLayout,
        config: FleetConfig,
    ) -> Result<Self, ConfigError> {
        Self::try_new_disaggregated(
            PlatformRefs {
                topo,
                table,
                layout,
            },
            None,
            config,
        )
    }

    /// Builds a (possibly disaggregated) fleet. `prefill` is the platform
    /// every colocated and prefill-role replica runs on; decode-role
    /// replicas run on `decode_platform` when given (heterogeneous
    /// disaggregation — their KV budgets derive from *that* platform's
    /// device count) and on the prefill platform otherwise. With an empty
    /// `config.roles` this is exactly [`Fleet::try_new`].
    ///
    /// # Errors
    ///
    /// Everything [`Fleet::try_new`] reports, including the role-set
    /// errors of [`validate_fleet_shape`].
    pub fn try_new_disaggregated(
        prefill: PlatformRefs<'a>,
        decode_platform: Option<PlatformRefs<'a>>,
        config: FleetConfig,
    ) -> Result<Self, ConfigError> {
        let PlatformRefs {
            topo,
            table,
            layout,
        } = prefill;
        if config.replicas == 0 {
            return Err(ConfigError::ReplicasZero);
        }
        let roles = validate_fleet_shape(
            config.replicas,
            config.policy,
            &config.roles,
            &config.events,
            decode_platform.is_some(),
        )?;
        config.engine.validate()?;
        let disaggregated = roles.iter().any(|&r| r != ReplicaRole::Colocated);
        let (mode, max_batch_tokens, max_active) = match config.engine.batch {
            BatchMode::Scheduled {
                mode,
                max_batch_tokens,
                max_active,
                ..
            }
            | BatchMode::External {
                mode,
                max_batch_tokens,
                max_active,
            } => (mode, max_batch_tokens, max_active),
            BatchMode::Fixed { .. } => return Err(ConfigError::FleetNeedsServingBatch),
        };
        let master = config.engine.seed;
        let mut template = config.engine.clone();
        template.batch = BatchMode::External {
            mode,
            max_batch_tokens,
            max_active,
        };
        // The global arrival stream mirrors the single-engine scheduled
        // mode (same workload profile: diurnal Poisson by default, phase
        // schedule, or trace replay; scenario blend from the workload mix)
        // but draws from fleet-level seed streams. One shared constructor
        // — `RequestGenerator::try_from_profile` — replaces the diurnal
        // construction previously copied from `engine/mod.rs`.
        let generator = RequestGenerator::try_from_profile(
            &config.engine.workload_profile,
            config.request_rate,
            config.engine.workload.weights(0),
            split_seed(master, 0x0A5E_11A1),
            split_seed(master, 0x0A5E_11A2),
        )?;
        let router = Router::new(
            config.policy,
            config.replicas,
            split_seed(master, 0x0A5E_11A3),
        );
        let streaming = match config.engine.summary {
            SummaryMode::Exact => None,
            SummaryMode::Streaming => Some(if config.engine.workload_profile.is_default() {
                StreamingSummary::new()
            } else {
                StreamingSummary::with_classes(&config.engine.workload_profile.classes)
            }),
        };
        // The transfer model doubles as the disaggregation flag: built
        // only when some replica has a non-colocated role, so colocated
        // fleets never touch a hand-off code path. Transfers are priced
        // on the prefill platform's interconnect with the template
        // backend (per-replica overrides affect iteration pricing only).
        let transfer_model = if disaggregated {
            Some(template.backend.build(topo))
        } else {
            None
        };
        let kv_bytes_per_token = template
            .model
            .kv_bytes_per_token_all_layers(moe_model::Precision::Fp16);
        let mut fleet = Fleet {
            topo,
            table,
            layout,
            template,
            backend_overrides: config.backend_overrides,
            master,
            engines: Vec::with_capacity(config.replicas),
            states: Vec::with_capacity(config.replicas),
            view: ReplicaView::default(),
            roles,
            decode_platform,
            transfer_model,
            kv_bytes_per_token,
            pending_handoffs: BinaryHeap::new(),
            handoff_seq: 0,
            inflight: HashMap::new(),
            handoff: HandoffTracker::default(),
            pending_events: config.events.into(),
            chaos: ChaosTracker::default(),
            spec_groups: BTreeMap::new(),
            spec_dispatched: 0,
            spec_cancelled: 0,
            router,
            generator,
            lookahead: None,
            clock: 0.0,
            rounds: 0,
            streaming,
            completed: 0,
        };
        for _ in 0..config.replicas {
            fleet.push_replica(0.0);
        }
        Ok(fleet)
    }

    /// Appends replica `engines.len()`, whose role is already in `roles`:
    /// builds it, fast-forwards it to `now`, and enters it active in the
    /// view.
    fn push_replica(&mut self, now: f64) {
        let i = self.engines.len();
        let mut engine = self.build_replica(i);
        engine.fast_forward(now);
        self.view
            .push(snapshot_of(&engine), ReplicaState::Active, self.roles[i]);
        self.engines.push(engine);
        self.states.push(ReplicaState::Active);
    }

    /// Builds the engine for replica index `i` from the stored template:
    /// seed stream `i` of the master seed, backend override `i % len`.
    /// Scale-up replicas get the next streams in sequence, so a fleet
    /// born at size N+k and a fleet scaled from N to N+k use identical
    /// per-replica RNG streams.
    fn build_replica(&self, i: usize) -> InferenceEngine<'a> {
        let mut cfg = self.template.clone();
        cfg.seed = split_seed(self.master, i as u64);
        if !self.backend_overrides.is_empty() {
            cfg.backend = self.backend_overrides[i % self.backend_overrides.len()];
        }
        // Role specialization: prefill replicas run the prefill-only
        // scheduling tier (complete at hand-off), decode replicas the
        // decode-only tier (admit with prefill done, KV admission still
        // reserves input + output) — on the decode platform when the
        // fleet is heterogeneous. Colocated replicas keep the template
        // mode and platform, byte-identically to pre-role fleets.
        let role = self.roles[i];
        if let BatchMode::External { mode, .. } = &mut cfg.batch {
            match role {
                ReplicaRole::Colocated => {}
                ReplicaRole::Prefill => *mode = SchedulingMode::PrefillOnly,
                ReplicaRole::Decode => *mode = SchedulingMode::DecodeOnly,
            }
        }
        let refs = match (role, self.decode_platform) {
            (ReplicaRole::Decode, Some(p)) => p,
            _ => PlatformRefs {
                topo: self.topo,
                table: self.table,
                layout: self.layout,
            },
        };
        InferenceEngine::new(refs.topo, refs.table, refs.layout, cfg)
    }

    /// The replica engines, in replica order.
    pub fn engines(&self) -> &[InferenceEngine<'a>] {
        &self.engines
    }

    /// The front-end router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Fleet simulated time: the minimum over replica clocks, i.e. the
    /// time up to which every routing decision has been made.
    pub fn sim_time(&self) -> f64 {
        self.clock
    }

    /// Synchronization rounds executed so far by [`Fleet::run`], plus the
    /// priced step events of [`Fleet::run_until`].
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Lifecycle state of each replica, in replica order.
    pub fn states(&self) -> &[ReplicaState] {
        &self.states
    }

    /// Serving role of each replica, in replica order.
    pub fn roles(&self) -> &[ReplicaRole] {
        &self.roles
    }

    /// Whether any replica carries a non-colocated role (hand-off paths
    /// active).
    pub fn disaggregated(&self) -> bool {
        self.transfer_model.is_some()
    }

    /// KV transfers priced but not yet delivered to a decode queue.
    pub fn pending_kv_transfers(&self) -> usize {
        self.pending_handoffs.len()
    }

    /// Re-reads replica `i`'s queue into the view, after anything that
    /// changed it.
    fn refresh(&mut self, i: usize) {
        self.view.snapshots[i] = snapshot_of(&self.engines[i]);
    }

    /// Moves replica `i` to `state` and re-derives its view masks.
    fn set_state(&mut self, i: usize, state: ReplicaState) {
        self.states[i] = state;
        (self.view.arrival[i], self.view.handoff[i]) = eligibility(state, self.roles[i]);
    }

    /// The routing precondition, checked under `debug_assertions`: the
    /// live view equals what a fresh read of every replica would build.
    fn check_view(&self) {
        debug_assert_eq!(
            self.view,
            {
                let mut fresh = ReplicaView::default();
                for (i, engine) in self.engines.iter().enumerate() {
                    fresh.push(snapshot_of(engine), self.states[i], self.roles[i]);
                }
                fresh
            },
            "the replica view went stale"
        );
    }

    /// Timeline events not yet applied (in time order).
    pub fn pending_events(&self) -> usize {
        self.pending_events.len()
    }

    /// Fraction of replicas currently admitting (1.0 for an empty state
    /// vector, which cannot occur post-construction).
    fn active_fraction(&self) -> f64 {
        if self.states.is_empty() {
            return 1.0;
        }
        let active = self.states.iter().filter(|s| s.admits()).count();
        active as f64 / self.states.len() as f64
    }

    /// Accrues the availability integral up to `now` at the current active
    /// fraction. Called right before any state transition, so the integral
    /// is piecewise-exact (the fraction only changes at timeline events).
    fn accrue_availability(&mut self, now: f64) {
        if now > self.chaos.last_t {
            self.chaos.avail_integral += self.active_fraction() * (now - self.chaos.last_t);
            self.chaos.last_t = now;
        }
    }

    /// Applies every pending timeline event due at or before the barrier
    /// clock `now` (round-driven runs; the event loop of
    /// [`Fleet::run_until`] applies each event at its exact configured
    /// time instead).
    fn apply_due_events(&mut self, now: f64) {
        while let Some(&event) = self.pending_events.front().filter(|e| e.time <= now) {
            self.pending_events.pop_front();
            self.apply_event(event, now);
        }
    }

    /// Applies one timeline event at simulated time `now` (≥ the event's
    /// configured time). Evictions happen at iteration boundaries only —
    /// both drives guarantee no engine is mid-iteration here.
    fn apply_event(&mut self, event: FleetEvent, now: f64) {
        self.accrue_availability(now);
        self.chaos.marks.push(EventMark {
            label: format!("{}@{}", event.kind.name(), event.time),
            time: now,
            completed: self.completed,
        });
        self.chaos.events_applied += 1;
        match event.kind {
            FleetEventKind::ScaleUp { count } => {
                for _ in 0..count {
                    self.roles.push(ReplicaRole::Colocated);
                    self.push_replica(now);
                }
                self.router.grow(count);
            }
            FleetEventKind::Drain { replica } => {
                // Validated timelines only drain active replicas; treat
                // anything else as a no-op for runtime robustness.
                if self.states[replica] != ReplicaState::Active {
                    return;
                }
                self.set_state(replica, ReplicaState::Draining);
                let evicted = self.engines[replica].evict_waiting_requests();
                self.refresh(replica);
                let waiting = self.strip_spec_copies(evicted, replica);
                self.chaos.drain_rerouted += waiting.len() as u64;
                self.reroute(waiting, replica, now);
                if idle(&self.view.snapshots[replica]) {
                    // Nothing in flight: straight to retired.
                    self.set_state(replica, ReplicaState::Retired);
                }
            }
            FleetEventKind::Crash { replica } => {
                if !self.states[replica].steppable() {
                    return;
                }
                self.set_state(replica, ReplicaState::Failed);
                let evicted = self.engines[replica].evict_waiting_requests();
                let resident_evicted = self.engines[replica].evict_resident_requests();
                self.refresh(replica);
                let waiting = self.strip_spec_copies(evicted, replica);
                // Speculative copies with a surviving sibling are simply
                // cancelled by the crash (the race continues elsewhere);
                // they are neither interruptions nor replayed prefill.
                let resident: Vec<moe_workload::InterruptedRequest> = resident_evicted
                    .into_iter()
                    .filter(|r| !self.drop_spec_copy(r.request.id.0, replica))
                    .collect();
                self.chaos.crash_rerouted += waiting.len() as u64;
                self.chaos.crash_interruptions += resident.len() as u64;
                // Interrupted requests lose their prefill progress: the
                // re-admitting replica re-prefills those prompt tokens from
                // scratch (priced through its congestion model like any
                // admission), which is the KV re-admission cost.
                self.chaos.replayed_prefill_tokens +=
                    resident.iter().map(|r| u64::from(r.prefilled)).sum::<u64>();
                self.reroute(waiting, replica, now);
                self.reroute(
                    resident.into_iter().map(|r| r.request).collect(),
                    replica,
                    now,
                );
            }
            FleetEventKind::Recover { replica } => {
                if self.states[replica] == ReplicaState::Failed {
                    self.set_state(replica, ReplicaState::Active);
                    // The replica was dark while failed: no phantom idle
                    // iterations, it simply rejoins at the current time.
                    self.engines[replica].fast_forward(now);
                }
            }
        }
    }

    /// Re-routes evicted requests through the router into currently
    /// admitting replicas, re-stamping each arrival at `now` — the
    /// interruption instant; queueing-delay SLOs restart from the failure,
    /// not the original arrival (which would otherwise violate the
    /// per-queue arrival-order contract).
    fn reroute(&mut self, requests: Vec<Request>, from: usize, now: f64) {
        for mut request in requests {
            self.chaos.requeued_tokens +=
                u64::from(request.input_len) + u64::from(request.output_len);
            request.arrival = now;
            let id = request.id.0;
            // Re-routes go to prefill-capable replicas only: a request
            // evicted from a decode replica lost its transferred KV with
            // the crash, so it replays its prefill (and will hand off again
            // under the same id). Identical to the admitting set when
            // colocated.
            let choice = self.route_unicast(request, false);
            // A group's last surviving copy keeps its race open on the new
            // replica (siblings were dropped by `strip_spec_copies`).
            if let Some(group) = self.spec_groups.get_mut(&id) {
                if let Some(copy) = group.copies.iter_mut().find(|c| c.replica == from) {
                    copy.replica = choice;
                }
            }
        }
    }

    /// Filters requests evicted off replica `from`, dropping — and
    /// counting as cancelled — every speculative copy whose group still
    /// has a copy alive elsewhere. Survivors (including a group's last
    /// copy) are returned for normal re-routing. Identity for unicast
    /// policies, which never open a group.
    fn strip_spec_copies(&mut self, evicted: Vec<Request>, from: usize) -> Vec<Request> {
        if self.spec_groups.is_empty() {
            return evicted;
        }
        evicted
            .into_iter()
            .filter(|r| !self.drop_spec_copy(r.id.0, from))
            .collect()
    }

    /// Drops the speculative copy of request `id` held on replica `from`
    /// when its group has a sibling elsewhere, counting a cancellation.
    /// Returns `false` (route it normally) for non-speculative requests
    /// and for a group's last copy.
    fn drop_spec_copy(&mut self, id: u64, from: usize) -> bool {
        let Some(group) = self.spec_groups.get_mut(&id) else {
            return false;
        };
        let Some(pos) = group.copies.iter().position(|c| c.replica == from) else {
            return false;
        };
        if group.copies.len() == 1 {
            return false;
        }
        group.copies.remove(pos);
        self.spec_cancelled += 1;
        true
    }

    /// The routing step both drives share: routes whichever of the next
    /// KV hand-off and the next fresh arrival comes first (a hand-off wins
    /// an exact tie), if it is due by `by`. Returns its time and the
    /// replicas it was offered to, or `None` when nothing is due. Serial by
    /// design: the router observes each offer it makes, so load-aware
    /// policies see their own decisions within a burst. Arrivals go to
    /// admitting prefill-capable replicas, hand-offs to admitting
    /// decode-capable ones; a colocated fleet has no hand-offs, and its
    /// arrival mask is the admitting set.
    fn route_next(&mut self, by: f64) -> Option<(f64, Vec<usize>)> {
        let arrival_time = self.next_arrival_time();
        let handoff_time = self.next_handoff_time();
        if handoff_time <= arrival_time && handoff_time <= by {
            let handoff = self.pending_handoffs.pop()?;
            Some((handoff_time, vec![self.route_unicast(handoff.item, true)]))
        } else if arrival_time < handoff_time && arrival_time <= by {
            let request = self.lookahead.take()?;
            Some((arrival_time, self.dispatch_arrival(request)))
        } else {
            None
        }
    }

    /// Time of the next fresh arrival, pulling it into the lookahead if
    /// needed. Infinite once a finite source (trace replay) has run dry:
    /// no further arrival events, but hand-offs still deliver.
    fn next_arrival_time(&mut self) -> f64 {
        if self.lookahead.is_none() {
            self.lookahead = self.generator.next_request();
        }
        self.lookahead.as_ref().map_or(f64::INFINITY, |r| r.arrival)
    }

    /// Decode-side arrival time of the earliest pending KV hand-off.
    fn next_handoff_time(&self) -> f64 {
        self.pending_handoffs
            .peek()
            .map_or(f64::INFINITY, |h| h.time)
    }

    /// Offers `request` to replica `i` and refreshes its view entry, so
    /// the router observes each offer it makes.
    fn offer(&mut self, i: usize, request: Request) {
        self.engines[i].offer_request(request);
        self.refresh(i);
    }

    /// Routes one request to a single replica and offers it there: a KV
    /// hand-off (`handoff`, over the hand-off mask) or a re-routed
    /// eviction (over the arrival mask). Returns the replica.
    fn route_unicast(&mut self, request: Request, handoff: bool) -> usize {
        self.check_view();
        let view = &self.view;
        let mask = if handoff {
            &view.handoff
        } else {
            &view.arrival
        };
        let choice = self.router.route_among(&request, &view.snapshots, mask);
        self.offer(choice, request);
        choice
    }

    /// Routes one fresh arrival over the arrival mask, opens a speculative
    /// group for a multicast decision, and offers a copy to each target.
    /// Returns the targets (none only for a [`Decision::Shed`], which no
    /// router policy produces).
    fn dispatch_arrival(&mut self, request: Request) -> Vec<usize> {
        self.check_view();
        let view = &self.view;
        let targets = match self
            .router
            .route_decision(&request, &view.snapshots, &view.arrival)
        {
            Decision::Unicast(choice) => vec![choice],
            Decision::Speculative(targets) => {
                self.open_spec_group(&request, &targets);
                targets
            }
            Decision::Shed => Vec::new(),
        };
        for &t in &targets {
            self.offer(t, request.clone());
        }
        targets
    }

    /// Opens the first-token race for a speculatively multicast request.
    fn open_spec_group(&mut self, request: &Request, targets: &[usize]) {
        self.spec_dispatched += 1;
        self.spec_groups.insert(
            request.id.0,
            SpecGroup {
                copies: targets
                    .iter()
                    .map(|&replica| SpecCopy {
                        replica,
                        done: None,
                    })
                    .collect(),
            },
        );
    }

    /// Retires draining replicas that have run dry: they price no further
    /// iterations and leave the fleet-clock computation.
    fn retire_empty_drainers(&mut self) {
        for i in 0..self.engines.len() {
            if self.states[i] == ReplicaState::Draining && idle(&self.view.snapshots[i]) {
                self.set_state(i, ReplicaState::Retired);
            }
        }
    }

    /// Runs `rounds` synchronization rounds serially.
    pub fn run(&mut self, rounds: usize) {
        self.run_with(rounds, &SerialReplicaPool);
    }

    /// Runs `rounds` synchronization rounds, stepping replicas on `pool`.
    /// Each round routes arrivals up to the fleet clock, advances every
    /// steppable replica by one iteration on `pool`, then resynchronizes
    /// the fleet clock. Output is identical for every [`ReplicaPool`]:
    /// replicas are independent within a round, so job order cannot change
    /// a number (the fleet goldens pin this).
    pub fn run_with(&mut self, rounds: usize, pool: &dyn ReplicaPool) {
        for _ in 0..rounds {
            // Route everything due by the fleet clock. The pull is bounded
            // (as `BatchScheduler::pull_arrivals` is) so an extreme
            // configured rate cannot stall a round; the overflow stays in
            // the generator and drains over subsequent rounds.
            for _ in 0..moe_workload::MAX_ARRIVALS_PER_PULL {
                if self.route_next(self.clock).is_none() {
                    break;
                }
            }
            // Timeline events fire at the first barrier whose clock reached
            // them. Re-routed requests are offered after this round's
            // arrivals (all ≤ the clock), keeping every per-replica offer
            // stream in arrival order.
            self.apply_due_events(self.clock);
            let states = &self.states;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = self
                .engines
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| states[*i].steppable())
                .map(|(_, engine)| {
                    Box::new(move || {
                        engine.step();
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
            // Harvest in replica order, so router feedback and the fleet
            // sketch see a deterministic record order for any pool.
            for i in 0..self.engines.len() {
                self.refresh(i);
                self.harvest(i);
            }
            self.resolve_spec_groups();
            self.retire_empty_drainers();
            // The clock ignores retired/failed replicas: their frozen
            // engine clocks no longer gate routing. Timeline validation
            // guarantees at least one active replica at all times, so the
            // min is never empty.
            self.clock = (0..self.engines.len())
                .filter(|&i| self.states[i].steppable())
                .map(|i| self.engines[i].sim_time())
                .fold(f64::INFINITY, f64::min);
            self.rounds += 1;
        }
    }

    /// Drains replica `i`'s staged completions: the fleet's one
    /// completion channel, run after every priced step. A record whose
    /// request is still racing speculatively is stashed on its copy (the
    /// race resolution decides which copy counts); every other record is
    /// booked by [`Fleet::book_record`].
    fn harvest(&mut self, i: usize) {
        for record in self.engines[i].take_fresh_completions() {
            if !self.stash_spec_record(i, &record) {
                self.book_record(i, &record);
            }
        }
    }

    /// Stashes a completion on its speculative copy when the request's
    /// first-token race is still open. Returns whether the record was
    /// captured (the caller must then not observe it).
    fn stash_spec_record(&mut self, replica: usize, record: &RequestRecord) -> bool {
        let Some(group) = self.spec_groups.get_mut(&record.id.0) else {
            return false;
        };
        match group.copies.iter_mut().find(|c| c.replica == replica) {
            Some(copy) => {
                copy.done = Some(record.clone());
                true
            }
            None => false,
        }
    }

    /// Attempts to settle every open speculative race, in request-id
    /// order. A group resolves as soon as any copy has produced a first
    /// token — completed copies (stashed records) and mid-flight copies
    /// (probed via [`InferenceEngine::copy_status`]) are candidates, and
    /// the earliest first-token time wins (ties to the lowest replica
    /// index). Losers are cancelled: waiting/active copies are torn down
    /// on their queue (KV released, admission accounting unwound),
    /// already-completed copies have their records discarded so every
    /// logical request is counted once. Copies absent from their replica
    /// without completing (rejected or deadline-shed there) are pruned
    /// without a cancellation — the queue counters already hold them.
    fn resolve_spec_groups(&mut self) {
        if self.spec_groups.is_empty() {
            return;
        }
        let ids: Vec<u64> = self.spec_groups.keys().copied().collect();
        for id in ids {
            self.resolve_spec_group(id);
        }
    }

    /// One group's resolution attempt (see [`Fleet::resolve_spec_groups`]).
    fn resolve_spec_group(&mut self, id: u64) {
        let rid = moe_workload::RequestId(id);
        let Entry::Occupied(mut entry) = self.spec_groups.entry(id) else {
            return;
        };
        let engines = &self.engines;
        let group = entry.get_mut();
        group.copies.retain(|c| {
            c.done.is_some() || engines[c.replica].copy_status(rid) != CopyStatus::Absent
        });
        if group.copies.is_empty() {
            // Every copy was rejected or shed at its replica: the race is
            // void, the request is fully accounted by the queue counters.
            entry.remove();
            return;
        }
        let winner = group
            .copies
            .iter()
            .enumerate()
            .filter_map(|(idx, c)| {
                let first_token = match &c.done {
                    Some(r) => Some(r.first_token),
                    None => match engines[c.replica].copy_status(rid) {
                        CopyStatus::Active { first_token } => first_token,
                        _ => None,
                    },
                };
                first_token.map(|t| (t, c.replica, idx))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some((_, _, winner_idx)) = winner else {
            return; // no first token anywhere yet: race stays open
        };
        for (idx, copy) in entry.remove().copies.into_iter().enumerate() {
            if idx == winner_idx {
                if let Some(record) = copy.done {
                    self.book_record(copy.replica, &record);
                }
                // A mid-flight winner needs nothing here: its group is
                // closed, so its eventual record flows through the normal
                // harvest.
                continue;
            }
            match copy.done {
                Some(record) => {
                    // The loser finished before the race settled (both
                    // copies completing in one round): discard its record
                    // so the logical request counts once, including the
                    // copy an exact-mode engine retains.
                    self.engines[copy.replica].remove_completed(record.id);
                    self.spec_cancelled += 1;
                }
                None => {
                    // Cancel-on-first-token proper: tear the copy down on
                    // its queue through the eviction path (KV released,
                    // admitted-token accounting unwound).
                    if self.engines[copy.replica].cancel_request(rid) {
                        self.spec_cancelled += 1;
                        self.refresh(copy.replica);
                    }
                }
            }
        }
    }

    /// Books one completion that is not (or no longer) racing. On a
    /// prefill replica the record becomes a KV hand-off: the transfer of
    /// `kv_bytes_per_token_all_layers × prefill tokens` is priced through
    /// the congestion model, and the request is re-queued for the decode
    /// tier at `prefill finish + transfer time` (delivered by
    /// `route_next` in global time order). Everywhere
    /// else it is an end-to-end completion.
    fn book_record(&mut self, replica: usize, record: &RequestRecord) {
        if self.roles[replica] == ReplicaRole::Prefill {
            self.emit_handoff(record);
        } else {
            self.complete_end_to_end(replica, record);
        }
    }

    /// Turns one finished prefill record into a priced KV hand-off toward
    /// the decode tier (see [`Fleet::book_record`]).
    fn emit_handoff(&mut self, r: &RequestRecord) {
        let bytes = self.kv_bytes_per_token * f64::from(r.prefill_scheduled);
        let transfer = self.price_transfer(bytes);
        self.handoff.kv_transfers += 1;
        self.handoff.kv_transfer_bytes += bytes;
        self.handoff.kv_transfer_seconds += transfer;
        self.handoff.max_transfer_seconds = self.handoff.max_transfer_seconds.max(transfer);
        self.inflight.insert(
            r.id.0,
            HandoffMeta {
                arrival: r.arrival,
                prefill_finish: r.finish,
            },
        );
        self.handoff_seq += 1;
        let arrival = r.finish + transfer;
        self.pending_handoffs.push(Timed {
            time: arrival,
            tie: self.handoff_seq,
            item: Request {
                id: r.id,
                scenario: r.scenario,
                class: r.class,
                input_len: r.input_len,
                output_len: r.output_len,
                arrival,
            },
        });
    }

    /// Books one end-to-end completion on replica `i`: counts it, folds it
    /// into the fleet streaming sketch, closes its in-flight hand-off (if
    /// any), and feeds the router's latency feedback (a no-op for snapshot
    /// policies).
    fn complete_end_to_end(&mut self, i: usize, r: &RequestRecord) {
        self.completed += 1;
        if let Some(streaming) = self.streaming.as_mut() {
            streaming.observe_record(r);
        }
        if let Some(meta) = self.inflight.remove(&r.id.0) {
            let latency = (r.first_token - meta.prefill_finish).max(0.0);
            self.handoff.handoffs_completed += 1;
            self.handoff.handoff_latency_seconds += latency;
            self.handoff.max_handoff_latency = self.handoff.max_handoff_latency.max(latency);
            let ttft = (r.first_token - meta.arrival).max(0.0);
            self.handoff.e2e_ttft_seconds += ttft;
            self.handoff.max_e2e_ttft = self.handoff.max_e2e_ttft.max(ttft);
        }
        self.router.observe_completion(i, r);
    }

    /// Prices one prefill→decode KV transfer on the prefill platform's
    /// interconnect: the footprint is striped across `num_devices / 2`
    /// disjoint device pairs (device `i` → device `n−1−i`), so the
    /// estimate reflects the platform's cross-section bandwidth rather
    /// than one serialized link. Returns the modeled transfer seconds.
    fn price_transfer(&self, bytes: f64) -> f64 {
        let Some(model) = self.transfer_model.as_ref() else {
            return 0.0;
        };
        let n = self.topo.num_devices();
        let half = (n / 2).max(1);
        let per_pair = bytes / half as f64;
        let pairs: Vec<(DeviceId, DeviceId, f64)> = (0..half)
            .map(|i| (DeviceId(i as u32), DeviceId((n - 1 - i) as u32), per_pair))
            .collect();
        model.price_pairs(self.table, &pairs).total_time
    }

    /// Advances simulated time to `horizon` seconds (no-op if already
    /// past) in a causal discrete-event loop: a binary heap keyed on each
    /// replica's next-event time, interleaved with the single outstanding
    /// arrival event. Replicas with no queued or resident work *park* —
    /// they leave the heap, price nothing, and are woken (`fast_forward`
    /// to the arrival time) when the router next offers them a request.
    /// Arrivals at time *t* are routed before any step at *t*; step ties
    /// break by replica index. The loop stops at the first event at or
    /// beyond the horizon, and the fleet clock lands exactly on `horizon`
    /// (every routing decision up to it has been made).
    ///
    /// Timeline events join the routing stream and the step heap as a
    /// third event source and are applied at exactly their configured
    /// time — before routing and steps at the same instant. Crashes and
    /// retirements bump the replica's epoch, lazily invalidating its heap
    /// entries. Under [`SummaryMode::Streaming`] memory stays O(1) in
    /// request count, and `rounds()` advances by priced step events.
    ///
    /// The round-driven reference for the same horizon is
    /// `while fleet.sim_time() < horizon { fleet.run(1) }`: it prices an
    /// iteration on every replica every round, idle ones included.
    pub fn run_until(&mut self, horizon: f64) {
        // Rebuild the step heap from scratch: any steppable replica with
        // work pending steps next at its own clock; the rest are parked.
        let mut steps = StepHeap::new(self.engines.len());
        for i in 0..self.engines.len() {
            if self.states[i].steppable() && !idle(&self.view.snapshots[i]) {
                steps.push(i, self.engines[i].sim_time());
            }
        }
        loop {
            // One arrival is outstanding at a time (the lookahead), so the
            // next event is min(timeline, hand-off, lookahead, heap top) —
            // timeline first, then routing (see `route_next`), then step on
            // time ties (the router-before-replica contract). An exhausted
            // finite source (trace replay) stops producing arrival events;
            // steps and timeline events still fire.
            let step_time = steps.peek().map_or(f64::INFINITY, |s| s.time);
            let route_time = self.next_arrival_time().min(self.next_handoff_time());
            let timeline = self.pending_events.front().copied();
            let timeline_time = timeline.map_or(f64::INFINITY, |e| e.time);
            if timeline_time.min(route_time).min(step_time) >= horizon {
                break;
            }
            if let Some(event) = timeline.filter(|e| e.time <= route_time.min(step_time)) {
                self.pending_events.pop_front();
                self.apply_event(event, event.time);
                // Read what the event did off the view: a replica that
                // stopped stepping loses its heap entries, and one holding
                // work is woken if parked. Only a replica the event just
                // offered re-routed requests to can hold work while parked:
                // every other steppable replica with work is in the heap.
                steps.grow(self.engines.len());
                for i in 0..self.engines.len() {
                    if !self.states[i].steppable() {
                        steps.invalidate(i);
                    } else if !idle(&self.view.snapshots[i]) {
                        steps.wake(i, &mut self.engines[i], event.time);
                    }
                }
            } else if let Some((time, targets)) = self.route_next(step_time) {
                for t in targets {
                    steps.wake(t, &mut self.engines[t], time);
                }
            } else if let Some(StepEvent { tie: replica, .. }) = steps.pop() {
                self.engines[replica].step();
                self.rounds += 1;
                self.refresh(replica);
                if !idle(&self.view.snapshots[replica]) {
                    steps.push(replica, self.engines[replica].sim_time());
                } else if self.states[replica] == ReplicaState::Draining {
                    // A drainer running dry retires on the spot.
                    self.set_state(replica, ReplicaState::Retired);
                    steps.invalidate(replica);
                } else {
                    steps.park(replica);
                }
                // Only the stepped replica can have staged completions.
                self.harvest(replica);
                self.resolve_spec_groups();
            }
        }
        // Every timeline event, arrival, and step strictly before the
        // horizon has been processed: the covered span is exactly the
        // horizon.
        self.clock = self.clock.max(horizon);
    }

    /// Memory proxy: request records and iteration-history entries
    /// currently retained across all replicas. O(total completions) under
    /// [`SummaryMode::Exact`]; bounded by the replica count under
    /// [`SummaryMode::Streaming`] (one history entry per replica, staged
    /// completions drained every round / step event).
    pub fn retained_records(&self) -> usize {
        self.engines
            .iter()
            .map(InferenceEngine::retained_records)
            .sum()
    }

    /// Fleet-level serving statistics over the run so far.
    pub fn summary(&self) -> FleetSummary {
        let per_replica: Vec<ServingSummary> = self
            .engines
            .iter()
            .map(InferenceEngine::serving_summary)
            .collect();

        let total_rejects: u64 = per_replica.iter().map(|s| s.admission_rejects).sum();
        // Per-class admission counters are fleet-wide sums over the replica
        // queues (shed and rejected happen at the replica barrier, not at
        // the router).
        let mut shed_by_class = [0u64; 2];
        let mut rejected_by_class = [0u64; 2];
        for e in &self.engines {
            let (shed, rejected) = e.class_counters();
            for c in 0..2 {
                shed_by_class[c] += shed[c];
                rejected_by_class[c] += rejected[c];
            }
        }
        let classes: &[moe_workload::ClassSpec] = if self.template.workload_profile.is_default() {
            &[]
        } else {
            &self.template.workload_profile.classes
        };
        let mut aggregate = match self.streaming.as_ref() {
            // Streaming: the fleet's own sketch over the union of
            // completions (P² sketches don't merge, so it was fed as the
            // replicas drained). Goodput is against the fleet clock.
            Some(streaming) => streaming.summary_with_workload(
                total_rejects,
                0,
                self.clock,
                shed_by_class,
                rejected_by_class,
            ),
            // Exact: percentiles over the union of retained records. In a
            // disaggregated fleet a prefill replica's records are
            // hand-offs, not end-to-end completions — only decode-capable
            // replicas' records aggregate (the hand-off section carries
            // the prefill-side accounting).
            None => {
                let all_records: Vec<moe_workload::RequestRecord> = self
                    .engines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| self.roles[*i] != ReplicaRole::Prefill)
                    .flat_map(|(_, e)| e.completed_requests().iter().cloned())
                    .collect();
                let mut aggregate = ServingSummary::from_records_with_workload(
                    &all_records,
                    &[],
                    total_rejects,
                    0,
                    shed_by_class,
                    rejected_by_class,
                    classes,
                );
                aggregate.sim_seconds = self.clock;
                if self.clock > 0.0 {
                    aggregate.goodput_rps = all_records.len() as f64 / self.clock;
                    aggregate.goodput_tokens_per_s = all_records
                        .iter()
                        .map(|r| r.input_len as f64 + r.output_len as f64)
                        .sum::<f64>()
                        / self.clock;
                }
                aggregate
            }
        };
        // Occupancy aggregates are fleet-wide sums (max over replicas for
        // the depth high-water mark).
        for s in &per_replica {
            aggregate.mean_queue_depth += s.mean_queue_depth;
            aggregate.mean_active_requests += s.mean_active_requests;
            aggregate.max_queue_depth = aggregate.max_queue_depth.max(s.max_queue_depth);
            aggregate.peak_kv_tokens += s.peak_kv_tokens;
        }

        let completed = per_replica.iter().map(|s| s.completed as f64);

        FleetSummary {
            replicas: self.engines.len(),
            rounds: self.rounds,
            sim_seconds: self.clock,
            routed: self.router.routed().to_vec(),
            routing_imbalance: self.router.routing_imbalance(),
            completion_imbalance: moe_workload::max_mean_imbalance(completed),
            per_replica,
            aggregate,
            availability: self.availability(),
            handoff: self.handoff_readout(),
            speculative: FleetSpeculative {
                groups_dispatched: self.spec_dispatched,
                cancelled_copies: self.spec_cancelled,
                open_groups: self.spec_groups.len() as u64,
            },
        }
    }

    /// The hand-off section of [`Fleet::summary`] (all zeros for a
    /// colocated fleet).
    fn handoff_readout(&self) -> FleetHandoff {
        let t = &self.handoff;
        let mean = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        FleetHandoff {
            kv_transfers: t.kv_transfers,
            kv_transfer_bytes: t.kv_transfer_bytes,
            kv_transfer_seconds: t.kv_transfer_seconds,
            max_transfer_seconds: t.max_transfer_seconds,
            pending_transfers: self.pending_handoffs.len() as u64,
            handoffs_completed: t.handoffs_completed,
            mean_handoff_latency: mean(t.handoff_latency_seconds, t.handoffs_completed),
            max_handoff_latency: t.max_handoff_latency,
            mean_e2e_ttft: mean(t.e2e_ttft_seconds, t.handoffs_completed),
            max_e2e_ttft: t.max_e2e_ttft,
        }
    }

    /// The availability section of [`Fleet::summary`]: chaos counters, the
    /// time-weighted active-replica fraction (accrued lazily to the current
    /// clock — non-mutating), per-replica lifecycle states, and the
    /// goodput windows between event boundaries.
    fn availability(&self) -> FleetAvailability {
        let chaos = &self.chaos;
        let available_fraction = if self.clock > 0.0 {
            let tail = self.active_fraction() * (self.clock - chaos.last_t).max(0.0);
            ((chaos.avail_integral + tail) / self.clock).min(1.0)
        } else {
            1.0
        };
        // One window per span between consecutive boundaries: the start,
        // every event mark, and the clock. An event-free run has none.
        let starts = std::iter::once(("start", 0.0, 0)).chain(
            chaos
                .marks
                .iter()
                .map(|m| (m.label.as_str(), m.time, m.completed)),
        );
        let ends = chaos.marks.iter().map(|m| (m.time, m.completed));
        let goodput_windows = if chaos.marks.is_empty() {
            Vec::new()
        } else {
            starts
                .zip(ends.chain([(self.clock, self.completed)]))
                .map(|((after, start, before), (end, completed))| {
                    let completed = completed - before;
                    GoodputWindow {
                        after: after.to_string(),
                        start,
                        end,
                        completed,
                        goodput_rps: if end > start {
                            completed as f64 / (end - start)
                        } else {
                            0.0
                        },
                    }
                })
                .collect()
        };
        FleetAvailability {
            events_applied: chaos.events_applied,
            crash_interruptions: chaos.crash_interruptions,
            drain_rerouted: chaos.drain_rerouted,
            crash_rerouted: chaos.crash_rerouted,
            requeued_tokens: chaos.requeued_tokens,
            replayed_prefill_tokens: chaos.replayed_prefill_tokens,
            available_fraction,
            replica_states: self.states.iter().map(|s| s.name()).collect(),
            goodput_windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ErMapping;
    use moe_model::ModelConfig;
    use moe_workload::{Scenario, SchedulingMode, WorkloadMix};
    use wsc_topology::{Mesh, MultiWafer, PlatformParams};

    /// A deliberately out-of-order executor: runs a round's jobs last
    /// replica first.
    struct ReversedPool;
    impl ReplicaPool for ReversedPool {
        fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
            for job in jobs.into_iter().rev() {
                job();
            }
        }
    }

    fn engine_template(seed: u64) -> EngineConfig {
        let mut config = EngineConfig::new(ModelConfig::tiny())
            .with_seed(seed)
            .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
            .with_batch(BatchMode::Scheduled {
                mode: SchedulingMode::Hybrid,
                max_batch_tokens: 2048,
                max_active: 128,
                request_rate: 0.0, // ignored: the fleet owns arrivals
                iteration_period: 0.02,
            });
        config.kv_hbm_fraction = 1.0e-3;
        config
    }

    /// Compile-time guarantee the worker pool relies on: engines move
    /// across threads.
    #[test]
    fn inference_engine_is_send() {
        fn require_send<T: Send>() {}
        require_send::<InferenceEngine<'static>>();
        require_send::<Fleet<'static>>();
    }

    #[test]
    fn fleet_serves_and_conserves_requests() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(3, RouterPolicy::LeastQueueDepth, 6.0e3, engine_template(11));
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(300);
        let summary = fleet.summary();
        assert_eq!(summary.replicas, 3);
        assert_eq!(summary.rounds, 300);
        assert!(summary.sim_seconds > 0.0);
        assert!(summary.aggregate.completed > 0, "no request completed");
        // Conservation: every routed request is waiting, resident,
        // rejected, shed, or completed on exactly one replica.
        let routed: u64 = summary.routed.iter().sum();
        let accounted: u64 = fleet
            .engines()
            .iter()
            .zip(&summary.per_replica)
            .map(|(e, s)| {
                let snap = e.replica_snapshot().unwrap();
                snap.queue_depth as u64
                    + snap.active as u64
                    + s.admission_rejects
                    + s.shed
                    + s.completed as u64
            })
            .sum();
        assert_eq!(routed, accounted, "requests lost or double-counted");
        // Aggregate completions match the per-replica sum.
        let sum: usize = summary.per_replica.iter().map(|s| s.completed).sum();
        assert_eq!(summary.aggregate.completed, sum);
        assert!(summary.routing_imbalance >= 1.0);
        assert!(summary.completion_imbalance >= 1.0);
    }

    #[test]
    fn fleet_clock_is_min_replica_clock() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(2, RouterPolicy::RoundRobin, 4.0e3, engine_template(5));
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(50);
        let min = fleet
            .engines()
            .iter()
            .map(|e| e.sim_time())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(fleet.sim_time(), min);
        for e in fleet.engines() {
            assert!(e.sim_time() >= fleet.sim_time());
        }
    }

    #[test]
    fn pooled_round_matches_serial_round() {
        // Reversing job order must not change fleet state (replicas are
        // independent in a round).
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let run = |pool: &dyn ReplicaPool| {
            let config = FleetConfig::new(
                3,
                RouterPolicy::PowerOfTwoChoices,
                6.0e3,
                engine_template(17),
            );
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run_with(120, pool);
            fleet.summary()
        };
        let serial = run(&SerialReplicaPool);
        let reversed = run(&ReversedPool);
        assert_eq!(serial.routed, reversed.routed);
        assert_eq!(serial.aggregate, reversed.aggregate);
        assert_eq!(serial.per_replica, reversed.per_replica);
    }

    #[test]
    fn seed_split_gives_replicas_distinct_streams() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(2, RouterPolicy::RoundRobin, 4.0e3, engine_template(23));
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(30);
        // Round-robin feeds both replicas nearly identical load; distinct
        // gating streams mean their priced iteration times diverge.
        let [a, b] = &fleet.engines() else {
            panic!("two replicas")
        };
        assert_ne!(
            a.history.iter().map(|m| m.iteration_time).sum::<f64>(),
            b.history.iter().map(|m| m.iteration_time).sum::<f64>(),
        );
    }

    #[test]
    fn multiwafer_pods_and_backend_overrides_work() {
        let topo = MultiWafer::grid(2, 1, 4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan =
            crate::mapping::HierarchicalErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
                .unwrap()
                .plan();
        let config = FleetConfig::new(2, RouterPolicy::LeastKvPressure, 2.0e3, engine_template(31))
            .with_backend_overrides(vec![
                CongestionBackend::Analytic,
                CongestionBackend::FlowSimCached,
            ]);
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        assert_eq!(fleet.engines()[0].backend().name(), "analytic");
        assert_eq!(fleet.engines()[1].backend().name(), "flow-sim-cached");
        fleet.run(40);
        assert!(fleet.sim_time() > 0.0);
    }

    #[test]
    fn try_new_reports_exact_variants() {
        use crate::config::ConfigError;
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();

        let config = FleetConfig::new(0, RouterPolicy::RoundRobin, 1.0e3, engine_template(3));
        let err = Fleet::try_new(&topo, &table, &plan, config).err();
        assert_eq!(err, Some(ConfigError::ReplicasZero));

        let config = FleetConfig::new(
            2,
            RouterPolicy::RoundRobin,
            1.0e3,
            EngineConfig::new(ModelConfig::tiny()),
        );
        let err = Fleet::try_new(&topo, &table, &plan, config).err();
        assert_eq!(err, Some(ConfigError::FleetNeedsServingBatch));

        // Template validation runs before replica construction.
        let mut template = engine_template(3);
        template.load_ema = 0.0;
        let config = FleetConfig::new(2, RouterPolicy::RoundRobin, 1.0e3, template);
        let err = Fleet::try_new(&topo, &table, &plan, config).err();
        assert_eq!(err, Some(ConfigError::LoadEmaOutOfRange { value: 0.0 }));

        // A zero speculative fan-out is a typed error, not a router panic.
        let config = FleetConfig::new(
            2,
            RouterPolicy::Speculative { k: 0 },
            1.0e3,
            engine_template(3),
        );
        let err = Fleet::try_new(&topo, &table, &plan, config).err();
        assert_eq!(err, Some(ConfigError::SpeculativeFanOutZero));
    }

    /// The replica ceiling is checked before anything is sized by the
    /// count: a billion replicas (which would abort on a multi-terabyte
    /// allocation) and a scale-up past the ceiling both come back as the
    /// typed error, and the ceiling itself still builds.
    #[test]
    fn try_new_rejects_replicas_past_the_ceiling() {
        use crate::config::ConfigError;
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = |replicas: usize, events: Vec<FleetEvent>| {
            FleetConfig::new(
                replicas,
                RouterPolicy::RoundRobin,
                1.0e3,
                engine_template(3),
            )
            .with_events(events)
        };
        let err = Fleet::try_new(&topo, &table, &plan, config(1_000_000_000, vec![])).err();
        assert_eq!(
            err,
            Some(ConfigError::TooManyReplicas {
                replicas: 1_000_000_000,
                max: MAX_REPLICAS,
            })
        );
        let scale_up = |count| FleetEvent {
            time: 1.0e-3,
            kind: FleetEventKind::ScaleUp { count },
        };
        let err = Fleet::try_new(
            &topo,
            &table,
            &plan,
            config(2, vec![scale_up(MAX_REPLICAS - 1)]),
        )
        .err();
        assert_eq!(
            err,
            Some(ConfigError::TooManyReplicas {
                replicas: MAX_REPLICAS + 1,
                max: MAX_REPLICAS,
            })
        );
        // Saturating, so a count near usize::MAX cannot wrap under the bar.
        assert_eq!(
            validate_fleet_events_for_roles(&[ReplicaRole::Colocated; 2], &[scale_up(usize::MAX)]),
            Err(ConfigError::TooManyReplicas {
                replicas: usize::MAX,
                max: MAX_REPLICAS,
            })
        );
        assert_eq!(
            validate_replica_count(2, &[scale_up(MAX_REPLICAS - 2)]),
            Ok(())
        );
    }

    #[test]
    fn run_until_event_heap_skips_idle_iterations() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        // A deliberately underutilized fleet: a trickle of arrivals across
        // 4 replicas, so lock-step burns idle iterations on every round.
        let horizon = 2.0e-3;
        let new_fleet = || {
            let config = FleetConfig::new(4, RouterPolicy::RoundRobin, 2.0e3, engine_template(41));
            Fleet::new(&topo, &table, &plan, config)
        };
        // The lock-step reference: whole rounds until the clock passes the
        // horizon.
        let mut lockstep = new_fleet();
        while lockstep.sim_time() < horizon {
            lockstep.run(1);
        }
        let mut event = new_fleet();
        event.run_until(horizon);
        assert!(lockstep.sim_time() >= horizon);
        assert_eq!(event.sim_time(), horizon);
        // Lock-step prices replicas × rounds iterations; the event heap
        // prices only busy steps.
        let lockstep_steps: u64 = lockstep.rounds() * lockstep.engines().len() as u64;
        assert!(
            event.rounds() * 2 < lockstep_steps,
            "event heap priced {} steps vs lock-step {lockstep_steps}",
            event.rounds()
        );
        // Both serve the same arrival stream to completion-or-queue: the
        // same requests were routed (the router consumed the same prefix).
        let routed_l: u64 = lockstep.summary().routed.iter().sum();
        let routed_e: u64 = event.summary().routed.iter().sum();
        // Lock-step may route a hair more: its final round can overshoot
        // the horizon, pulling arrivals in (horizon, clock].
        assert!(routed_e <= routed_l);
        assert!(routed_e > 0, "no arrivals routed before the horizon");
    }

    #[test]
    fn streaming_fleet_bounds_memory_and_tracks_exact() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let run = |summary: SummaryMode| {
            let config = FleetConfig::new(
                2,
                RouterPolicy::PowerOfTwoChoices,
                1.2e5,
                engine_template(47).with_summary(summary),
            );
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run(400);
            let retained = fleet.retained_records();
            (fleet.summary(), retained)
        };
        let (exact, exact_retained) = run(SummaryMode::Exact);
        let (streaming, streaming_retained) = run(SummaryMode::Streaming);
        assert!(exact.aggregate.completed > 0);
        // Identical trajectory, different bookkeeping.
        assert_eq!(streaming.aggregate.completed, exact.aggregate.completed);
        assert_eq!(streaming.routed, exact.routed);
        assert_eq!(streaming.sim_seconds, exact.sim_seconds);
        assert_eq!(streaming.aggregate.goodput_rps, exact.aggregate.goodput_rps);
        assert_eq!(
            streaming.aggregate.max_queue_depth,
            exact.aggregate.max_queue_depth
        );
        // Streaming retains one history entry per replica; exact retains
        // every record and every iteration.
        assert_eq!(streaming_retained, 2);
        assert!(exact_retained > exact.aggregate.completed + 700);
        // Percentile estimates stay within the exact run's value range.
        assert!(streaming.aggregate.ttft_p50 > 0.0);
        assert!(streaming.aggregate.ttft_p50 <= streaming.aggregate.ttft_p99);
        assert!(streaming.aggregate.e2e_p50 <= streaming.aggregate.e2e_p99);
    }

    #[test]
    fn run_until_streaming_event_fleet_stays_bounded() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(
            3,
            RouterPolicy::LeastQueueDepth,
            6.0e4,
            engine_template(53).with_summary(SummaryMode::Streaming),
        );
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run_until(3.0e-3);
        let summary = fleet.summary();
        assert!(summary.aggregate.completed > 0, "no completions");
        // Bounded memory: at most one history entry per replica (a replica
        // that never woke retains nothing).
        assert!(fleet.retained_records() <= 3);
        assert_eq!(summary.sim_seconds, 3.0e-3);
        assert!(summary.aggregate.goodput_rps > 0.0);
    }

    #[test]
    fn event_timeline_validation_reports_exact_variants() {
        use crate::config::ConfigError;
        let drain = |time, replica| FleetEvent {
            time,
            kind: FleetEventKind::Drain { replica },
        };
        let crash = |time, replica| FleetEvent {
            time,
            kind: FleetEventKind::Crash { replica },
        };
        let recover = |time, replica| FleetEvent {
            time,
            kind: FleetEventKind::Recover { replica },
        };
        let scale = |time, count| FleetEvent {
            time,
            kind: FleetEventKind::ScaleUp { count },
        };
        let colocated = [ReplicaRole::Colocated; 3];

        assert_eq!(validate_fleet_events_for_roles(&colocated, &[]), Ok(()));
        assert_eq!(
            validate_fleet_events_for_roles(
                &colocated,
                &[crash(0.1, 1), recover(0.2, 1), drain(0.2, 0)]
            ),
            Ok(())
        );
        // Unsorted, NaN, infinite, and negative times.
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[crash(0.2, 1), drain(0.1, 0)]),
            Err(ConfigError::FleetEventsUnsorted { index: 1 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[crash(f64::NAN, 1)]),
            Err(ConfigError::FleetEventsUnsorted { index: 0 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[crash(f64::INFINITY, 1)]),
            Err(ConfigError::FleetEventsUnsorted { index: 0 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[crash(-0.1, 1)]),
            Err(ConfigError::FleetEventsUnsorted { index: 0 })
        );
        // Replica indices checked against the projected fleet size:
        // a scale-up extends the valid range mid-timeline.
        assert_eq!(
            validate_fleet_events_for_roles(&colocated[..2], &[drain(0.1, 2)]),
            Err(ConfigError::FleetEventReplicaOutOfRange {
                index: 0,
                replica: 2,
                replicas: 2
            })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated[..2], &[scale(0.1, 1), drain(0.2, 2)]),
            Ok(())
        );
        // No-op transitions: double-drain, crash after retire-by-drain
        // (projected), recover of a healthy replica, zero scale-up.
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[drain(0.1, 0), drain(0.2, 0)]),
            Err(ConfigError::FleetEventNoOp { index: 1 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[recover(0.1, 0)]),
            Err(ConfigError::FleetEventNoOp { index: 0 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[scale(0.1, 0)]),
            Err(ConfigError::FleetEventNoOp { index: 0 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[crash(0.1, 0), crash(0.2, 0)]),
            Err(ConfigError::FleetEventNoOp { index: 1 })
        );
        // A drained replica may crash before it empties (projected states
        // treat it as still draining).
        assert_eq!(
            validate_fleet_events_for_roles(&colocated, &[drain(0.1, 0), crash(0.2, 0)]),
            Ok(())
        );
        // The last active replica can neither drain nor crash.
        assert_eq!(
            validate_fleet_events_for_roles(&colocated[..1], &[drain(0.1, 0)]),
            Err(ConfigError::FleetEventLeavesNoReplicas { index: 0 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&colocated[..2], &[crash(0.1, 0), drain(0.2, 1)]),
            Err(ConfigError::FleetEventLeavesNoReplicas { index: 1 })
        );
        // try_new surfaces the same error.
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(1, RouterPolicy::RoundRobin, 1.0e3, engine_template(3))
            .with_events(vec![drain(0.1, 0)]);
        assert_eq!(
            Fleet::try_new(&topo, &table, &plan, config).err(),
            Some(ConfigError::FleetEventLeavesNoReplicas { index: 0 })
        );
    }

    /// Shared chaos timeline for the lifecycle tests: crash replica 1,
    /// drain replica 2, scale up by one, recover replica 1 — all early
    /// enough to fire within a short run (the test fleets advance their
    /// clocks by roughly 4 µs per round).
    fn chaos_events() -> Vec<FleetEvent> {
        vec![
            FleetEvent {
                time: 3.0e-4,
                kind: FleetEventKind::Crash { replica: 1 },
            },
            FleetEvent {
                time: 5.0e-4,
                kind: FleetEventKind::Drain { replica: 2 },
            },
            FleetEvent {
                time: 7.0e-4,
                kind: FleetEventKind::ScaleUp { count: 1 },
            },
            FleetEvent {
                time: 9.0e-4,
                kind: FleetEventKind::Recover { replica: 1 },
            },
        ]
    }

    #[test]
    fn chaos_timeline_runs_the_lifecycle_and_conserves_requests() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(3, RouterPolicy::LeastQueueDepth, 2.0e5, engine_template(11))
            .with_events(chaos_events());
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(900);
        assert_eq!(fleet.pending_events(), 0, "timeline never finished");
        let summary = fleet.summary();
        let avail = &summary.availability;
        assert_eq!(avail.events_applied, 4);
        assert_eq!(summary.replicas, 4, "scale-up did not add a replica");
        // Replica 1 crashed and recovered; replica 2 drained to retired;
        // replica 3 joined by scale-up.
        assert_eq!(
            avail.replica_states,
            vec!["active", "active", "retired", "active"]
        );
        assert!(
            avail.crash_interruptions > 0,
            "crash interrupted no in-flight requests"
        );
        assert!(avail.requeued_tokens > 0);
        assert!(avail.replayed_prefill_tokens > 0);
        assert!(avail.available_fraction > 0.0 && avail.available_fraction < 1.0);
        // Goodput windows: start + one per event, contiguous in time.
        assert_eq!(avail.goodput_windows.len(), 5);
        assert_eq!(avail.goodput_windows[0].after, "start");
        assert_eq!(avail.goodput_windows[1].after, "crash@0.0003");
        for pair in avail.goodput_windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(
            avail.goodput_windows.last().unwrap().end,
            summary.sim_seconds
        );
        // Conservation under chaos: every routing decision (first routes
        // and re-routes alike) lands a request in exactly one of the
        // per-replica dispositions, and each re-route was itself preceded
        // by an eviction.
        let routed: u64 = summary.routed.iter().sum();
        let accounted: u64 = fleet
            .engines()
            .iter()
            .zip(&summary.per_replica)
            .map(|(e, s)| {
                let snap = e.replica_snapshot().unwrap();
                snap.queue_depth as u64
                    + snap.active as u64
                    + s.admission_rejects
                    + s.shed
                    + s.completed as u64
            })
            .sum();
        let rerouted = avail.drain_rerouted + avail.crash_rerouted + avail.crash_interruptions;
        assert_eq!(routed, accounted + rerouted, "requests lost under chaos");
        // The crashed-and-recovered replica serves again after recovery;
        // the retired drainer holds nothing.
        assert!(summary.routed[3] > 0, "scale-up replica never routed to");
        let retired_snap = fleet.engines()[2].replica_snapshot().unwrap();
        assert_eq!(retired_snap.queue_depth, 0);
        assert_eq!(retired_snap.active, 0);
    }

    #[test]
    fn chaos_rounds_match_any_replica_pool() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let run = |pool: &dyn ReplicaPool| {
            let config =
                FleetConfig::new(3, RouterPolicy::LeastKvPressure, 2.0e5, engine_template(17))
                    .with_events(chaos_events());
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run_with(400, pool);
            fleet.summary()
        };
        assert_eq!(run(&SerialReplicaPool), run(&ReversedPool));
    }

    #[test]
    fn chaos_event_driven_run_until_applies_the_timeline() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(
            3,
            RouterPolicy::LeastQueueDepth,
            2.0e5,
            engine_template(53).with_summary(SummaryMode::Streaming),
        )
        .with_events(chaos_events());
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run_until(2.0e-3);
        assert_eq!(fleet.pending_events(), 0);
        let summary = fleet.summary();
        let avail = &summary.availability;
        assert_eq!(avail.events_applied, 4);
        assert_eq!(
            avail.replica_states,
            vec!["active", "active", "retired", "active"]
        );
        assert!(avail.crash_interruptions > 0);
        // Event-driven marks sit at exactly the configured times.
        assert_eq!(avail.goodput_windows[0].end, 3.0e-4);
        assert_eq!(avail.goodput_windows[2].start, 5.0e-4);
        assert!(summary.aggregate.completed > 0);
        // Determinism: the same run twice is bit-identical.
        let config2 = FleetConfig::new(
            3,
            RouterPolicy::LeastQueueDepth,
            2.0e5,
            engine_template(53).with_summary(SummaryMode::Streaming),
        )
        .with_events(chaos_events());
        let mut fleet2 = Fleet::new(&topo, &table, &plan, config2);
        fleet2.run_until(2.0e-3);
        assert_eq!(fleet2.summary(), summary);
    }

    #[test]
    fn event_free_summary_has_default_availability() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(2, RouterPolicy::RoundRobin, 4.0e3, engine_template(5));
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(50);
        let avail = fleet.summary().availability;
        assert_eq!(avail.events_applied, 0);
        assert_eq!(avail.crash_interruptions, 0);
        assert_eq!(avail.requeued_tokens, 0);
        assert_eq!(avail.available_fraction, 1.0);
        assert_eq!(avail.replica_states, vec!["active", "active"]);
        assert!(avail.goodput_windows.is_empty());
    }

    #[test]
    fn zero_completion_replicas_aggregate_cleanly() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        // An arrival rate so low that nothing arrives (let alone
        // completes) in a short run: every replica has zero completions.
        for summary_mode in [SummaryMode::Exact, SummaryMode::Streaming] {
            let config = FleetConfig::new(
                2,
                RouterPolicy::RoundRobin,
                1.0e-6,
                engine_template(7).with_summary(summary_mode),
            );
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run(3);
            let summary = fleet.summary();
            assert_eq!(summary.aggregate.completed, 0);
            assert_eq!(summary.aggregate.ttft_p99, 0.0);
            assert_eq!(summary.aggregate.goodput_rps, 0.0);
            assert_eq!(summary.completion_imbalance, 1.0);
            assert_eq!(summary.availability.available_fraction, 1.0);
        }
        // A crash on an all-idle fleet interrupts nothing but still marks
        // a goodput window (zero completed on both sides of the event).
        let config = FleetConfig::new(2, RouterPolicy::RoundRobin, 1.0e-6, engine_template(7))
            .with_events(vec![FleetEvent {
                time: 1.0e-4,
                kind: FleetEventKind::Crash { replica: 1 },
            }]);
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(40);
        let summary = fleet.summary();
        let avail = &summary.availability;
        assert_eq!(avail.events_applied, 1);
        assert_eq!(avail.crash_interruptions, 0);
        assert_eq!(avail.crash_rerouted, 0);
        assert_eq!(avail.replica_states, vec!["active", "failed"]);
        assert_eq!(avail.goodput_windows.len(), 2);
        assert!(avail.goodput_windows.iter().all(|w| w.completed == 0));
        assert!(avail.available_fraction < 1.0);
    }

    #[test]
    fn replica_role_names_round_trip_and_capabilities_hold() {
        for r in [
            ReplicaRole::Colocated,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
        ] {
            assert_eq!(r.name().parse::<ReplicaRole>().unwrap(), r);
        }
        assert!("Prefill".parse::<ReplicaRole>().is_err());
        assert_eq!(ReplicaRole::default(), ReplicaRole::Colocated);
        assert!(ReplicaRole::Colocated.prefill_capable());
        assert!(ReplicaRole::Colocated.decode_capable());
        assert!(ReplicaRole::Prefill.prefill_capable());
        assert!(!ReplicaRole::Prefill.decode_capable());
        assert!(!ReplicaRole::Decode.prefill_capable());
        assert!(ReplicaRole::Decode.decode_capable());
    }

    #[test]
    fn role_validation_reports_exact_variants() {
        use crate::config::ConfigError;
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let refs = PlatformRefs {
            topo: &topo,
            table: &table,
            layout: &plan,
        };
        let base = |roles: Vec<ReplicaRole>| {
            FleetConfig::new(2, RouterPolicy::RoundRobin, 1.0e3, engine_template(3))
                .with_roles(roles)
        };

        let err = Fleet::try_new_disaggregated(refs, None, base(vec![ReplicaRole::Prefill])).err();
        assert_eq!(
            err,
            Some(ConfigError::FleetRolesLengthMismatch {
                roles: 1,
                replicas: 2
            })
        );
        let err = Fleet::try_new_disaggregated(
            refs,
            None,
            base(vec![ReplicaRole::Decode, ReplicaRole::Decode]),
        )
        .err();
        assert_eq!(err, Some(ConfigError::FleetNoPrefillCapacity));
        let err = Fleet::try_new_disaggregated(
            refs,
            None,
            base(vec![ReplicaRole::Prefill, ReplicaRole::Prefill]),
        )
        .err();
        assert_eq!(err, Some(ConfigError::FleetNoDecodeCapacity));
        // A decode platform with no decode-role replica would never run.
        let err = Fleet::try_new_disaggregated(refs, Some(refs), base(vec![])).err();
        assert_eq!(err, Some(ConfigError::FleetDecodePlatformUnused));

        // Role-aware timelines: crashing the only prefill (or only decode)
        // replica of a disaggregated pair is rejected even though an
        // active replica remains.
        let crash = |time, replica| FleetEvent {
            time,
            kind: FleetEventKind::Crash { replica },
        };
        let pd = [ReplicaRole::Prefill, ReplicaRole::Decode];
        assert_eq!(
            validate_fleet_events_for_roles(&pd, &[crash(0.1, 0)]),
            Err(ConfigError::FleetEventLeavesNoPrefillCapacity { index: 0 })
        );
        assert_eq!(
            validate_fleet_events_for_roles(&pd, &[crash(0.1, 1)]),
            Err(ConfigError::FleetEventLeavesNoDecodeCapacity { index: 0 })
        );
        // A scale-up joins colocated (both-capable), unblocking both.
        let scale = |time, count| FleetEvent {
            time,
            kind: FleetEventKind::ScaleUp { count },
        };
        assert_eq!(
            validate_fleet_events_for_roles(&pd, &[scale(0.05, 1), crash(0.1, 0), crash(0.2, 1)]),
            Ok(())
        );
        // All-colocated role lists report the generic variant.
        assert_eq!(
            validate_fleet_events_for_roles(
                &[ReplicaRole::Colocated],
                &[FleetEvent {
                    time: 0.1,
                    kind: FleetEventKind::Drain { replica: 0 },
                }]
            ),
            Err(ConfigError::FleetEventLeavesNoReplicas { index: 0 })
        );
    }

    #[test]
    fn explicit_colocated_roles_match_the_roleless_fleet_bit_for_bit() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let run = |roles: Vec<ReplicaRole>| {
            let config =
                FleetConfig::new(3, RouterPolicy::LeastQueueDepth, 6.0e3, engine_template(11))
                    .with_roles(roles);
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run(200);
            fleet.summary()
        };
        let roleless = run(vec![]);
        let explicit = run(vec![ReplicaRole::Colocated; 3]);
        assert_eq!(roleless, explicit);
        assert_eq!(roleless.handoff, FleetHandoff::default());
    }

    fn disagg_config(seed: u64, rate: f64) -> FleetConfig {
        FleetConfig::new(
            4,
            RouterPolicy::LeastQueueDepth,
            rate,
            engine_template(seed),
        )
        .with_roles(vec![
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ])
    }

    #[test]
    fn disaggregated_fleet_prices_and_conserves_kv_transfers() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let mut fleet = Fleet::new(&topo, &table, &plan, disagg_config(61, 2.0e4));
        assert!(fleet.disaggregated());
        fleet.run(400);
        let summary = fleet.summary();
        let handoff = &summary.handoff;
        assert!(handoff.kv_transfers > 0, "no prefill ever handed off");
        assert!(handoff.kv_transfer_seconds > 0.0, "transfers were free");
        assert!(handoff.max_transfer_seconds > 0.0);
        assert!(handoff.handoffs_completed > 0, "no decode first token");
        assert!(handoff.mean_handoff_latency > 0.0);
        assert!(handoff.mean_e2e_ttft >= handoff.mean_handoff_latency);

        // Transfer bytes are pinned to the model:
        // kv_bytes_per_token_all_layers(FP16) × prefill tokens, summed
        // over every prefill-side record (exact mode retains them all).
        let per_token =
            ModelConfig::tiny().kv_bytes_per_token_all_layers(moe_model::Precision::Fp16);
        let expected: f64 = fleet
            .engines()
            .iter()
            .zip(fleet.roles())
            .filter(|(_, r)| **r == ReplicaRole::Prefill)
            .flat_map(|(e, _)| e.completed_requests())
            .map(|r| per_token * f64::from(r.prefill_scheduled))
            .sum();
        assert_eq!(handoff.kv_transfer_bytes, expected);
        // Every prefill record is exactly one priced transfer, and each
        // carried its full prompt (prefill-only records schedule the whole
        // input and nothing else).
        let prefill_records: u64 = fleet
            .engines()
            .iter()
            .zip(fleet.roles())
            .filter(|(_, r)| **r == ReplicaRole::Prefill)
            .map(|(e, _)| e.completed_requests().len() as u64)
            .sum();
        assert_eq!(handoff.kv_transfers, prefill_records);
        for (e, _) in fleet
            .engines()
            .iter()
            .zip(fleet.roles())
            .filter(|(_, r)| **r == ReplicaRole::Prefill)
        {
            for r in e.completed_requests() {
                assert_eq!(r.prefill_scheduled, r.input_len);
                assert_eq!(r.decode_scheduled, 0);
            }
        }

        // Conservation across the hand-off boundary (event-free fleet):
        // every routed dispatch is an arrival into the prefill tier or a
        // delivered transfer into the decode tier, and every priced
        // transfer is delivered, still pending, or waiting in a decode
        // queue.
        let routed: u64 = summary.routed.iter().sum();
        let tier = |role: ReplicaRole| -> u64 {
            fleet
                .engines()
                .iter()
                .zip(fleet.roles())
                .zip(&summary.per_replica)
                .filter(|((_, r), _)| **r == role)
                .map(|((e, _), s)| {
                    let snap = e.replica_snapshot().unwrap();
                    snap.queue_depth as u64
                        + snap.active as u64
                        + s.admission_rejects
                        + s.shed
                        + s.completed as u64
                })
                .sum()
        };
        let delivered = handoff.kv_transfers - handoff.pending_transfers;
        assert_eq!(routed, tier(ReplicaRole::Prefill) + delivered);
        assert_eq!(tier(ReplicaRole::Decode), delivered);
        // The aggregate counts end-to-end (decode-side) completions only.
        let decode_completed: usize = fleet
            .engines()
            .iter()
            .zip(fleet.roles())
            .filter(|(_, r)| **r == ReplicaRole::Decode)
            .map(|(e, _)| e.completed_requests().len())
            .sum();
        assert_eq!(summary.aggregate.completed, decode_completed);
    }

    #[test]
    fn disaggregated_schedulers_and_pools_agree_bit_for_bit() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let run = |pool: &dyn ReplicaPool| {
            let mut fleet = Fleet::new(&topo, &table, &plan, disagg_config(67, 2.0e4));
            fleet.run_with(300, pool);
            fleet.summary()
        };
        let reference = run(&SerialReplicaPool);
        assert!(reference.handoff.kv_transfers > 0);
        assert_eq!(reference, run(&ReversedPool));
    }

    #[test]
    fn disaggregated_event_driven_run_until_delivers_handoffs() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let run = || {
            let config = disagg_config(71, 2.0e4);
            let mut fleet = Fleet::new(&topo, &table, &plan, config);
            fleet.run_until(3.0e-3);
            fleet.summary()
        };
        let summary = run();
        assert!(summary.handoff.kv_transfers > 0);
        assert!(summary.handoff.handoffs_completed > 0);
        assert!(summary.aggregate.completed > 0);
        assert_eq!(summary.sim_seconds, 3.0e-3);
        // Deterministic: bit-identical on a second run.
        assert_eq!(summary, run());
    }

    #[test]
    fn heterogeneous_decode_platform_sizes_kv_from_its_own_topology() {
        let prefill_topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let prefill_table = RouteTable::build(&prefill_topo);
        let prefill_plan = ErMapping::with_tp_degree(prefill_topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        // A smaller decode platform: fewer devices, so a smaller KV
        // budget per decode replica, derived from *its* topology.
        let decode_topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let decode_table = RouteTable::build(&decode_topo);
        let decode_plan = ErMapping::with_tp_degree(decode_topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = disagg_config(73, 2.0e4);
        let mut fleet = Fleet::try_new_disaggregated(
            PlatformRefs {
                topo: &prefill_topo,
                table: &prefill_table,
                layout: &prefill_plan,
            },
            Some(PlatformRefs {
                topo: &decode_topo,
                table: &decode_table,
                layout: &decode_plan,
            }),
            config,
        )
        .unwrap();
        let budget = |i: usize| {
            fleet.engines()[i]
                .replica_snapshot()
                .unwrap()
                .kv_budget_tokens
        };
        assert!(
            budget(2) < budget(0),
            "decode budget {} not below prefill budget {}",
            budget(2),
            budget(0)
        );
        fleet.run(300);
        let summary = fleet.summary();
        assert!(summary.handoff.kv_transfers > 0);
        assert!(summary.handoff.handoffs_completed > 0);
    }

    #[test]
    fn decode_crash_requeues_through_the_prefill_tier() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = disagg_config(79, 1.0e5).with_events(vec![
            FleetEvent {
                time: 6.0e-4,
                kind: FleetEventKind::Crash { replica: 2 },
            },
            FleetEvent {
                time: 1.2e-3,
                kind: FleetEventKind::Recover { replica: 2 },
            },
        ]);
        let mut fleet = Fleet::new(&topo, &table, &plan, config);
        fleet.run(600);
        assert_eq!(fleet.pending_events(), 0);
        let summary = fleet.summary();
        assert_eq!(summary.availability.events_applied, 2);
        // The crashed decode replica held admitted hand-offs whose KV
        // died with it: they re-queued (PR 7 interruption path) through
        // prefill-capable replicas and replayed their prompt tokens.
        assert!(summary.availability.crash_interruptions > 0);
        assert!(summary.availability.replayed_prefill_tokens > 0);
        assert!(summary.handoff.kv_transfers > 0);
        // The fleet keeps serving: decode completions continue after the
        // crash (the other decode replica absorbs deliveries).
        assert!(summary.handoff.handoffs_completed > 0);
    }

    #[test]
    fn streaming_disaggregated_fleet_matches_exact_counts() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        // A snapshot, a feedback, and a speculative policy, each on a
        // colocated fleet and on a 2-prefill + 2-decode fleet: every path
        // through the completion channel (feedback, races, hand-offs).
        let policies = [
            RouterPolicy::LeastQueueDepth,
            RouterPolicy::EwmaLatency,
            RouterPolicy::Speculative { k: 2 },
        ];
        for policy in policies {
            for disaggregated in [false, true] {
                let run = |summary_mode: SummaryMode| {
                    let mut config = disagg_config(83, 2.0e4);
                    config.policy = policy;
                    if !disaggregated {
                        config.roles.clear();
                    }
                    config.engine = config.engine.with_summary(summary_mode);
                    let mut fleet = Fleet::new(&topo, &table, &plan, config);
                    fleet.run(400);
                    fleet.summary()
                };
                let exact = run(SummaryMode::Exact);
                let streaming = run(SummaryMode::Streaming);
                let case = format!("{} disaggregated={disaggregated}", policy.name());
                assert!(exact.aggregate.completed > 0, "{case}");
                assert_eq!(exact.handoff.kv_transfers > 0, disaggregated, "{case}");
                if let RouterPolicy::Speculative { .. } = policy {
                    assert!(exact.speculative.groups_dispatched > 0, "{case}");
                }
                // Same trajectory: identical hand-off, completion, routing
                // and speculative accounting under both summary modes.
                assert_eq!(streaming.handoff, exact.handoff, "{case}");
                assert_eq!(
                    streaming.aggregate.completed, exact.aggregate.completed,
                    "{case}"
                );
                assert_eq!(streaming.routed, exact.routed, "{case}");
                assert_eq!(streaming.speculative, exact.speculative, "{case}");
                if disaggregated {
                    // Each record an exact prefill replica retains is one
                    // hand-off: a race's finished loser copy is deleted.
                    let prefill_records: usize =
                        exact.per_replica[..2].iter().map(|s| s.completed).sum();
                    assert_eq!(prefill_records as u64, exact.handoff.kv_transfers, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "serving batch mode")]
    fn fixed_batch_template_is_rejected() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
            .unwrap()
            .plan();
        let config = FleetConfig::new(
            1,
            RouterPolicy::RoundRobin,
            1.0e3,
            EngineConfig::new(ModelConfig::tiny()),
        );
        let _ = Fleet::new(&topo, &table, &plan, config);
    }
}
