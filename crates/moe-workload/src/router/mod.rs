//! Front-end routing subsystem for multi-replica (fleet) serving.
//!
//! A fleet deployment puts N independent serving replicas — each a full
//! wafer (or multi-wafer pod) running its own continuous-batching engine —
//! behind one front end that owns the global arrival stream. The [`Router`]
//! decides, per request, what happens to it: which replica's serving queue
//! admits it, whether several replicas race speculative copies, or whether
//! the request is shed at the front end.
//!
//! The subsystem is layered:
//!
//! * [`RoutePolicy`] (in [`policy`]) is the open trait: one request plus a
//!   [`RouteCtx`] in, an [`Outcome`] (`Unicast` / `Multicast` / `Discard` /
//!   `Default`) out. Custom disciplines plug in via
//!   [`Router::with_policy`].
//! * [`RouterPolicy`] is the closed, serializable descriptor used by specs
//!   and sweeps. The four snapshot policies ([`RouterPolicy::RoundRobin`],
//!   [`RouterPolicy::LeastQueueDepth`], [`RouterPolicy::LeastKvPressure`],
//!   [`RouterPolicy::PowerOfTwoChoices`]) are canonical [`RoutePolicy`]
//!   impls whose dispatch — including the power-of-two sampling stream —
//!   is byte-identical to the original closed enum. The feedback policies
//!   ([`RouterPolicy::EwmaLatency`], [`RouterPolicy::LeastExpectedTtft`])
//!   and speculative dispatch ([`RouterPolicy::Speculative`]) build on the
//!   trait (see [`feedback`]).
//! * [`Router`] owns the policy, the seeded sampling stream, per-replica
//!   routed counts, and per-class discard counts, and normalizes outcomes
//!   into [`Decision`]s for the fleet.
//!
//! Routing is deterministic: every policy is a pure function of the request
//! sequence, the observed [`ReplicaSnapshot`]s, the feedback it received,
//! and (for sampling policies) the seed. Ties always break toward the
//! lowest replica index, so a fleet run is reproducible byte-for-byte
//! regardless of how replica stepping is scheduled between synchronization
//! points.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::requests::Request;
use crate::scheduler::SchedulingMode;
use crate::serving::RequestRecord;

pub mod feedback;
pub mod policy;

pub use feedback::{
    EwmaLatencyPolicy, LatencyFeedback, LeastExpectedTtftPolicy, SpeculativePolicy,
};
pub use policy::{
    argmin_by_filtered, LeastKvPressurePolicy, LeastQueueDepthPolicy, Outcome, PowerOfTwoPolicy,
    RoundRobinPolicy, RouteCtx, RoutePolicy,
};

/// Max/mean ratio of per-replica load counts — the fleet's balance metric
/// (1.0 when perfectly balanced or when nothing has been counted yet).
/// Shared by [`Router::routing_imbalance`] and the fleet summary's
/// completion-imbalance so the two ratios can never drift apart in
/// definition.
pub fn max_mean_imbalance(counts: impl IntoIterator<Item = f64>) -> f64 {
    let counts: Vec<f64> = counts.into_iter().collect();
    let total: f64 = counts.iter().sum();
    if counts.is_empty() || total <= 0.0 {
        return 1.0;
    }
    let mean = total / counts.len() as f64;
    counts.into_iter().fold(0.0, f64::max) / mean
}

/// One replica's load as observed by the router at a synchronization point.
///
/// The engine layer produces these from each replica's serving queue
/// (`InferenceEngine::replica_snapshot` in `moentwine-core`).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// Requests arrived but not yet admitted.
    pub queue_depth: usize,
    /// Requests admitted and not yet complete.
    pub active: usize,
    /// KV tokens currently reserved by resident requests.
    pub kv_tokens_in_use: u64,
    /// The replica's total KV-token capacity budget.
    pub kv_budget_tokens: u64,
    /// The replica's serving discipline (determines a request's KV
    /// footprint: the prefill tier only ever holds the prompt's KV).
    pub mode: SchedulingMode,
}

impl ReplicaSnapshot {
    /// KV tokens `request` would reserve on this replica at admission —
    /// [`SchedulingMode::kv_need`], the same rule the serving queue
    /// reserves by.
    pub fn kv_need(&self, request: &Request) -> u64 {
        self.mode.kv_need(request)
    }

    /// Whether this replica would have to *permanently reject* `request`:
    /// its KV footprint exceeds the whole budget, so it could never be
    /// admitted even on an empty replica.
    pub fn must_reject(&self, request: &Request) -> bool {
        self.kv_need(request) > self.kv_budget_tokens
    }

    /// Requests in flight (waiting + resident) — the queue-join cost.
    pub fn total_load(&self) -> usize {
        self.queue_depth + self.active
    }

    /// KV occupancy after admitting `request`, as a fraction of the budget
    /// (may exceed 1 when the request cannot currently fit).
    pub fn kv_pressure_with(&self, request: &Request) -> f64 {
        if self.kv_budget_tokens == 0 {
            return f64::INFINITY;
        }
        (self.kv_tokens_in_use as f64 + self.kv_need(request) as f64) / self.kv_budget_tokens as f64
    }
}

/// Serializable dispatch-discipline descriptor of a [`Router`]. See the
/// [module docs](self).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cyclic assignment.
    RoundRobin,
    /// Join the replica with the fewest waiting + resident requests.
    LeastQueueDepth,
    /// Join the replica with the lowest post-admission KV occupancy,
    /// excluding replicas that must permanently reject the request when an
    /// admitting replica exists.
    LeastKvPressure,
    /// Seeded power-of-two-choices: sample two distinct replicas, keep the
    /// less loaded.
    PowerOfTwoChoices,
    /// Feedback: join the replica with the lowest EWMA of observed TTFT.
    EwmaLatency,
    /// Feedback: join the replica with the lowest expected TTFT (TTFT EWMA
    /// plus load × TPOT EWMA queueing penalty).
    LeastExpectedTtft,
    /// Speculative dispatch: multicast each request to the `k` least-loaded
    /// replicas; the first copy to produce a token wins, the rest are
    /// cancelled.
    Speculative {
        /// Copies dispatched per request (≥ 1).
        k: usize,
    },
}

impl RouterPolicy {
    /// Stable lowercase name (`"round-robin"`, `"least-queue-depth"`,
    /// `"least-kv-pressure"`, `"power-of-two"`, `"ewma-ttft"`,
    /// `"least-expected-ttft"`, `"speculative:k=N"`), matching the
    /// `FromStr` spelling and the manifest/golden-file vocabulary.
    pub fn name(self) -> String {
        match self {
            RouterPolicy::RoundRobin => "round-robin".into(),
            RouterPolicy::LeastQueueDepth => "least-queue-depth".into(),
            RouterPolicy::LeastKvPressure => "least-kv-pressure".into(),
            RouterPolicy::PowerOfTwoChoices => "power-of-two".into(),
            RouterPolicy::EwmaLatency => "ewma-ttft".into(),
            RouterPolicy::LeastExpectedTtft => "least-expected-ttft".into(),
            RouterPolicy::Speculative { k } => format!("speculative:k={k}"),
        }
    }

    /// The four snapshot policies, for sweep-style experiments. Feedback
    /// and speculative policies are deliberately excluded so pre-existing
    /// sweep manifests stay byte-identical; see [`RouterPolicy::extended`].
    pub fn all() -> [RouterPolicy; 4] {
        [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastQueueDepth,
            RouterPolicy::LeastKvPressure,
            RouterPolicy::PowerOfTwoChoices,
        ]
    }

    /// Every canonical policy, snapshot and beyond (speculative at its
    /// default fan-out) — the grid the `router_compare` figure sweeps.
    pub fn extended() -> Vec<RouterPolicy> {
        let mut policies: Vec<RouterPolicy> = RouterPolicy::all().into();
        policies.extend([
            RouterPolicy::EwmaLatency,
            RouterPolicy::LeastExpectedTtft,
            RouterPolicy::Speculative { k: 2 },
        ]);
        policies
    }

    /// Builds the canonical [`RoutePolicy`] implementation for a fleet of
    /// `replicas` replicas.
    pub fn build(self, replicas: usize) -> Box<dyn RoutePolicy> {
        match self {
            RouterPolicy::RoundRobin => Box::new(RoundRobinPolicy::default()),
            RouterPolicy::LeastQueueDepth => Box::new(LeastQueueDepthPolicy),
            RouterPolicy::LeastKvPressure => Box::new(LeastKvPressurePolicy),
            RouterPolicy::PowerOfTwoChoices => Box::new(PowerOfTwoPolicy),
            RouterPolicy::EwmaLatency => Box::new(EwmaLatencyPolicy::new(replicas)),
            RouterPolicy::LeastExpectedTtft => Box::new(LeastExpectedTtftPolicy::new(replicas)),
            RouterPolicy::Speculative { k } => Box::new(SpeculativePolicy::new(k)),
        }
    }
}

impl std::str::FromStr for RouterPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(spec) = s.strip_prefix("speculative") {
            // "speculative" (default fan-out) or "speculative:k=N".
            let k = match spec {
                "" => 2,
                _ => spec
                    .strip_prefix(":k=")
                    .and_then(|k| k.parse::<usize>().ok())
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| {
                        format!(
                            "unknown router policy {s:?} (speculative dispatch is spelled \
                             \"speculative:k=N\" with N >= 1)"
                        )
                    })?,
            };
            return Ok(RouterPolicy::Speculative { k });
        }
        match s {
            "round-robin" | "rr" => Ok(RouterPolicy::RoundRobin),
            "least-queue-depth" | "least-queue" | "jsq" => Ok(RouterPolicy::LeastQueueDepth),
            "least-kv-pressure" | "least-kv" => Ok(RouterPolicy::LeastKvPressure),
            "power-of-two" | "p2c" => Ok(RouterPolicy::PowerOfTwoChoices),
            "ewma-ttft" | "ewma" => Ok(RouterPolicy::EwmaLatency),
            "least-expected-ttft" | "expected-ttft" => Ok(RouterPolicy::LeastExpectedTtft),
            other => Err(format!(
                "unknown router policy {other:?} (expected \"round-robin\", \
                 \"least-queue-depth\", \"least-kv-pressure\", \"power-of-two\", \
                 \"ewma-ttft\", \"least-expected-ttft\", or \"speculative:k=N\")"
            )),
        }
    }
}

impl std::fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A routing decision after the router normalized the policy's
/// [`Outcome`]: the accounting (routed counts, per-class discards) has
/// already been applied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Dispatch to this replica.
    Unicast(usize),
    /// Dispatch a speculative copy to each listed replica (≥ 2 targets,
    /// primary first); the fleet cancels the losers at first token.
    Speculative(Vec<usize>),
    /// Shed at the front end: the request reaches no replica.
    Shed,
}

/// SplitMix64 stream splitting, mirroring the fleet's seed derivation, so
/// a post-scale-up sampling stream is a pure function of `(seed, first new
/// replica index)`.
fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separator for the router's sampling stream (kept from the
/// pre-trait router so existing power-of-two traces stay byte-identical).
const SAMPLING_SALT: u64 = 0x00F1_EE7B_A11A_D000;

/// The front-end dispatcher. See the [module docs](self).
#[derive(Debug)]
pub struct Router {
    /// The serializable descriptor, when built from one ([`Router::new`]);
    /// `None` for custom [`Router::with_policy`] routers.
    descriptor: Option<RouterPolicy>,
    policy: Box<dyn RoutePolicy>,
    replicas: usize,
    /// The seed [`Router::new`] was given, kept for deterministic stream
    /// re-derivation on scale-up.
    seed: u64,
    /// Seeded sampling stream handed to the policy through [`RouteCtx`].
    /// Only sampling policies (power-of-two) draw from it, so the others
    /// stay RNG-free and the stream is a pure function of `(seed, draw
    /// count)` — and, after a scale-up, of `(seed, first new replica
    /// index, post-growth draw count)`.
    rng: rand::rngs::StdRng,
    /// Requests routed to each replica so far (speculative copies each
    /// count once on their replica).
    routed: Vec<u64>,
    /// Requests shed by [`Outcome::Discard`], per request class — the
    /// front-end counterpart of the queues' deadline sheds.
    discarded: [u64; 2],
}

impl Clone for Router {
    fn clone(&self) -> Self {
        Router {
            descriptor: self.descriptor,
            policy: self.policy.clone_box(),
            replicas: self.replicas,
            seed: self.seed,
            rng: self.rng.clone(),
            routed: self.routed.clone(),
            discarded: self.discarded,
        }
    }
}

impl Router {
    /// Creates a router over `replicas` replicas running the canonical
    /// implementation of `policy`. `seed` feeds only the sampling stream
    /// ([`RouterPolicy::PowerOfTwoChoices`] draws from it).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(policy: RouterPolicy, replicas: usize, seed: u64) -> Self {
        let built = policy.build(replicas);
        let mut router = Self::with_policy(built, replicas, seed);
        router.descriptor = Some(policy);
        router
    }

    /// Creates a router running a custom [`RoutePolicy`] implementation —
    /// the open extension point. The router still owns the sampling
    /// stream, the routed counts, and the discard accounting.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn with_policy(policy: Box<dyn RoutePolicy>, replicas: usize, seed: u64) -> Self {
        assert!(replicas > 0, "need at least one replica");
        Router {
            descriptor: None,
            policy,
            replicas,
            seed,
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ SAMPLING_SALT),
            routed: vec![0; replicas],
            discarded: [0; 2],
        }
    }

    /// The dispatch-policy descriptor.
    ///
    /// # Panics
    ///
    /// Panics for routers built from a custom [`RoutePolicy`] (use
    /// [`Router::policy_name`] there).
    pub fn policy(&self) -> RouterPolicy {
        self.descriptor
            .expect("router was built from a custom RoutePolicy; use policy_name()")
    }

    /// The policy's stable name (defined for every router, including
    /// custom-policy ones).
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Number of replicas routed over.
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// Requests routed to each replica so far.
    pub fn routed(&self) -> &[u64] {
        &self.routed
    }

    /// Requests shed by [`Outcome::Discard`], indexed by
    /// [`RequestClass::index`](crate::profile::RequestClass::index).
    pub fn discarded(&self) -> [u64; 2] {
        self.discarded
    }

    /// Feeds one completed request back to the policy. A no-op unless
    /// [`RoutePolicy::wants_feedback`], keeping the snapshot-policy drive
    /// byte-identical to the pre-feedback router. Callers must deliver
    /// records in a deterministic order (the fleet: replica order at each
    /// round-driven synchronization point, causal order under the event
    /// drive).
    pub fn observe_completion(&mut self, replica: usize, record: &RequestRecord) {
        if self.policy.wants_feedback() {
            self.policy
                .observe(replica, &LatencyFeedback::from_record(record));
        }
    }

    /// Max/mean ratio of per-replica routed-request counts (1.0 when
    /// perfectly balanced or nothing routed yet).
    pub fn routing_imbalance(&self) -> f64 {
        max_mean_imbalance(self.routed.iter().map(|&r| r as f64))
    }

    /// Extends the fleet by `additional` replicas (scale-up): the new
    /// replicas join the routable range with zero routed counts, and the
    /// policy's per-replica state extends through [`RoutePolicy::on_grow`].
    /// The round-robin cursor survives growth.
    ///
    /// The sampling stream is *re-derived* from `(seed, index of the first
    /// new replica)`: post-scale-up sampling decisions are a pure function
    /// of the post-growth draw count, insensitive to how much traffic
    /// happened to precede the scale-up event. (Decisions already made are
    /// untouched — growth never rewrites history.)
    pub fn grow(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        let first_new = self.replicas;
        self.replicas += additional;
        self.routed.resize(self.replicas, 0);
        self.rng = rand::rngs::StdRng::seed_from_u64(split_seed(
            self.seed ^ SAMPLING_SALT,
            first_new as u64,
        ));
        self.policy.on_grow(self.replicas);
    }

    /// Picks the replica `request` is dispatched to, given one snapshot per
    /// replica (in replica order), and records the assignment. Multi-target
    /// and discard outcomes are resolved to a single replica (primary copy
    /// / fallback) — this entry point never drops a request, which the
    /// fleet's crash/drain re-route path relies on; use
    /// [`Router::route_decision`] for full outcome semantics.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` differs from the configured replica
    /// count.
    pub fn route(&mut self, request: &Request, snapshots: &[ReplicaSnapshot]) -> usize {
        self.resolve_unicast(request, snapshots, None)
    }

    /// Like [`Router::route`], restricted to replicas with `eligible[i]`
    /// set — fleet membership under elasticity events, where draining,
    /// failed, and retired replicas must never be routed to. With every
    /// replica eligible this is byte-identical to [`Router::route`]
    /// (identical power-of-two RNG stream included).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the replica count or no
    /// replica is eligible.
    pub fn route_among(
        &mut self,
        request: &Request,
        snapshots: &[ReplicaSnapshot],
        eligible: &[bool],
    ) -> usize {
        self.resolve_unicast(request, snapshots, Some(eligible))
    }

    /// Routes with full [`Outcome`] semantics: unicast and speculative
    /// multicast dispatches are accounted per target replica, discards per
    /// request class. The fleet's arrival path drives this entry point.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches, an empty eligible set, or a policy
    /// outcome that names no eligible replica.
    pub fn route_decision(
        &mut self,
        request: &Request,
        snapshots: &[ReplicaSnapshot],
        eligible: &[bool],
    ) -> Decision {
        match self.decide(request, snapshots, Some(eligible)) {
            Outcome::Unicast(i) => {
                self.routed[i] += 1;
                Decision::Unicast(i)
            }
            Outcome::Multicast(targets) => {
                for &i in &targets {
                    self.routed[i] += 1;
                }
                if targets.len() == 1 {
                    Decision::Unicast(targets[0])
                } else {
                    Decision::Speculative(targets)
                }
            }
            Outcome::Default => {
                let i = self.fallback(snapshots, Some(eligible));
                self.routed[i] += 1;
                Decision::Unicast(i)
            }
            Outcome::Discard => {
                self.discarded[request.class.index()] += 1;
                Decision::Shed
            }
        }
    }

    /// Validates inputs, runs the policy, and normalizes its outcome:
    /// multicast target lists are deduplicated (first occurrence wins) and
    /// restricted to eligible replicas.
    fn decide(
        &mut self,
        request: &Request,
        snapshots: &[ReplicaSnapshot],
        eligible: Option<&[bool]>,
    ) -> Outcome {
        assert_eq!(
            snapshots.len(),
            self.replicas,
            "snapshot count must match replica count"
        );
        if let Some(mask) = eligible {
            assert_eq!(
                mask.len(),
                self.replicas,
                "eligibility mask must match replica count"
            );
            assert!(mask.iter().any(|&e| e), "no eligible replica to route to");
        }
        let mut ctx = RouteCtx {
            snapshots,
            eligible,
            rng: &mut self.rng,
        };
        let outcome = self.policy.route(request, &mut ctx);
        let ok = |i: usize| i < self.replicas && eligible.is_none_or(|mask| mask[i]);
        match outcome {
            Outcome::Unicast(i) => {
                assert!(ok(i), "policy routed to ineligible replica {i}");
                Outcome::Unicast(i)
            }
            Outcome::Multicast(targets) => {
                let mut seen = vec![false; self.replicas];
                let targets: Vec<usize> = targets
                    .into_iter()
                    .filter(|&i| ok(i) && !std::mem::replace(&mut seen[i], true))
                    .collect();
                assert!(
                    !targets.is_empty(),
                    "multicast outcome names no eligible replica"
                );
                Outcome::Multicast(targets)
            }
            other => other,
        }
    }

    /// Resolves any outcome to one replica: the unicast target, a
    /// multicast's primary copy, or the fallback for `Default`/`Discard`.
    fn resolve_unicast(
        &mut self,
        request: &Request,
        snapshots: &[ReplicaSnapshot],
        eligible: Option<&[bool]>,
    ) -> usize {
        let choice = match self.decide(request, snapshots, eligible) {
            Outcome::Unicast(i) => i,
            Outcome::Multicast(targets) => targets[0],
            Outcome::Default | Outcome::Discard => self.fallback(snapshots, eligible),
        };
        self.routed[choice] += 1;
        choice
    }

    /// The fallback discipline behind [`Outcome::Default`]: deterministic
    /// least queue depth over the eligible replicas, ties to the lowest
    /// index.
    fn fallback(&self, snapshots: &[ReplicaSnapshot], eligible: Option<&[bool]>) -> usize {
        argmin_by_filtered(
            snapshots,
            |i, _| eligible.is_none_or(|mask| mask[i]),
            |_, s| (s.total_load() as u64, s.kv_tokens_in_use),
        )
        .expect("an eligible replica exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestId;
    use crate::scenario::Scenario;

    fn req(id: u64, input: u32, output: u32) -> Request {
        Request {
            id: RequestId(id),
            scenario: Scenario::Chat,
            class: crate::profile::RequestClass::Interactive,
            input_len: input,
            output_len: output,
            arrival: id as f64,
        }
    }

    fn snap(queue: usize, active: usize, kv_used: u64, kv_budget: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            queue_depth: queue,
            active,
            kv_tokens_in_use: kv_used,
            kv_budget_tokens: kv_budget,
            mode: SchedulingMode::Hybrid,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let snaps = vec![snap(9, 9, 0, 100); 3];
        let mut r = Router::new(RouterPolicy::RoundRobin, 3, 0);
        let picks: Vec<usize> = (0..7).map(|i| r.route(&req(i, 1, 1), &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(r.routed(), &[3, 2, 2]);
    }

    #[test]
    fn least_queue_depth_joins_shortest() {
        let snaps = vec![snap(5, 2, 0, 100), snap(1, 3, 0, 100), snap(2, 2, 0, 100)];
        let mut r = Router::new(RouterPolicy::LeastQueueDepth, 3, 0);
        assert_eq!(r.route(&req(0, 1, 1), &snaps), 1);
        // Equal total load breaks on KV occupancy, then the lowest index.
        let kv_tied = vec![snap(2, 2, 7, 100), snap(1, 3, 4, 100), snap(3, 1, 9, 100)];
        assert_eq!(r.route(&req(1, 1, 1), &kv_tied), 1);
        let fully_tied = vec![snap(2, 2, 7, 100); 3];
        assert_eq!(r.route(&req(2, 1, 1), &fully_tied), 0);
    }

    #[test]
    fn least_kv_pressure_prefers_emptiest_cache() {
        let snaps = vec![
            snap(0, 0, 80, 100),
            snap(0, 0, 20, 100),
            snap(0, 0, 50, 100),
        ];
        let mut r = Router::new(RouterPolicy::LeastKvPressure, 3, 0);
        assert_eq!(r.route(&req(0, 5, 5), &snaps), 1);
    }

    /// The satellite property: `LeastKvPressure` never routes to a replica
    /// that must permanently reject the request while another can admit it.
    #[test]
    fn least_kv_pressure_avoids_must_reject_replicas() {
        // Replica 0 has the lowest occupancy but a tiny budget that can
        // never hold the request; replica 1 can.
        let snaps = vec![snap(0, 0, 0, 10), snap(0, 0, 900, 1000)];
        let mut r = Router::new(RouterPolicy::LeastKvPressure, 2, 0);
        let big = req(0, 50, 50); // needs 100 KV tokens
        assert!(snaps[0].must_reject(&big));
        assert!(!snaps[1].must_reject(&big));
        assert_eq!(r.route(&big, &snaps), 1);
        // A small request goes back to the emptier replica.
        assert_eq!(r.route(&req(1, 2, 2), &snaps), 0);
        // When every replica must reject, the choice degenerates to the
        // least-pressured one instead of panicking.
        let hopeless = vec![snap(0, 0, 5, 10), snap(0, 0, 2, 10)];
        assert_eq!(r.route(&big, &hopeless), 1);
    }

    #[test]
    fn prefill_only_mode_counts_prompt_footprint() {
        let s = ReplicaSnapshot {
            mode: SchedulingMode::PrefillOnly,
            ..snap(0, 0, 0, 64)
        };
        let r = req(0, 60, 1000);
        assert_eq!(s.kv_need(&r), 60);
        assert!(!s.must_reject(&r));
    }

    #[test]
    fn power_of_two_is_deterministic_at_fixed_seed() {
        let snaps: Vec<ReplicaSnapshot> = (0..8)
            .map(|i| snap(i as usize % 3, i as usize, 0, 100))
            .collect();
        let run = |seed: u64| {
            let mut r = Router::new(RouterPolicy::PowerOfTwoChoices, 8, seed);
            (0..100)
                .map(|i| r.route(&req(i, 1, 1), &snaps))
                .collect::<Vec<usize>>()
        };
        assert_eq!(run(7), run(7), "same seed must reproduce the sequence");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn power_of_two_prefers_less_loaded_sample() {
        // One overloaded replica: with two choices it is only picked when
        // both samples land on it, which the load comparison forbids unless
        // it *is* the less loaded — so it should receive far under 1/2 of
        // the traffic that naive random assignment would give it.
        let snaps = vec![snap(50, 50, 0, 100), snap(0, 0, 0, 100)];
        let mut r = Router::new(RouterPolicy::PowerOfTwoChoices, 2, 3);
        for i in 0..200 {
            r.route(&req(i, 1, 1), &snaps);
        }
        assert_eq!(r.routed()[0], 0, "overloaded replica must never win a pair");
        assert_eq!(r.routed()[1], 200);
    }

    #[test]
    fn routing_imbalance_ratio() {
        let mut r = Router::new(RouterPolicy::RoundRobin, 2, 0);
        assert_eq!(r.routing_imbalance(), 1.0);
        let snaps = vec![snap(0, 0, 0, 100); 2];
        for i in 0..4 {
            r.route(&req(i, 1, 1), &snaps);
        }
        assert_eq!(r.routing_imbalance(), 1.0);
        // Force skew through round-robin with an odd count: 3 vs 2.
        let _ = r.route(&req(5, 1, 1), &snaps);
        assert!((r.routing_imbalance() - 3.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn policy_names_parse_and_print() {
        for p in RouterPolicy::extended() {
            assert_eq!(p.name().parse::<RouterPolicy>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!("p2c".parse(), Ok(RouterPolicy::PowerOfTwoChoices));
        assert_eq!("jsq".parse(), Ok(RouterPolicy::LeastQueueDepth));
        assert_eq!("ewma".parse(), Ok(RouterPolicy::EwmaLatency));
        assert_eq!(
            "speculative".parse(),
            Ok(RouterPolicy::Speculative { k: 2 })
        );
        assert_eq!(
            "speculative:k=5".parse(),
            Ok(RouterPolicy::Speculative { k: 5 })
        );
        assert!("random".parse::<RouterPolicy>().is_err());
        assert!("speculative:k=0".parse::<RouterPolicy>().is_err());
        assert!("speculative:k=two".parse::<RouterPolicy>().is_err());
    }

    #[test]
    fn extended_grid_is_all_plus_feedback_and_speculative() {
        let extended = RouterPolicy::extended();
        assert_eq!(&extended[..4], &RouterPolicy::all());
        assert_eq!(extended.len(), 7);
    }

    #[test]
    #[should_panic(expected = "snapshot count")]
    fn snapshot_count_mismatch_panics() {
        let mut r = Router::new(RouterPolicy::RoundRobin, 3, 0);
        r.route(&req(0, 1, 1), &[snap(0, 0, 0, 1)]);
    }

    /// The tentpole membership property: a masked route never lands on an
    /// ineligible (draining / failed / retired) replica, whatever the
    /// policy, mask, or load pattern.
    #[test]
    fn route_among_never_picks_ineligible_replicas() {
        let n = 6;
        for policy in RouterPolicy::extended() {
            let mut r = Router::new(policy, n, 99);
            for i in 0..300u64 {
                // A rotating single-survivor-to-majority mask and skewed
                // loads, exercising every argmin/tie path.
                let mut eligible = vec![false; n];
                for k in 0..(1 + (i as usize % n)) {
                    eligible[(i as usize + k * 2) % n] = true;
                }
                let snaps: Vec<ReplicaSnapshot> = (0..n)
                    .map(|j| snap(j * 3 % 5, (i as usize + j) % 4, (j as u64) * 7, 100))
                    .collect();
                let choice = r.route_among(&req(i, 2, 2), &snaps, &eligible);
                assert!(
                    eligible[choice],
                    "{policy:?} routed to ineligible replica {choice} (mask {eligible:?})"
                );
            }
        }
    }

    /// With a full mask, `route_among` is byte-identical to `route` —
    /// including the power-of-two RNG stream.
    #[test]
    fn route_among_full_mask_matches_route() {
        let n = 5;
        let snaps: Vec<ReplicaSnapshot> = (0..n)
            .map(|j| snap(j % 3, (j * 2) % 4, (j as u64) * 11, 100))
            .collect();
        for policy in RouterPolicy::all() {
            let mut plain = Router::new(policy, n, 41);
            let mut masked = Router::new(policy, n, 41);
            let eligible = vec![true; n];
            for i in 0..200u64 {
                let a = plain.route(&req(i, 1, 1), &snaps);
                let b = masked.route_among(&req(i, 1, 1), &snaps, &eligible);
                assert_eq!(a, b, "{policy:?} diverged at request {i}");
            }
            assert_eq!(plain.routed(), masked.routed());
        }
    }

    #[test]
    fn grow_extends_the_routable_range() {
        let mut r = Router::new(RouterPolicy::RoundRobin, 2, 0);
        let snaps2 = vec![snap(0, 0, 0, 100); 2];
        assert_eq!(r.route(&req(0, 1, 1), &snaps2), 0);
        r.grow(1);
        assert_eq!(r.num_replicas(), 3);
        let snaps3 = vec![snap(0, 0, 0, 100); 3];
        // Cursor survives growth: 1, 2, 0, ...
        assert_eq!(r.route(&req(1, 1, 1), &snaps3), 1);
        assert_eq!(r.route(&req(2, 1, 1), &snaps3), 2);
        assert_eq!(r.routed(), &[1, 1, 1]);
    }

    /// The scale-up regression (satellite fix): the post-growth sampling
    /// stream is re-derived from `(seed, first new replica index)`, so two
    /// routers that saw *different amounts* of pre-growth traffic make
    /// identical post-growth decisions — scale-up routing is insensitive to
    /// prior event history.
    #[test]
    fn grow_reseeds_the_sampling_stream_deterministically() {
        let run = |pre_routes: u64| {
            let mut r = Router::new(RouterPolicy::PowerOfTwoChoices, 3, 77);
            let pre = vec![snap(1, 1, 0, 100); 3];
            for i in 0..pre_routes {
                r.route(&req(i, 1, 1), &pre);
            }
            r.grow(2);
            let post: Vec<ReplicaSnapshot> = (0..5).map(|j| snap(j, j, 0, 100)).collect();
            (0..50)
                .map(|i| r.route(&req(1000 + i, 1, 1), &post))
                .collect::<Vec<usize>>()
        };
        assert_eq!(
            run(3),
            run(250),
            "post-scale-up routing must not depend on pre-growth traffic volume"
        );
        // And it still depends on the master seed.
        let mut other = Router::new(RouterPolicy::PowerOfTwoChoices, 3, 78);
        let pre = vec![snap(1, 1, 0, 100); 3];
        for i in 0..3 {
            other.route(&req(i, 1, 1), &pre);
        }
        other.grow(2);
        let post: Vec<ReplicaSnapshot> = (0..5).map(|j| snap(j, j, 0, 100)).collect();
        let picks: Vec<usize> = (0..50)
            .map(|i| other.route(&req(1000 + i, 1, 1), &post))
            .collect();
        assert_ne!(picks, run(3), "different seeds should diverge after growth");
    }

    #[test]
    #[should_panic(expected = "no eligible replica")]
    fn route_among_rejects_an_empty_mask() {
        let mut r = Router::new(RouterPolicy::LeastQueueDepth, 2, 0);
        let snaps = vec![snap(0, 0, 0, 100); 2];
        r.route_among(&req(0, 1, 1), &snaps, &[false, false]);
    }

    #[test]
    fn route_decision_accounts_speculative_copies_per_replica() {
        let mut r = Router::new(RouterPolicy::Speculative { k: 2 }, 3, 0);
        let snaps = vec![snap(0, 0, 0, 100), snap(2, 2, 0, 100), snap(1, 0, 0, 100)];
        let decision = r.route_decision(&req(0, 1, 1), &snaps, &[true; 3]);
        assert_eq!(decision, Decision::Speculative(vec![0, 2]));
        assert_eq!(r.routed(), &[1, 0, 1]);
        // With one eligible replica the fan-out degenerates to unicast.
        let decision = r.route_decision(&req(1, 1, 1), &snaps, &[false, true, false]);
        assert_eq!(decision, Decision::Unicast(1));
        assert_eq!(r.routed(), &[1, 1, 1]);
    }

    /// The legacy unicast entry points (the fleet's re-route path) resolve
    /// a multicast to its primary copy and never drop a request.
    #[test]
    fn unicast_resolution_takes_the_primary_copy() {
        let mut r = Router::new(RouterPolicy::Speculative { k: 3 }, 3, 0);
        let snaps = vec![snap(2, 0, 0, 100), snap(0, 0, 0, 100), snap(1, 0, 0, 100)];
        assert_eq!(r.route(&req(0, 1, 1), &snaps), 1);
        assert_eq!(r.routed(), &[0, 1, 0], "only the primary copy is counted");
    }

    /// `Discard` outcomes are counted per request class; custom policies
    /// exercise the open trait plumbing end to end.
    #[test]
    fn custom_policy_discards_are_counted_per_class() {
        #[derive(Debug, Clone)]
        struct ShedBatch;
        impl RoutePolicy for ShedBatch {
            fn name(&self) -> String {
                "shed-batch".into()
            }
            fn route(&mut self, request: &Request, _ctx: &mut RouteCtx<'_>) -> Outcome {
                match request.class {
                    crate::profile::RequestClass::Batch => Outcome::Discard,
                    _ => Outcome::Default,
                }
            }
            fn clone_box(&self) -> Box<dyn RoutePolicy> {
                Box::new(self.clone())
            }
        }
        let mut r = Router::with_policy(Box::new(ShedBatch), 2, 0);
        assert_eq!(r.policy_name(), "shed-batch");
        let snaps = vec![snap(3, 0, 0, 100), snap(1, 0, 0, 100)];
        let interactive = req(0, 1, 1);
        let batch = Request {
            class: crate::profile::RequestClass::Batch,
            ..req(1, 1, 1)
        };
        // Interactive defers to the fallback (least queue depth).
        assert_eq!(
            r.route_decision(&interactive, &snaps, &[true, true]),
            Decision::Unicast(1)
        );
        assert_eq!(
            r.route_decision(&batch, &snaps, &[true, true]),
            Decision::Shed
        );
        assert_eq!(r.routed(), &[0, 1]);
        assert_eq!(
            r.discarded(),
            [0, 1],
            "discards land on the shed class only"
        );
    }

    /// Multicast normalization: duplicates collapse (first occurrence
    /// wins) and ineligible targets are filtered out.
    #[test]
    fn multicast_targets_are_deduplicated_and_masked() {
        #[derive(Debug, Clone)]
        struct Everywhere;
        impl RoutePolicy for Everywhere {
            fn name(&self) -> String {
                "everywhere".into()
            }
            fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
                let n = ctx.replicas();
                Outcome::Multicast((0..2 * n).map(|i| i % n).collect())
            }
            fn clone_box(&self) -> Box<dyn RoutePolicy> {
                Box::new(self.clone())
            }
        }
        let mut r = Router::with_policy(Box::new(Everywhere), 3, 0);
        let snaps = vec![snap(0, 0, 0, 100); 3];
        let decision = r.route_decision(&req(0, 1, 1), &snaps, &[true, false, true]);
        assert_eq!(decision, Decision::Speculative(vec![0, 2]));
        assert_eq!(r.routed(), &[1, 0, 1]);
    }
}
