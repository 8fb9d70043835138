//! Front-end routing subsystem for multi-replica (fleet) serving.
//!
//! A fleet deployment puts N independent serving replicas — each a full
//! wafer (or multi-wafer pod) running its own continuous-batching engine —
//! behind one front end that owns the global arrival stream. The [`Router`]
//! decides, per request, which replica's serving queue admits it, or which
//! replicas race speculative copies of it.
//!
//! [`RouterPolicy`] is the closed, serializable set of dispatch disciplines
//! that specs, sweeps and goldens name:
//!
//! * four *snapshot* policies score the replicas' queue state observed now
//!   ([`RouterPolicy::RoundRobin`], [`RouterPolicy::LeastQueueDepth`],
//!   [`RouterPolicy::LeastKvPressure`], and the seeded
//!   [`RouterPolicy::PowerOfTwoChoices`]);
//! * two *feedback* policies close the loop on what actually happened
//!   ([`RouterPolicy::EwmaLatency`], [`RouterPolicy::LeastExpectedTtft`]),
//!   learning per-replica latency EWMAs from completion records fed back
//!   through [`Router::observe_completion`];
//! * [`RouterPolicy::Speculative`] multicasts each request to the `k`
//!   least-loaded replicas; the fleet keeps whichever copy produces a token
//!   first and cancels the rest.
//!
//! The [`Router`] holds the policy with its state (the round-robin cursor,
//! the latency EWMAs), the seeded sampling stream and per-replica routed
//! counts, and returns [`Decision`]s for the fleet.
//!
//! Routing is deterministic: every policy is a pure function of the request
//! sequence, the observed [`ReplicaSnapshot`]s, the feedback it received,
//! and (for sampling policies) the seed. Ties always break toward the
//! lowest replica index, so a fleet run is reproducible byte-for-byte
//! regardless of how replica stepping is scheduled between synchronization
//! points. Feedback arrives in a deterministic order (replica order at each
//! round-driven synchronization point, causal event order under the event
//! loop), and replicas with no observations yet estimate zero latency, so
//! new (or newly scaled-up) replicas are explored first, lowest index
//! first.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::requests::Request;
use crate::scheduler::SchedulingMode;
use crate::serving::RequestRecord;

mod feedback;

use feedback::LatencyEwma;

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

    /// Whether the policy learns from completion records
    /// ([`Router::observe_completion`]).
    fn wants_feedback(self) -> bool {
        matches!(
            self,
            RouterPolicy::EwmaLatency | RouterPolicy::LeastExpectedTtft
        )
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

/// A routing decision, with the router's routed counts already updated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Dispatch to this replica.
    Unicast(usize),
    /// Dispatch a speculative copy to each listed replica (≥ 2 distinct
    /// eligible targets, primary first); the fleet cancels the losers at
    /// first token.
    Speculative(Vec<usize>),
    /// Shed at the front end: the request reaches no replica. No
    /// [`RouterPolicy`] produces it; it goes with the benchmark revision
    /// that stops matching on it (ROADMAP item 1).
    Shed,
}

/// SplitMix64 stream splitting: stream `stream` of master seed `master`.
/// The fleet derives each replica's engine seed and its arrival and router
/// seeds with it; the router derives its post-scale-up sampling stream,
/// so that stream is a pure function of `(seed, first new replica index)`.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separator for the router's sampling stream (kept from the first
/// router so existing power-of-two traces stay byte-identical).
const SAMPLING_SALT: u64 = 0x00F1_EE7B_A11A_D000;

/// Index of the minimizing snapshot among those passing `keep` (ties to
/// the lowest index). Strict `<` keeps the first (lowest-index) minimum on
/// ties; incomparable keys (NaN pressure) never displace a holder.
fn argmin_by_filtered<K: PartialOrd>(
    snapshots: &[ReplicaSnapshot],
    keep: impl Fn(usize, &ReplicaSnapshot) -> bool,
    key: impl Fn(usize, &ReplicaSnapshot) -> K,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, s) in snapshots.iter().enumerate() {
        if !keep(i, s) {
            continue;
        }
        let k = key(i, s);
        let wins = best
            .as_ref()
            .is_none_or(|(_, bk)| matches!(k.partial_cmp(bk), Some(std::cmp::Ordering::Less)));
        if wins {
            best = Some((i, k));
        }
    }
    best.map(|(i, _)| i)
}

/// [`argmin_by_filtered`] over the eligible replicas, of which the router
/// has checked there is at least one.
fn argmin_eligible<K: PartialOrd>(
    snapshots: &[ReplicaSnapshot],
    eligible: &[bool],
    key: impl Fn(usize, &ReplicaSnapshot) -> K,
) -> usize {
    argmin_by_filtered(snapshots, |i, _| eligible[i], key).expect("an eligible replica exists")
}

/// The front-end dispatcher. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Router {
    policy: RouterPolicy,
    replicas: usize,
    /// The seed [`Router::new`] was given, kept for deterministic stream
    /// re-derivation on scale-up.
    seed: u64,
    /// Seeded sampling stream. Only power-of-two draws from it, so the
    /// other policies stay RNG-free and the stream is a pure function of
    /// `(seed, draw count)` — and, after a scale-up, of `(seed, first new
    /// replica index, post-growth draw count)`.
    rng: rand::rngs::StdRng,
    /// Requests routed to each replica so far (speculative copies each
    /// count once on their replica).
    routed: Vec<u64>,
    /// Round-robin: the replica to try first for the next request.
    cursor: usize,
    /// The feedback policies' per-replica latency EWMAs (empty for the
    /// other policies).
    latency: LatencyEwma,
}

impl Router {
    /// Creates a router over `replicas` replicas dispatching by `policy`.
    /// `seed` feeds only the sampling stream
    /// ([`RouterPolicy::PowerOfTwoChoices`] draws from it).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero, or if `policy` is
    /// [`RouterPolicy::Speculative`] with `k` zero (a fleet reports that as
    /// `ConfigError::SpeculativeFanOutZero` before building its router).
    pub fn new(policy: RouterPolicy, replicas: usize, seed: u64) -> Self {
        assert!(replicas > 0, "need at least one replica");
        assert!(
            policy != RouterPolicy::Speculative { k: 0 },
            "speculative dispatch needs at least one copy"
        );
        let observed = if policy.wants_feedback() { replicas } else { 0 };
        Router {
            policy,
            replicas,
            seed,
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ SAMPLING_SALT),
            routed: vec![0; replicas],
            cursor: 0,
            latency: LatencyEwma::new(observed),
        }
    }

    /// The dispatch policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Number of replicas routed over.
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// Requests routed to each replica so far.
    pub fn routed(&self) -> &[u64] {
        &self.routed
    }

    /// Feeds one completed request back to the policy. A no-op unless the
    /// policy is a feedback one, keeping the snapshot-policy drive
    /// byte-identical to the pre-feedback router. Callers must deliver
    /// records in a deterministic order (the fleet: replica order at each
    /// round-driven synchronization point, causal order under the event
    /// drive).
    pub fn observe_completion(&mut self, replica: usize, record: &RequestRecord) {
        if self.policy.wants_feedback() {
            self.latency.observe(replica, record);
        }
    }

    /// Max/mean ratio of per-replica routed-request counts (1.0 when
    /// perfectly balanced or nothing routed yet).
    pub fn routing_imbalance(&self) -> f64 {
        max_mean_imbalance(self.routed.iter().map(|&r| r as f64))
    }

    /// Extends the fleet by `additional` replicas (scale-up): the new
    /// replicas join the routable range with zero routed counts and, under
    /// a feedback policy, unobserved latencies. The round-robin cursor
    /// survives growth.
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
        if self.policy.wants_feedback() {
            self.latency.grow(self.replicas);
        }
    }

    /// Picks the replica `request` is dispatched to among those with
    /// `eligible[i]` set, given one snapshot per replica (in replica
    /// order), and records the assignment. The mask is fleet membership
    /// under elasticity events: draining, failed, and retired replicas
    /// must never be routed to. A speculative multicast resolves to its
    /// primary copy — the fleet's crash/drain re-route path relies on one
    /// target; use [`Router::route_decision`] for the full fan-out.
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
        let choice = match self.decide(request, snapshots, eligible) {
            Decision::Unicast(i) => i,
            Decision::Speculative(targets) => targets[0],
            Decision::Shed => unreachable!("no router policy sheds"),
        };
        self.routed[choice] += 1;
        choice
    }

    /// Routes with the full fan-out: unicast and speculative multicast
    /// dispatches are accounted per target replica. The fleet's arrival
    /// path drives this entry point.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or an empty eligible set.
    pub fn route_decision(
        &mut self,
        request: &Request,
        snapshots: &[ReplicaSnapshot],
        eligible: &[bool],
    ) -> Decision {
        let decision = self.decide(request, snapshots, eligible);
        match &decision {
            Decision::Unicast(i) => self.routed[*i] += 1,
            Decision::Speculative(targets) => {
                for &i in targets {
                    self.routed[i] += 1;
                }
            }
            Decision::Shed => {}
        }
        decision
    }

    /// Validates the inputs and runs the policy. Never returns
    /// [`Decision::Shed`].
    fn decide(
        &mut self,
        request: &Request,
        snapshots: &[ReplicaSnapshot],
        eligible: &[bool],
    ) -> Decision {
        assert_eq!(
            snapshots.len(),
            self.replicas,
            "snapshot count must match replica count"
        );
        assert_eq!(
            eligible.len(),
            self.replicas,
            "eligibility mask must match replica count"
        );
        assert!(
            eligible.iter().any(|&e| e),
            "no eligible replica to route to"
        );
        let n = self.replicas;
        let choice = match self.policy {
            RouterPolicy::RoundRobin => {
                // First eligible replica at or after the cursor (the cursor
                // itself when nothing is masked).
                let mut c = self.cursor % n;
                while !eligible[c] {
                    c = (c + 1) % n;
                }
                self.cursor = (c + 1) % n;
                c
            }
            RouterPolicy::LeastQueueDepth => argmin_eligible(snapshots, eligible, |_, s| {
                (s.total_load() as u64, s.kv_tokens_in_use)
            }),
            RouterPolicy::LeastKvPressure => {
                // Prefer replicas that can eventually admit the request;
                // only when *every* eligible replica must reject it does
                // the choice degenerate (the request is lost wherever it
                // lands).
                let admitting = argmin_by_filtered(
                    snapshots,
                    |i, s| eligible[i] && !s.must_reject(request),
                    |_, s| (s.kv_pressure_with(request), s.total_load()),
                );
                admitting.unwrap_or_else(|| {
                    argmin_eligible(snapshots, eligible, |_, s| {
                        (s.kv_pressure_with(request), s.total_load())
                    })
                })
            }
            RouterPolicy::PowerOfTwoChoices => {
                use rand::Rng;
                let elig: Vec<usize> = (0..n).filter(|&i| eligible[i]).collect();
                let m = elig.len();
                if m == 1 {
                    elig[0]
                } else {
                    // Two distinct seeded samples over the eligible set;
                    // keep the less loaded (queue join cost, then KV, then
                    // lower index). Over the full set the draws and the
                    // choice reduce exactly to the unmasked policy.
                    let a = self.rng.gen_range(0..m);
                    let mut b = self.rng.gen_range(0..m - 1);
                    if b >= a {
                        b += 1;
                    }
                    let (lo, hi) = (elig[a.min(b)], elig[a.max(b)]);
                    let key = |i: usize| (snapshots[i].total_load(), snapshots[i].kv_tokens_in_use);
                    if key(hi) < key(lo) {
                        hi
                    } else {
                        lo
                    }
                }
            }
            RouterPolicy::EwmaLatency => {
                // Unobserved replicas estimate zero (explore-first); ties
                // break on current load, then KV, then the lowest index.
                let latency = &self.latency;
                argmin_eligible(snapshots, eligible, |i, s| {
                    (latency.ttft(i), s.total_load() as u64, s.kv_tokens_in_use)
                })
            }
            RouterPolicy::LeastExpectedTtft => {
                // The TTFT EWMA plus a queueing penalty of `current load ×
                // TPOT EWMA`: each in-flight request delays the newcomer by
                // roughly one token-service interval per scheduling pass.
                let latency = &self.latency;
                argmin_eligible(snapshots, eligible, |i, s| {
                    let expected = latency.ttft(i) + s.total_load() as f64 * latency.tpot(i);
                    (expected, s.total_load() as u64, s.kv_tokens_in_use)
                })
            }
            RouterPolicy::Speculative { k } => {
                // The k best replicas by the least-queue-depth key, primary
                // first; fewer when the eligible set is smaller than k.
                let mut elig: Vec<usize> = (0..n).filter(|&i| eligible[i]).collect();
                elig.sort_by_key(|&i| {
                    (snapshots[i].total_load(), snapshots[i].kv_tokens_in_use, i)
                });
                elig.truncate(k);
                debug_assert!(elig
                    .iter()
                    .enumerate()
                    .all(|(j, &i)| eligible[i] && !elig[..j].contains(&i)));
                if elig.len() > 1 {
                    return Decision::Speculative(elig);
                }
                elig[0]
            }
        };
        Decision::Unicast(choice)
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

    /// Routes over every replica (an all-true eligibility mask).
    fn route(r: &mut Router, request: &Request, snapshots: &[ReplicaSnapshot]) -> usize {
        r.route_among(request, snapshots, &vec![true; r.num_replicas()])
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
        let picks: Vec<usize> = (0..7)
            .map(|i| route(&mut r, &req(i, 1, 1), &snaps))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(r.routed(), &[3, 2, 2]);
    }

    #[test]
    fn least_queue_depth_joins_shortest() {
        let snaps = vec![snap(5, 2, 0, 100), snap(1, 3, 0, 100), snap(2, 2, 0, 100)];
        let mut r = Router::new(RouterPolicy::LeastQueueDepth, 3, 0);
        assert_eq!(route(&mut r, &req(0, 1, 1), &snaps), 1);
        // Equal total load breaks on KV occupancy, then the lowest index.
        let kv_tied = vec![snap(2, 2, 7, 100), snap(1, 3, 4, 100), snap(3, 1, 9, 100)];
        assert_eq!(route(&mut r, &req(1, 1, 1), &kv_tied), 1);
        let fully_tied = vec![snap(2, 2, 7, 100); 3];
        assert_eq!(route(&mut r, &req(2, 1, 1), &fully_tied), 0);
    }

    #[test]
    fn least_kv_pressure_prefers_emptiest_cache() {
        let snaps = vec![
            snap(0, 0, 80, 100),
            snap(0, 0, 20, 100),
            snap(0, 0, 50, 100),
        ];
        let mut r = Router::new(RouterPolicy::LeastKvPressure, 3, 0);
        assert_eq!(route(&mut r, &req(0, 5, 5), &snaps), 1);
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
        assert_eq!(route(&mut r, &big, &snaps), 1);
        // A small request goes back to the emptier replica.
        assert_eq!(route(&mut r, &req(1, 2, 2), &snaps), 0);
        // When every replica must reject, the choice degenerates to the
        // least-pressured one instead of panicking.
        let hopeless = vec![snap(0, 0, 5, 10), snap(0, 0, 2, 10)];
        assert_eq!(route(&mut r, &big, &hopeless), 1);
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
                .map(|i| route(&mut r, &req(i, 1, 1), &snaps))
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
            route(&mut r, &req(i, 1, 1), &snaps);
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
            route(&mut r, &req(i, 1, 1), &snaps);
        }
        assert_eq!(r.routing_imbalance(), 1.0);
        // Force skew through round-robin with an odd count: 3 vs 2.
        let _ = route(&mut r, &req(5, 1, 1), &snaps);
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
        route(&mut r, &req(0, 1, 1), &[snap(0, 0, 0, 1)]);
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

    #[test]
    fn grow_extends_the_routable_range() {
        let mut r = Router::new(RouterPolicy::RoundRobin, 2, 0);
        let snaps2 = vec![snap(0, 0, 0, 100); 2];
        assert_eq!(route(&mut r, &req(0, 1, 1), &snaps2), 0);
        r.grow(1);
        assert_eq!(r.num_replicas(), 3);
        let snaps3 = vec![snap(0, 0, 0, 100); 3];
        // Cursor survives growth: 1, 2, 0, ...
        assert_eq!(route(&mut r, &req(1, 1, 1), &snaps3), 1);
        assert_eq!(route(&mut r, &req(2, 1, 1), &snaps3), 2);
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
                route(&mut r, &req(i, 1, 1), &pre);
            }
            r.grow(2);
            let post: Vec<ReplicaSnapshot> = (0..5).map(|j| snap(j, j, 0, 100)).collect();
            (0..50)
                .map(|i| route(&mut r, &req(1000 + i, 1, 1), &post))
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
            route(&mut other, &req(i, 1, 1), &pre);
        }
        other.grow(2);
        let post: Vec<ReplicaSnapshot> = (0..5).map(|j| snap(j, j, 0, 100)).collect();
        let picks: Vec<usize> = (0..50)
            .map(|i| route(&mut other, &req(1000 + i, 1, 1), &post))
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

    /// The unicast entry point (the fleet's re-route path) resolves a
    /// multicast to its primary copy and never drops a request.
    #[test]
    fn unicast_resolution_takes_the_primary_copy() {
        let mut r = Router::new(RouterPolicy::Speculative { k: 3 }, 3, 0);
        let snaps = vec![snap(2, 0, 0, 100), snap(0, 0, 0, 100), snap(1, 0, 0, 100)];
        assert_eq!(route(&mut r, &req(0, 1, 1), &snaps), 1);
        assert_eq!(r.routed(), &[0, 1, 0], "only the primary copy is counted");
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn zero_speculative_fan_out_panics() {
        Router::new(RouterPolicy::Speculative { k: 0 }, 2, 0);
    }
}
