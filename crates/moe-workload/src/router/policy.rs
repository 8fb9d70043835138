//! The open routing-policy contract: [`RoutePolicy`], its [`Outcome`], and
//! the four canonical snapshot-scoring implementations behind the
//! [`RouterPolicy`](super::RouterPolicy) enum.
//!
//! A policy maps one request, observed through a [`RouteCtx`] (per-replica
//! [`ReplicaSnapshot`]s, the elasticity eligibility mask, and the router's
//! seeded sampling stream), to an [`Outcome`]:
//!
//! * [`Outcome::Unicast`] — dispatch to one replica (every snapshot policy).
//! * [`Outcome::Multicast`] — speculative dispatch to several replicas; the
//!   fleet races the copies and cancels the losers at first token.
//! * [`Outcome::Discard`] — shed the request at the front end (counted per
//!   class alongside the deadline sheds).
//! * [`Outcome::Default`] — defer to the router's fallback discipline
//!   (deterministic least-queue-depth), for policies that only want to
//!   override a subset of traffic.
//!
//! Determinism contract: a policy must be a pure function of the request
//! sequence, the snapshots it was shown, the feedback it received through
//! [`RoutePolicy::observe`], and draws from `ctx.rng` — no wall clock, no
//! ambient randomness. Ties must break toward the lowest replica index.
//! Under that contract a fleet run reproduces byte-for-byte regardless of
//! how replica stepping is scheduled between synchronization points.

use crate::requests::Request;

use super::feedback::LatencyFeedback;
use super::ReplicaSnapshot;

/// What a [`RoutePolicy`] decided for one request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Dispatch to this replica.
    Unicast(usize),
    /// Speculatively dispatch a copy to each listed replica (primary
    /// first); the first copy to produce a token wins and the rest are
    /// cancelled. Duplicates and ineligible entries are filtered by the
    /// router; at least one eligible target must remain.
    Multicast(Vec<usize>),
    /// Shed the request at the front end: it reaches no replica and is
    /// counted against its class alongside the queue-deadline sheds.
    Discard,
    /// Defer to the router's fallback discipline (least queue depth over
    /// the eligible replicas, ties to the lowest index).
    Default,
}

impl Outcome {
    /// Applies `f` to every replica index carried by the outcome.
    pub fn map(self, mut f: impl FnMut(usize) -> usize) -> Outcome {
        match self {
            Outcome::Unicast(i) => Outcome::Unicast(f(i)),
            Outcome::Multicast(t) => Outcome::Multicast(t.into_iter().map(f).collect()),
            other => other,
        }
    }

    /// Returns `self` unless it is [`Outcome::Default`], in which case
    /// `other` — the combinator for layering a specialized policy over a
    /// base discipline.
    pub fn or(self, other: Outcome) -> Outcome {
        match self {
            Outcome::Default => other,
            decided => decided,
        }
    }
}

/// Everything a policy may observe when routing one request.
pub struct RouteCtx<'a> {
    /// One snapshot per replica, in replica order.
    pub snapshots: &'a [ReplicaSnapshot],
    /// Elasticity membership: `None` means every replica is eligible;
    /// draining, failed, and retired replicas are masked out.
    pub eligible: Option<&'a [bool]>,
    /// The router's seeded sampling stream. Policies that never draw keep
    /// the stream untouched, so sampling policies stay a pure function of
    /// `(seed, draw count)`.
    pub rng: &'a mut rand::rngs::StdRng,
}

impl RouteCtx<'_> {
    /// Number of replicas routed over.
    pub fn replicas(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether replica `i` may be routed to.
    pub fn is_eligible(&self, i: usize) -> bool {
        self.eligible.is_none_or(|mask| mask[i])
    }

    /// Indices of the eligible replicas, ascending.
    pub fn eligible_indices(&self) -> Vec<usize> {
        (0..self.replicas())
            .filter(|&i| self.is_eligible(i))
            .collect()
    }

    /// Index of the eligible replica minimizing `key` (ties to the lowest
    /// index); `None` when nothing is eligible.
    pub fn argmin_by<K: PartialOrd>(
        &self,
        key: impl Fn(usize, &ReplicaSnapshot) -> K,
    ) -> Option<usize> {
        argmin_by_filtered(self.snapshots, |i, _| self.is_eligible(i), |i, s| key(i, s))
    }
}

/// An open routing discipline. Implementations beyond the canonical enum
/// plug in through [`Router::with_policy`](super::Router::with_policy).
pub trait RoutePolicy: std::fmt::Debug + Send {
    /// Stable lowercase name, used in manifests and golden file names.
    fn name(&self) -> String;

    /// Decides the outcome for one request.
    fn route(&mut self, request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome;

    /// Latency feedback from a completed request the fleet dispatched to
    /// `replica`. Only called when [`RoutePolicy::wants_feedback`] is true;
    /// observations arrive in a deterministic order under both fleet
    /// scheduler drives.
    fn observe(&mut self, _replica: usize, _feedback: &LatencyFeedback) {}

    /// Whether completion records should reach [`RoutePolicy::observe`].
    /// Snapshot policies return false so their drive stays byte-identical
    /// to the pre-feedback router.
    fn wants_feedback(&self) -> bool {
        false
    }

    /// The fleet scaled up to `replicas` total replicas; per-replica state
    /// must extend (new replicas start unobserved).
    fn on_grow(&mut self, _replicas: usize) {}

    /// Clones the policy with its accumulated state.
    fn clone_box(&self) -> Box<dyn RoutePolicy>;
}

impl Clone for Box<dyn RoutePolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Index of the minimizing snapshot among those passing `keep` (ties to
/// the lowest index). Strict `<` keeps the first (lowest-index) minimum on
/// ties; incomparable keys (NaN pressure) never displace a holder.
pub fn argmin_by_filtered<K: PartialOrd>(
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

/// Cyclic assignment: first eligible replica at or after the cursor.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoutePolicy for RoundRobinPolicy {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        // First eligible replica at or after the cursor (the cursor itself
        // when nothing is masked).
        let n = ctx.replicas();
        let mut c = self.cursor % n;
        while !ctx.is_eligible(c) {
            c = (c + 1) % n;
        }
        self.cursor = (c + 1) % n;
        Outcome::Unicast(c)
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

/// Join the replica with the fewest waiting + resident requests.
#[derive(Clone, Debug, Default)]
pub struct LeastQueueDepthPolicy;

impl RoutePolicy for LeastQueueDepthPolicy {
    fn name(&self) -> String {
        "least-queue-depth".into()
    }

    fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        let choice = ctx
            .argmin_by(|_, s| (s.total_load() as u64, s.kv_tokens_in_use))
            .expect("an eligible replica exists");
        Outcome::Unicast(choice)
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

/// Join the replica with the lowest post-admission KV occupancy, excluding
/// replicas that must permanently reject the request when an admitting
/// replica exists.
#[derive(Clone, Debug, Default)]
pub struct LeastKvPressurePolicy;

impl RoutePolicy for LeastKvPressurePolicy {
    fn name(&self) -> String {
        "least-kv-pressure".into()
    }

    fn route(&mut self, request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        // Prefer replicas that can eventually admit the request; only when
        // *every* eligible replica must reject it does the choice
        // degenerate (the request is lost wherever it lands).
        let admitting = argmin_by_filtered(
            ctx.snapshots,
            |i, s| ctx.is_eligible(i) && !s.must_reject(request),
            |_, s| (s.kv_pressure_with(request), s.total_load()),
        );
        let choice = admitting.unwrap_or_else(|| {
            ctx.argmin_by(|_, s| (s.kv_pressure_with(request), s.total_load()))
                .expect("an eligible replica exists")
        });
        Outcome::Unicast(choice)
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

/// Seeded power-of-two-choices: sample two distinct replicas from
/// `ctx.rng`, keep the less loaded.
#[derive(Clone, Debug, Default)]
pub struct PowerOfTwoPolicy;

impl RoutePolicy for PowerOfTwoPolicy {
    fn name(&self) -> String {
        "power-of-two".into()
    }

    fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        use rand::Rng;
        let elig = ctx.eligible_indices();
        let m = elig.len();
        let choice = if m == 1 {
            elig[0]
        } else {
            // Two distinct seeded samples over the eligible set; keep the
            // less loaded (queue join cost, then KV, then lower index).
            // Over the full set the draws and the choice reduce exactly to
            // the unmasked policy.
            let a = ctx.rng.gen_range(0..m);
            let mut b = ctx.rng.gen_range(0..m - 1);
            if b >= a {
                b += 1;
            }
            let (lo, hi) = (elig[a.min(b)], elig[a.max(b)]);
            let key = |i: usize| {
                (
                    ctx.snapshots[i].total_load(),
                    ctx.snapshots[i].kv_tokens_in_use,
                )
            };
            if key(hi) < key(lo) {
                hi
            } else {
                lo
            }
        };
        Outcome::Unicast(choice)
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_map_touches_every_target() {
        let shifted = Outcome::Multicast(vec![0, 2]).map(|i| i + 1);
        assert_eq!(shifted, Outcome::Multicast(vec![1, 3]));
        assert_eq!(Outcome::Unicast(1).map(|i| i * 3), Outcome::Unicast(3));
        assert_eq!(Outcome::Discard.map(|i| i + 7), Outcome::Discard);
    }

    #[test]
    fn outcome_or_defers_only_from_default() {
        assert_eq!(
            Outcome::Default.or(Outcome::Unicast(2)),
            Outcome::Unicast(2)
        );
        assert_eq!(Outcome::Discard.or(Outcome::Unicast(2)), Outcome::Discard);
        assert_eq!(
            Outcome::Unicast(1).or(Outcome::Unicast(2)),
            Outcome::Unicast(1)
        );
    }
}
