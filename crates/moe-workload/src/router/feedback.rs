//! Feedback-driven and speculative routing policies.
//!
//! Snapshot policies score replicas on queue state observed *now*; the
//! policies here close the loop on what actually happened:
//!
//! * [`EwmaLatencyPolicy`] (`"ewma-ttft"`) — per-replica EWMA of observed
//!   TTFT; route to the historically fastest replica.
//! * [`LeastExpectedTtftPolicy`] (`"least-expected-ttft"`) — combine the
//!   TTFT EWMA with a per-token service estimate (TPOT EWMA) scaled by the
//!   replica's current load, so a fast-but-backlogged replica stops
//!   looking attractive.
//! * [`SpeculativePolicy`] (`"speculative:k=N"`) — multicast each request
//!   to the `k` least-loaded replicas; the fleet keeps whichever copy
//!   produces a token first and cancels the rest.
//!
//! Feedback arrives through [`RoutePolicy::observe`] in a deterministic
//! order (replica order at each round-driven synchronization point, causal
//! event order under the event-driven drive), so every policy here remains
//! reproducible byte-for-byte at a fixed seed. Replicas with no
//! observations yet estimate zero latency — new (or newly scaled-up)
//! replicas are explored first, lowest index first.

use crate::requests::Request;
use crate::serving::RequestRecord;

use super::policy::{Outcome, RouteCtx, RoutePolicy};

/// Latency observed on one completed request, fed back to the policy that
/// routed it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LatencyFeedback {
    /// Time-to-first-token (seconds from arrival).
    pub ttft: f64,
    /// Mean time per output token after the first, when the request
    /// decoded more than one token.
    pub tpot: Option<f64>,
}

impl LatencyFeedback {
    /// Extracts the feedback signals from a completion record.
    pub fn from_record(record: &RequestRecord) -> Self {
        LatencyFeedback {
            ttft: record.ttft(),
            tpot: record.tpot(),
        }
    }
}

/// Smoothing factor shared by the feedback policies: high enough to track
/// bursts, low enough not to thrash on one outlier.
const EWMA_ALPHA: f64 = 0.2;

fn ewma_update(cell: &mut Option<f64>, sample: f64) {
    *cell = Some(match *cell {
        Some(prev) => EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * prev,
        None => sample,
    });
}

/// Route to the replica with the lowest EWMA of observed TTFT.
#[derive(Clone, Debug)]
pub struct EwmaLatencyPolicy {
    ttft: Vec<Option<f64>>,
}

impl EwmaLatencyPolicy {
    /// A policy over `replicas` replicas, all unobserved.
    pub fn new(replicas: usize) -> Self {
        EwmaLatencyPolicy {
            ttft: vec![None; replicas],
        }
    }
}

impl RoutePolicy for EwmaLatencyPolicy {
    fn name(&self) -> String {
        "ewma-ttft".into()
    }

    fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        // Unobserved replicas estimate zero (explore-first); ties break on
        // current load, then KV, then the lowest index.
        let choice = ctx
            .argmin_by(|i, s| {
                (
                    self.ttft[i].unwrap_or(0.0),
                    s.total_load() as u64,
                    s.kv_tokens_in_use,
                )
            })
            .expect("an eligible replica exists");
        Outcome::Unicast(choice)
    }

    fn observe(&mut self, replica: usize, feedback: &LatencyFeedback) {
        ewma_update(&mut self.ttft[replica], feedback.ttft);
    }

    fn wants_feedback(&self) -> bool {
        true
    }

    fn on_grow(&mut self, replicas: usize) {
        self.ttft.resize(replicas, None);
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

/// Route to the replica with the lowest *expected* TTFT: the TTFT EWMA
/// plus a queueing penalty of `current load × TPOT EWMA` (each in-flight
/// request delays the newcomer by roughly one token-service interval per
/// scheduling pass).
#[derive(Clone, Debug)]
pub struct LeastExpectedTtftPolicy {
    ttft: Vec<Option<f64>>,
    tpot: Vec<Option<f64>>,
}

impl LeastExpectedTtftPolicy {
    /// A policy over `replicas` replicas, all unobserved.
    pub fn new(replicas: usize) -> Self {
        LeastExpectedTtftPolicy {
            ttft: vec![None; replicas],
            tpot: vec![None; replicas],
        }
    }
}

impl RoutePolicy for LeastExpectedTtftPolicy {
    fn name(&self) -> String {
        "least-expected-ttft".into()
    }

    fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        let choice = ctx
            .argmin_by(|i, s| {
                let expected = self.ttft[i].unwrap_or(0.0)
                    + s.total_load() as f64 * self.tpot[i].unwrap_or(0.0);
                (expected, s.total_load() as u64, s.kv_tokens_in_use)
            })
            .expect("an eligible replica exists");
        Outcome::Unicast(choice)
    }

    fn observe(&mut self, replica: usize, feedback: &LatencyFeedback) {
        ewma_update(&mut self.ttft[replica], feedback.ttft);
        if let Some(tpot) = feedback.tpot {
            ewma_update(&mut self.tpot[replica], tpot);
        }
    }

    fn wants_feedback(&self) -> bool {
        true
    }

    fn on_grow(&mut self, replicas: usize) {
        self.ttft.resize(replicas, None);
        self.tpot.resize(replicas, None);
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

/// Multicast each request to the `k` least-loaded eligible replicas.
#[derive(Clone, Debug)]
pub struct SpeculativePolicy {
    k: usize,
}

impl SpeculativePolicy {
    /// A policy dispatching `k` speculative copies per request.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "speculative dispatch needs at least one copy");
        SpeculativePolicy { k }
    }

    /// Copies dispatched per request.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl RoutePolicy for SpeculativePolicy {
    fn name(&self) -> String {
        format!("speculative:k={}", self.k)
    }

    fn route(&mut self, _request: &Request, ctx: &mut RouteCtx<'_>) -> Outcome {
        // The k best replicas by the least-queue-depth key, primary first;
        // fewer when the eligible set is smaller than k.
        let mut elig = ctx.eligible_indices();
        elig.sort_by_key(|&i| {
            (
                ctx.snapshots[i].total_load(),
                ctx.snapshots[i].kv_tokens_in_use,
                i,
            )
        });
        elig.truncate(self.k);
        if elig.len() == 1 {
            Outcome::Unicast(elig[0])
        } else {
            Outcome::Multicast(elig)
        }
    }

    fn clone_box(&self) -> Box<dyn RoutePolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RequestClass;
    use crate::requests::RequestId;
    use crate::router::ReplicaSnapshot;
    use crate::scenario::Scenario;
    use crate::scheduler::SchedulingMode;
    use rand::SeedableRng;

    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            scenario: Scenario::Chat,
            class: RequestClass::Interactive,
            input_len: 8,
            output_len: 8,
            arrival: id as f64,
        }
    }

    fn snap(queue: usize, active: usize, kv: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            queue_depth: queue,
            active,
            kv_tokens_in_use: kv,
            kv_budget_tokens: 1_000,
            mode: SchedulingMode::Hybrid,
        }
    }

    fn route(policy: &mut dyn RoutePolicy, snapshots: &[ReplicaSnapshot]) -> Outcome {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut ctx = RouteCtx {
            snapshots,
            eligible: &vec![true; snapshots.len()],
            rng: &mut rng,
        };
        policy.route(&req(0), &mut ctx)
    }

    #[test]
    fn ewma_learns_the_slow_replica() {
        let snaps = vec![snap(0, 0, 0); 2];
        let mut p = EwmaLatencyPolicy::new(2);
        // Unobserved: explore the lowest index first.
        assert_eq!(route(&mut p, &snaps), Outcome::Unicast(0));
        // Replica 0 turns out slow, replica 1 fast.
        p.observe(
            0,
            &LatencyFeedback {
                ttft: 2.0,
                tpot: None,
            },
        );
        p.observe(
            1,
            &LatencyFeedback {
                ttft: 0.1,
                tpot: None,
            },
        );
        assert_eq!(route(&mut p, &snaps), Outcome::Unicast(1));
        // A burst of fast completions on 0 pulls its EWMA back down.
        for _ in 0..40 {
            p.observe(
                0,
                &LatencyFeedback {
                    ttft: 0.01,
                    tpot: None,
                },
            );
        }
        assert_eq!(route(&mut p, &snaps), Outcome::Unicast(0));
    }

    #[test]
    fn expected_ttft_charges_for_queue_depth() {
        let mut p = LeastExpectedTtftPolicy::new(2);
        for replica in 0..2 {
            p.observe(
                replica,
                &LatencyFeedback {
                    ttft: 0.1,
                    tpot: Some(0.05),
                },
            );
        }
        // Equal history: the backlogged replica is charged load × TPOT.
        let snaps = vec![snap(20, 20, 0), snap(0, 1, 0)];
        assert_eq!(route(&mut p, &snaps), Outcome::Unicast(1));
    }

    #[test]
    fn feedback_state_extends_on_grow() {
        let mut p = EwmaLatencyPolicy::new(1);
        p.observe(
            0,
            &LatencyFeedback {
                ttft: 5.0,
                tpot: None,
            },
        );
        p.on_grow(3);
        // The new, unobserved replicas look fastest and are explored first.
        let snaps = vec![snap(0, 0, 0); 3];
        assert_eq!(route(&mut p, &snaps), Outcome::Unicast(1));
    }

    #[test]
    fn speculative_multicasts_the_k_least_loaded() {
        let mut p = SpeculativePolicy::new(2);
        let snaps = vec![snap(5, 5, 0), snap(0, 1, 0), snap(0, 0, 0), snap(2, 2, 0)];
        assert_eq!(route(&mut p, &snaps), Outcome::Multicast(vec![2, 1]));
        // k larger than the fleet: every replica gets a copy.
        let mut wide = SpeculativePolicy::new(16);
        assert_eq!(
            route(&mut wide, &snaps),
            Outcome::Multicast(vec![2, 1, 3, 0])
        );
        // k = 1 degenerates to unicast least-queue-depth.
        let mut one = SpeculativePolicy::new(1);
        assert_eq!(route(&mut one, &snaps), Outcome::Unicast(2));
    }
}
