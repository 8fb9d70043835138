//! Latency feedback for the feedback policies
//! ([`RouterPolicy::EwmaLatency`](super::RouterPolicy::EwmaLatency),
//! [`RouterPolicy::LeastExpectedTtft`](super::RouterPolicy::LeastExpectedTtft)):
//! per-replica EWMAs of the TTFT and TPOT observed on completed requests.

use crate::serving::RequestRecord;

/// Smoothing factor of the latency EWMAs: high enough to track bursts, low
/// enough not to thrash on one outlier.
const EWMA_ALPHA: f64 = 0.2;

fn ewma_update(cell: &mut Option<f64>, sample: f64) {
    *cell = Some(match *cell {
        Some(prev) => EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * prev,
        None => sample,
    });
}

/// Per-replica EWMAs of observed TTFT and TPOT (`None` until the replica's
/// first observation).
#[derive(Clone, Debug)]
pub(super) struct LatencyEwma {
    ttft: Vec<Option<f64>>,
    tpot: Vec<Option<f64>>,
}

impl LatencyEwma {
    /// EWMAs over `replicas` replicas, all unobserved.
    pub(super) fn new(replicas: usize) -> Self {
        LatencyEwma {
            ttft: vec![None; replicas],
            tpot: vec![None; replicas],
        }
    }

    /// Folds one completed request on `replica` into its EWMAs (TPOT only
    /// when the request decoded more than one token).
    pub(super) fn observe(&mut self, replica: usize, record: &RequestRecord) {
        ewma_update(&mut self.ttft[replica], record.ttft());
        if let Some(tpot) = record.tpot() {
            ewma_update(&mut self.tpot[replica], tpot);
        }
    }

    /// Extends to `replicas` replicas; the new ones start unobserved.
    pub(super) fn grow(&mut self, replicas: usize) {
        self.ttft.resize(replicas, None);
        self.tpot.resize(replicas, None);
    }

    /// `replica`'s TTFT estimate: zero while unobserved, so new replicas
    /// are explored first.
    pub(super) fn ttft(&self, replica: usize) -> f64 {
        self.ttft[replica].unwrap_or(0.0)
    }

    /// `replica`'s per-token service estimate, zero while unobserved.
    pub(super) fn tpot(&self, replica: usize) -> f64 {
        self.tpot[replica].unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::profile::RequestClass;
    use crate::requests::{Request, RequestId};
    use crate::router::{Decision, ReplicaSnapshot, Router, RouterPolicy};
    use crate::scenario::Scenario;
    use crate::scheduler::SchedulingMode;
    use crate::serving::RequestRecord;

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

    /// A completion record with the given TTFT and, when `tpot` is set,
    /// two decoded tokens `tpot` apart.
    fn record(ttft: f64, tpot: Option<f64>) -> RequestRecord {
        RequestRecord {
            id: RequestId(0),
            scenario: Scenario::Chat,
            class: RequestClass::Interactive,
            input_len: 8,
            output_len: 8,
            arrival: 0.0,
            admitted: 0.0,
            first_token: ttft,
            finish: ttft + tpot.unwrap_or(0.0),
            prefill_scheduled: 8,
            decode_scheduled: if tpot.is_some() { 2 } else { 1 },
        }
    }

    /// Routes one request with every replica eligible.
    fn decide(r: &mut Router, snapshots: &[ReplicaSnapshot]) -> Decision {
        r.route_decision(&req(0), snapshots, &vec![true; snapshots.len()])
    }

    #[test]
    fn ewma_learns_the_slow_replica() {
        let snaps = vec![snap(0, 0, 0); 2];
        let mut r = Router::new(RouterPolicy::EwmaLatency, 2, 0);
        // Unobserved: explore the lowest index first.
        assert_eq!(decide(&mut r, &snaps), Decision::Unicast(0));
        // Replica 0 turns out slow, replica 1 fast.
        r.observe_completion(0, &record(2.0, None));
        r.observe_completion(1, &record(0.1, None));
        assert_eq!(decide(&mut r, &snaps), Decision::Unicast(1));
        // A burst of fast completions on 0 pulls its EWMA back down.
        for _ in 0..40 {
            r.observe_completion(0, &record(0.01, None));
        }
        assert_eq!(decide(&mut r, &snaps), Decision::Unicast(0));
    }

    #[test]
    fn expected_ttft_charges_for_queue_depth() {
        let mut r = Router::new(RouterPolicy::LeastExpectedTtft, 2, 0);
        for replica in 0..2 {
            r.observe_completion(replica, &record(0.1, Some(0.05)));
        }
        // Equal history: the backlogged replica is charged load × TPOT.
        let snaps = vec![snap(20, 20, 0), snap(0, 1, 0)];
        assert_eq!(decide(&mut r, &snaps), Decision::Unicast(1));
    }

    #[test]
    fn feedback_state_extends_on_grow() {
        let mut r = Router::new(RouterPolicy::EwmaLatency, 1, 0);
        r.observe_completion(0, &record(5.0, None));
        r.grow(2);
        // The new, unobserved replicas look fastest and are explored first.
        let snaps = vec![snap(0, 0, 0); 3];
        assert_eq!(decide(&mut r, &snaps), Decision::Unicast(1));
    }

    #[test]
    fn speculative_multicasts_the_k_least_loaded() {
        let snaps = vec![snap(5, 5, 0), snap(0, 1, 0), snap(0, 0, 0), snap(2, 2, 0)];
        let mut r = Router::new(RouterPolicy::Speculative { k: 2 }, 4, 0);
        assert_eq!(decide(&mut r, &snaps), Decision::Speculative(vec![2, 1]));
        // k larger than the fleet: every replica gets a copy.
        let mut wide = Router::new(RouterPolicy::Speculative { k: 16 }, 4, 0);
        assert_eq!(
            decide(&mut wide, &snaps),
            Decision::Speculative(vec![2, 1, 3, 0])
        );
        // k = 1 degenerates to unicast least-queue-depth.
        let mut one = Router::new(RouterPolicy::Speculative { k: 1 }, 4, 0);
        assert_eq!(decide(&mut one, &snaps), Decision::Unicast(2));
    }
}
