//! The correctness gate: schema, conservation, sane summaries, and
//! byte-equal simulated counters across passes. No expected value is
//! pinned, so a deliberate re-bless of the simulated results is not read
//! as a failure; only internal consistency is checked.

use moentwine::core::engine::ServingSummary;
use moentwine::core::fleet::{Fleet, FleetSummary, ReplicaRole};
use moentwine_bench::json::Value;

/// Counts checks run and failed, keeping the failure messages.
#[derive(Default)]
pub struct Checks {
    pub total: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.total += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// No NaN or infinity, and monotone percentile ladders.
pub fn serving(checks: &mut Checks, label: &str, s: &ServingSummary) {
    let values = [
        s.sim_seconds,
        s.goodput_rps,
        s.goodput_tokens_per_s,
        s.ttft_p50,
        s.ttft_p95,
        s.ttft_p99,
        s.tpot_p50,
        s.tpot_p95,
        s.tpot_p99,
        s.e2e_p50,
        s.e2e_p99,
        s.queueing_p50,
        s.queueing_p99,
        s.mean_queue_depth,
        s.mean_active_requests,
    ];
    checks.check(values.iter().all(|v| v.is_finite()), || {
        format!("{label}: non-finite value in serving summary {values:?}")
    });
    let ladders: [&[f64]; 4] = [
        &[s.ttft_p50, s.ttft_p95, s.ttft_p99],
        &[s.tpot_p50, s.tpot_p95, s.tpot_p99],
        &[s.e2e_p50, s.e2e_p99],
        &[s.queueing_p50, s.queueing_p99],
    ];
    checks.check(
        ladders.iter().all(|l| l.windows(2).all(|w| w[0] <= w[1])),
        || format!("{label}: non-monotone percentile ladder {ladders:?}"),
    );
}

/// Fleet conservation — every routed copy is queued, active, rejected,
/// shed, completed, or cancelled as a speculative loser — and, for a
/// disaggregated fleet, hand-off conservation: transfers delivered to the
/// decode tier equal transfers priced minus those still in flight.
pub fn fleet(checks: &mut Checks, label: &str, fleet: &Fleet<'_>, summary: &FleetSummary) {
    let routed: u64 = summary.routed.iter().sum();
    let mut accounted = summary.speculative.cancelled_copies;
    for (engine, s) in fleet.engines().iter().zip(&summary.per_replica) {
        let snap = engine.replica_snapshot().expect("fleet replicas serve");
        accounted += snap.queue_depth as u64
            + snap.active as u64
            + s.admission_rejects
            + s.shed
            + s.completed as u64;
        serving(checks, label, s);
    }
    checks.check(routed == accounted, || {
        format!("{label}: fleet conservation: routed {routed} != accounted {accounted}")
    });
    serving(checks, label, &summary.aggregate);
    if fleet.disaggregated() {
        let delivered: u64 = summary
            .routed
            .iter()
            .zip(fleet.roles())
            .filter(|(_, role)| **role == ReplicaRole::Decode)
            .map(|(r, _)| r)
            .sum();
        let h = &summary.handoff;
        checks.check(delivered == h.kv_transfers - h.pending_transfers, || {
            format!(
                "{label}: hand-off conservation: delivered {delivered} != {} transfers - {} pending",
                h.kv_transfers, h.pending_transfers
            )
        });
    }
}

/// Validates a production-path run manifest against the
/// `moentwine/scenario_run/v1` schema.
pub fn manifest(checks: &mut Checks, manifest: &Value) {
    let verdict = moentwine_bench::scenario_run::validate(manifest);
    checks.check(verdict.is_ok(), || {
        format!("scenario_run/v1 manifest invalid: {}", verdict.unwrap_err())
    });
}
