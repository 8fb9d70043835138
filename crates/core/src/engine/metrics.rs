//! Per-iteration metrics, run summaries, and request-level serving
//! summaries (SLO percentiles).

use moe_workload::{ClassSpec, RequestClass, RequestRecord};
use serde::{Deserialize, Serialize};

/// Timing and load measurements for one inference iteration (sums over all
/// sparse layers).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct IterationMetrics {
    /// Iteration index.
    pub iteration: u64,
    /// Tokens entering the MoE layers this iteration (per TP group).
    pub tokens_per_group: u32,
    /// Attention compute time, seconds.
    pub attention_compute: f64,
    /// Attention all-reduce time, seconds.
    pub all_reduce: f64,
    /// MoE dispatch all-to-all time, seconds.
    pub dispatch: f64,
    /// MoE combine all-to-all time, seconds.
    pub combine: f64,
    /// MoE expert compute time (max over devices, summed over layers),
    /// seconds.
    pub moe_compute: f64,
    /// Stall caused by invasive expert migration, seconds.
    pub migration_stall: f64,
    /// End-to-end iteration time after comm/compute overlap, seconds.
    pub iteration_time: f64,
    /// Average over layers of max/mean device token load.
    pub load_ratio: f64,
    /// Average over layers of the maximum per-device token load.
    pub max_device_tokens: f64,
    /// Average over layers of the mean per-device token load.
    pub avg_device_tokens: f64,
    /// Replications issued this iteration.
    pub migrations_started: u64,
    /// Replications that became active this iteration.
    pub migrations_completed: u64,
    /// Simulated wall-clock time at the end of this iteration, seconds
    /// (cumulative priced iteration durations).
    pub sim_time: f64,
    /// Requests arrived but not yet admitted when the iteration was
    /// scheduled (0 in fixed-batch mode).
    pub queue_depth: u64,
    /// Requests resident (admitted, not complete) when the iteration was
    /// scheduled (0 in fixed-batch mode).
    pub active_requests: u64,
    /// KV tokens reserved against the admission budget (0 in fixed-batch
    /// mode).
    pub kv_tokens_in_use: u64,
    /// Requests that completed at the end of this iteration.
    pub requests_completed: u64,
}

impl IterationMetrics {
    /// Total all-to-all time (dispatch + combine).
    pub fn all_to_all(&self) -> f64 {
        self.dispatch + self.combine
    }

    /// Whether this iteration was interrupted by invasive migration.
    pub fn interrupted(&self) -> bool {
        self.migration_stall > 0.0
    }
}

/// Aggregate statistics over a run (optionally excluding a warm-up prefix).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct RunSummary {
    /// Iterations aggregated.
    pub iterations: usize,
    /// Mean iteration time, seconds.
    pub mean_iteration_time: f64,
    /// Mean attention compute time per iteration, seconds.
    pub mean_attention_compute: f64,
    /// Mean all-reduce time per iteration, seconds.
    pub mean_all_reduce: f64,
    /// Mean all-to-all (dispatch + combine) time per iteration, seconds.
    pub mean_all_to_all: f64,
    /// Mean MoE compute time per iteration, seconds.
    pub mean_moe_compute: f64,
    /// Mean invasive-migration stall per iteration, seconds.
    pub mean_migration_stall: f64,
    /// Mean max/mean device-load ratio.
    pub mean_load_ratio: f64,
    /// Total replications issued.
    pub migrations_started: u64,
    /// Total replications activated.
    pub migrations_completed: u64,
    /// Fraction of iterations interrupted by invasive migration.
    pub interruption_rate: f64,
    /// Mean tokens per group per iteration.
    pub mean_tokens_per_group: f64,
    /// Per-device MoE throughput: routed tokens processed per second per
    /// device, counting only MoE phase time (compute ∥ all-to-all).
    pub tokens_per_second_per_device: f64,
}

impl RunSummary {
    /// Aggregates `history[skip..]`.
    pub fn from_history(history: &[IterationMetrics], skip: usize, num_devices: usize) -> Self {
        let slice = &history[skip.min(history.len())..];
        let n = slice.len();
        if n == 0 {
            return RunSummary::default();
        }
        let nf = n as f64;
        let mut s = RunSummary {
            iterations: n,
            ..Default::default()
        };
        let mut total_selections = 0.0;
        let mut total_moe_time = 0.0;
        for m in slice {
            s.mean_iteration_time += m.iteration_time / nf;
            s.mean_attention_compute += m.attention_compute / nf;
            s.mean_all_reduce += m.all_reduce / nf;
            s.mean_all_to_all += m.all_to_all() / nf;
            s.mean_moe_compute += m.moe_compute / nf;
            s.mean_migration_stall += m.migration_stall / nf;
            s.mean_load_ratio += m.load_ratio / nf;
            s.migrations_started += m.migrations_started;
            s.migrations_completed += m.migrations_completed;
            if m.interrupted() {
                s.interruption_rate += 1.0 / nf;
            }
            s.mean_tokens_per_group += m.tokens_per_group as f64 / nf;
            total_selections += m.avg_device_tokens * num_devices as f64;
            total_moe_time += m.moe_compute.max(m.all_to_all()) + m.migration_stall;
        }
        if total_moe_time > 0.0 {
            s.tokens_per_second_per_device = total_selections / total_moe_time / num_devices as f64;
        }
        s
    }
}

/// Nearest-rank percentile of an **ascending-sorted** slice: the smallest
/// element with at least `p`% of the samples at or below it.
///
/// # Empty input
///
/// Returns `0.0` for an empty slice — the documented "no samples" value
/// every summary field defaults to (a percentile of zero observations has
/// no order statistic to report, and serving latencies are strictly
/// positive, so `0.0` is unambiguous). Callers that must distinguish
/// "no samples" from a true zero should check `is_empty()` first.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`. Debug builds additionally assert
/// (with a message naming the contract) that the input is sorted.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.is_empty() {
        debug_assert!(
            sorted.is_empty(),
            "percentile of an empty slice is defined as 0.0 (no samples)"
        );
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted ascending"
    );
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Sorts `samples` and reads the (p50, p95, p99) nearest-rank ladder in
/// one pass — the triple every serving metric reports. Percentiles a
/// metric does not surface (e.g. e2e p95) are simply unused by the caller.
fn sort_and_ladder(mut samples: Vec<f64>) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    (
        percentile(&samples, 50.0),
        percentile(&samples, 95.0),
        percentile(&samples, 99.0),
    )
}

/// Request-level serving statistics over a run: SLO percentiles (TTFT,
/// TPOT, end-to-end latency, queueing delay), goodput, queue/KV occupancy,
/// and admission rejects. Produced by
/// [`InferenceEngine::serving_summary`](super::InferenceEngine::serving_summary)
/// alongside the per-iteration [`RunSummary`].
///
/// Latency percentiles are over **completed** requests only (nearest-rank,
/// see [`percentile`]); TPOT percentiles additionally exclude requests with
/// fewer than two decoded tokens, for which TPOT is undefined. Goodput
/// counts only completed requests: `goodput_rps` is completions per
/// simulated second, `goodput_tokens_per_s` their prompt+output tokens per
/// simulated second.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct ServingSummary {
    /// Requests completed within the run.
    pub completed: usize,
    /// Requests rejected at admission (footprint exceeds the KV budget).
    pub admission_rejects: u64,
    /// Simulated wall-clock time covered, seconds.
    pub sim_seconds: f64,
    /// Completed requests per simulated second.
    pub goodput_rps: f64,
    /// Prompt + output tokens of completed requests per simulated second.
    pub goodput_tokens_per_s: f64,
    /// Median time-to-first-token, seconds.
    pub ttft_p50: f64,
    /// 95th-percentile time-to-first-token, seconds.
    pub ttft_p95: f64,
    /// 99th-percentile time-to-first-token, seconds.
    pub ttft_p99: f64,
    /// Median time-per-output-token, seconds.
    pub tpot_p50: f64,
    /// 95th-percentile time-per-output-token, seconds.
    pub tpot_p95: f64,
    /// 99th-percentile time-per-output-token, seconds.
    pub tpot_p99: f64,
    /// Median end-to-end request latency, seconds.
    pub e2e_p50: f64,
    /// 99th-percentile end-to-end request latency, seconds.
    pub e2e_p99: f64,
    /// Median queueing delay before admission, seconds.
    pub queueing_p50: f64,
    /// 99th-percentile queueing delay before admission, seconds.
    pub queueing_p99: f64,
    /// Mean un-admitted queue depth over iterations.
    pub mean_queue_depth: f64,
    /// Maximum un-admitted queue depth over iterations.
    pub max_queue_depth: u64,
    /// Mean resident (admitted) request count over iterations.
    pub mean_active_requests: f64,
    /// High-water mark of reserved KV tokens.
    pub peak_kv_tokens: u64,
    /// Requests shed past their class deadline while waiting (0 for
    /// workload-free runs — no class ever sheds by default).
    pub shed: u64,
    /// Per-tenant-class breakdown, one entry per configured class in
    /// configured order. Empty for workload-free runs, which keeps their
    /// serialized summaries byte-identical to the pre-class format.
    pub classes: Vec<ClassServingSummary>,
}

/// Per-tenant-class serving statistics: completion/reject/shed counts, the
/// class's latency percentiles, and percentile *attainment* against its SLO
/// targets (the fraction of completed requests meeting the target).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct ClassServingSummary {
    /// The tenant class.
    pub class: RequestClass,
    /// Requests of this class completed within the run.
    pub completed: usize,
    /// Requests of this class rejected at admission.
    pub rejected: u64,
    /// Requests of this class shed past their deadline.
    pub shed: u64,
    /// Median time-to-first-token, seconds.
    pub ttft_p50: f64,
    /// 95th-percentile time-to-first-token, seconds.
    pub ttft_p95: f64,
    /// 99th-percentile time-to-first-token, seconds.
    pub ttft_p99: f64,
    /// Median time-per-output-token, seconds.
    pub tpot_p50: f64,
    /// 95th-percentile time-per-output-token, seconds.
    pub tpot_p95: f64,
    /// 99th-percentile time-per-output-token, seconds.
    pub tpot_p99: f64,
    /// The class's TTFT SLO target, seconds.
    pub ttft_slo: f64,
    /// The class's TPOT SLO target, seconds.
    pub tpot_slo: f64,
    /// Fraction of completed requests with TTFT ≤ the target (0.0 with no
    /// completions — the "no samples" convention).
    pub ttft_attainment: f64,
    /// Fraction of TPOT-defined completed requests with TPOT ≤ the target
    /// (0.0 with none defined).
    pub tpot_attainment: f64,
}

impl ServingSummary {
    /// Builds a summary from completion records: the one exact read-out
    /// the engine and the fleet share.
    ///
    /// * `records` — completed-request lifecycle records, any order.
    /// * `history` — per-iteration metrics for the queue-depth and
    ///   occupancy statistics (empty leaves them zero).
    /// * `sim_seconds` — the simulated span goodput is measured against.
    /// * `admission_rejects` / `peak_kv_tokens` — queue counters.
    /// * `(shed_by_class, rejected_by_class)` — per-class queue counters
    ///   indexed by [`RequestClass::index`], as
    ///   [`InferenceEngine::class_counters`](super::InferenceEngine::class_counters)
    ///   returns them; they give the `shed` total and the class sections.
    /// * `classes` — one [`ClassServingSummary`] per entry, in order
    ///   (empty for a class-free summary).
    pub fn from_records(
        records: &[RequestRecord],
        history: &[IterationMetrics],
        sim_seconds: f64,
        admission_rejects: u64,
        peak_kv_tokens: u64,
        (shed_by_class, rejected_by_class): ([u64; 2], [u64; 2]),
        classes: &[ClassSpec],
    ) -> Self {
        let mut s = ServingSummary {
            completed: records.len(),
            admission_rejects,
            sim_seconds,
            peak_kv_tokens,
            shed: shed_by_class.iter().sum(),
            ..Default::default()
        };
        if !history.is_empty() {
            let n = history.len() as f64;
            for m in history {
                s.mean_queue_depth += m.queue_depth as f64 / n;
                s.mean_active_requests += m.active_requests as f64 / n;
                s.max_queue_depth = s.max_queue_depth.max(m.queue_depth);
            }
        }
        for spec in classes {
            let class_records: Vec<&RequestRecord> =
                records.iter().filter(|r| r.class == spec.class).collect();
            let mut c = ClassServingSummary {
                class: spec.class,
                completed: class_records.len(),
                rejected: rejected_by_class[spec.class.index()],
                shed: shed_by_class[spec.class.index()],
                ttft_slo: spec.ttft_slo,
                tpot_slo: spec.tpot_slo,
                ..Default::default()
            };
            if !class_records.is_empty() {
                (c.ttft_p50, c.ttft_p95, c.ttft_p99) =
                    sort_and_ladder(class_records.iter().map(|r| r.ttft()).collect());
                let within = class_records
                    .iter()
                    .filter(|r| r.ttft() <= spec.ttft_slo)
                    .count();
                c.ttft_attainment = within as f64 / class_records.len() as f64;
            }
            let tpots: Vec<f64> = class_records.iter().filter_map(|r| r.tpot()).collect();
            if !tpots.is_empty() {
                let within = tpots.iter().filter(|&&t| t <= spec.tpot_slo).count();
                c.tpot_attainment = within as f64 / tpots.len() as f64;
                (c.tpot_p50, c.tpot_p95, c.tpot_p99) = sort_and_ladder(tpots);
            }
            s.classes.push(c);
        }
        if records.is_empty() {
            return s;
        }
        (s.ttft_p50, s.ttft_p95, s.ttft_p99) =
            sort_and_ladder(records.iter().map(RequestRecord::ttft).collect());
        (s.tpot_p50, s.tpot_p95, s.tpot_p99) =
            sort_and_ladder(records.iter().filter_map(RequestRecord::tpot).collect());
        (s.e2e_p50, _, s.e2e_p99) =
            sort_and_ladder(records.iter().map(RequestRecord::e2e_latency).collect());
        (s.queueing_p50, _, s.queueing_p99) =
            sort_and_ladder(records.iter().map(RequestRecord::queueing_delay).collect());
        if sim_seconds > 0.0 {
            s.goodput_rps = records.len() as f64 / sim_seconds;
            let tokens: f64 = records
                .iter()
                .map(|r| r.input_len as f64 + r.output_len as f64)
                .sum();
            s.goodput_tokens_per_s = tokens / sim_seconds;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_workload::{RequestId, Scenario};

    /// Per-class `(shed, rejected)` counters of a run that shed and
    /// rejected nothing.
    const ZERO_CLASS_COUNTERS: ([u64; 2], [u64; 2]) = ([0, 0], [0, 0]);

    fn metric(t: f64, stall: f64) -> IterationMetrics {
        IterationMetrics {
            iteration_time: t,
            migration_stall: stall,
            dispatch: 1.0,
            combine: 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn all_to_all_sums_halves() {
        assert_eq!(metric(1.0, 0.0).all_to_all(), 3.0);
    }

    #[test]
    fn summary_means_and_interruption_rate() {
        let history = vec![metric(1.0, 0.0), metric(3.0, 0.5)];
        let s = RunSummary::from_history(&history, 0, 4);
        assert!((s.mean_iteration_time - 2.0).abs() < 1e-12);
        assert!((s.interruption_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.iterations, 2);
    }

    #[test]
    fn warmup_skip() {
        let history = vec![metric(100.0, 0.0), metric(1.0, 0.0)];
        let s = RunSummary::from_history(&history, 1, 4);
        assert_eq!(s.iterations, 1);
        assert!((s.mean_iteration_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_history_is_safe() {
        let s = RunSummary::from_history(&[], 0, 4);
        assert_eq!(s.iterations, 0);
        assert_eq!(s.mean_iteration_time, 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// The documented empty-input contract: every percentile of zero
    /// samples is 0.0, at both endpoints and in between.
    #[test]
    fn percentile_of_empty_slice_is_zero_everywhere() {
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&[], p), 0.0);
        }
        assert_eq!(sort_and_ladder(Vec::new()), (0.0, 0.0, 0.0));
    }

    /// A single sample is every percentile of itself (nearest rank clamps
    /// to the only element).
    #[test]
    fn percentile_of_singleton_is_the_element() {
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&[3.5], p), 3.5);
        }
        assert_eq!(sort_and_ladder(vec![3.5]), (3.5, 3.5, 3.5));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn percentile_rejects_out_of_range_p() {
        percentile(&[1.0], 101.0);
    }

    /// The hoisted helper sorts its input itself and matches direct
    /// nearest-rank reads on the sorted data.
    #[test]
    fn sort_and_ladder_matches_percentile_on_unsorted_input() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(sort_and_ladder(samples), (50.0, 95.0, 99.0));
    }

    fn record(id: u64, arrival: f64, ttft: f64, e2e: f64, out: u32) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            scenario: Scenario::Chat,
            class: RequestClass::Interactive,
            input_len: 10,
            output_len: out,
            arrival,
            admitted: arrival + 0.5,
            first_token: arrival + ttft,
            finish: arrival + e2e,
            prefill_scheduled: 10,
            decode_scheduled: out,
        }
    }

    #[test]
    fn serving_summary_percentiles_and_goodput() {
        let records: Vec<RequestRecord> = (0..4)
            .map(|i| record(i, i as f64, 1.0 + i as f64, 3.0 + i as f64, 4))
            .collect();
        let history = vec![
            IterationMetrics {
                sim_time: 5.0,
                queue_depth: 2,
                active_requests: 3,
                ..Default::default()
            },
            IterationMetrics {
                sim_time: 10.0,
                queue_depth: 4,
                active_requests: 1,
                ..Default::default()
            },
        ];
        let s = ServingSummary::from_records(
            &records,
            &history,
            10.0,
            7,
            123,
            ZERO_CLASS_COUNTERS,
            &[],
        );
        assert_eq!(s.completed, 4);
        assert_eq!(s.admission_rejects, 7);
        assert_eq!(s.peak_kv_tokens, 123);
        assert_eq!(s.sim_seconds, 10.0);
        // TTFTs are [1, 2, 3, 4]: nearest-rank p50 = 2, p99 = 4.
        assert_eq!(s.ttft_p50, 2.0);
        assert_eq!(s.ttft_p99, 4.0);
        assert_eq!(s.e2e_p50, 4.0);
        assert_eq!(s.queueing_p50, 0.5);
        assert_eq!(s.goodput_rps, 0.4);
        assert_eq!(s.goodput_tokens_per_s, 4.0 * 14.0 / 10.0);
        assert_eq!(s.mean_queue_depth, 3.0);
        assert_eq!(s.max_queue_depth, 4);
        assert_eq!(s.mean_active_requests, 2.0);
        // TPOT = (e2e - ttft) / (out - 1) = 2/3 for every record.
        assert!((s.tpot_p50 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn serving_summary_excludes_undefined_tpot() {
        // A single-token response has no inter-token gap.
        let records = vec![record(0, 0.0, 1.0, 1.0, 1), record(1, 0.0, 1.0, 3.0, 3)];
        let history = vec![IterationMetrics {
            sim_time: 4.0,
            ..Default::default()
        }];
        let s =
            ServingSummary::from_records(&records, &history, 4.0, 0, 0, ZERO_CLASS_COUNTERS, &[]);
        assert_eq!(s.tpot_p50, 1.0); // only the 3-token record contributes
        assert_eq!(s.tpot_p99, 1.0);
    }

    #[test]
    fn serving_summary_empty_is_safe() {
        let s = ServingSummary::from_records(&[], &[], 0.0, 0, 0, ZERO_CLASS_COUNTERS, &[]);
        assert_eq!(s.completed, 0);
        assert_eq!(s.goodput_rps, 0.0);
        assert_eq!(s.ttft_p99, 0.0);
        assert_eq!(s.shed, 0);
        assert!(s.classes.is_empty());
    }

    #[test]
    fn per_class_summary_reports_attainment_against_slo() {
        // Interactive TTFTs [1, 2, 3, 4] against a 2.5 s target: 2 of 4
        // within. One batch record with TTFT 1 against 2.0: within.
        let mut records: Vec<RequestRecord> = (0..4)
            .map(|i| record(i, i as f64, 1.0 + i as f64, 3.0 + i as f64, 4))
            .collect();
        records.push(RequestRecord {
            class: RequestClass::Batch,
            ..record(4, 0.0, 1.0, 3.0, 4)
        });
        let history = vec![IterationMetrics {
            sim_time: 10.0,
            ..Default::default()
        }];
        let classes = vec![
            ClassSpec::interactive().with_slo(2.5, 1.0),
            ClassSpec::batch().with_slo(2.0, 0.1),
        ];
        let s = ServingSummary::from_records(
            &records,
            &history,
            10.0,
            1,
            0,
            ([0, 3], [1, 0]),
            &classes,
        );
        assert_eq!(s.shed, 3);
        assert_eq!(s.classes.len(), 2);
        let i = &s.classes[0];
        assert_eq!(i.class, RequestClass::Interactive);
        assert_eq!((i.completed, i.rejected, i.shed), (4, 1, 0));
        assert_eq!(i.ttft_p50, 2.0);
        assert_eq!(i.ttft_attainment, 0.5);
        // Every interactive TPOT is 2/3 ≤ 1.0.
        assert_eq!(i.tpot_attainment, 1.0);
        let b = &s.classes[1];
        assert_eq!(b.class, RequestClass::Batch);
        assert_eq!((b.completed, b.rejected, b.shed), (1, 0, 3));
        assert_eq!(b.ttft_attainment, 1.0);
        // Batch TPOT 2/3 > 0.1: missed.
        assert_eq!(b.tpot_attainment, 0.0);
        assert_eq!((b.ttft_slo, b.tpot_slo), (2.0, 0.1));
        // An empty class list stays class-free.
        let plain =
            ServingSummary::from_records(&records, &history, 10.0, 1, 0, ZERO_CLASS_COUNTERS, &[]);
        assert!(plain.classes.is_empty());
        assert_eq!(plain.shed, 0);
    }

    /// A configured class with zero completions reports the "no samples"
    /// zeros, not NaN.
    #[test]
    fn empty_class_attainment_is_zero() {
        let classes = vec![ClassSpec::interactive(), ClassSpec::batch()];
        let records = vec![record(0, 0.0, 1.0, 3.0, 4)];
        let s =
            ServingSummary::from_records(&records, &[], 0.0, 0, 0, ZERO_CLASS_COUNTERS, &classes);
        let b = &s.classes[1];
        assert_eq!(b.completed, 0);
        assert_eq!(b.ttft_attainment, 0.0);
        assert_eq!(b.tpot_attainment, 0.0);
        assert_eq!(b.ttft_p99, 0.0);
    }
}
