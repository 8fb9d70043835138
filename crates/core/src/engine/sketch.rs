//! Streaming serving summaries: P² quantile sketches and O(1)-memory
//! accumulators behind [`SummaryMode::Streaming`].
//!
//! The exact [`ServingSummary`](super::ServingSummary) path retains every
//! completed [`RequestRecord`] and sorts at summary time — O(requests)
//! memory and O(n log n) at the barrier, which caps fleet simulations far
//! below the million-request traffic the ROADMAP targets. This module
//! maintains the same summary fields incrementally:
//!
//! * **Percentiles** (TTFT / TPOT / e2e / queueing) through the P² marker
//!   algorithm (Jain & Chlamtac, CACM 1985): five markers per tracked
//!   quantile, updated in O(1) per observation, warm-started from an exact
//!   prefix buffer of [`P2Quantile::WARMUP`] samples so small runs report
//!   *exactly* the nearest-rank value the exact path computes.
//! * **Goodput, occupancy, and counters** through plain running sums.
//!
//! The error contract (pinned by the differential proptest in
//! `tests/fleet_scheduler.rs` and documented in DESIGN.md §10): for ≤
//! [`P2Quantile::WARMUP`] samples the streaming estimate equals the exact
//! nearest-rank percentile bit-for-bit; beyond that, each estimate lies
//! within the exact distribution's neighboring-rank window (p50 within the
//! exact [p35, p65], p95 within [p85, p100], p99 within [p90, p100]) —
//! rank-windowed bounds rather than value-relative ones, since no O(1)
//! sketch can bound value error on adversarial bimodal data.

use serde::{Deserialize, Serialize};

use moe_workload::{ClassSpec, RequestRecord};

use super::metrics::{percentile, ClassServingSummary, ServingSummary};

/// How request-level serving summaries are maintained.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum SummaryMode {
    /// Retain every completed [`RequestRecord`] and compute exact
    /// nearest-rank percentiles at summary time (the golden oracle).
    #[default]
    Exact,
    /// Fold completions into [`P2Quantile`] sketches as they finish:
    /// O(1) memory per metric, no retained records, percentile estimates
    /// within the documented rank windows of the exact path.
    Streaming,
}

impl SummaryMode {
    /// Stable lowercase name (`"exact"` / `"streaming"`), matching the
    /// `FromStr` spelling and the scenario-spec JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            SummaryMode::Exact => "exact",
            SummaryMode::Streaming => "streaming",
        }
    }
}

impl std::fmt::Display for SummaryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SummaryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(SummaryMode::Exact),
            "streaming" => Ok(SummaryMode::Streaming),
            other => Err(format!(
                "unknown summary mode {other:?} (expected \"exact\" or \"streaming\")"
            )),
        }
    }
}

/// A P² (piecewise-parabolic) single-quantile estimator with an exact
/// warm-up prefix.
///
/// The first [`P2Quantile::WARMUP`] observations are buffered and answered
/// by exact nearest-rank; past that the buffer seeds the five P² markers
/// (min, q/2, q, (1+q)/2, max) and is dropped, after which every
/// observation costs O(1) time and the estimator occupies O(1) memory.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    q: f64,
    /// Exact prefix buffer; empty once the markers have been seeded.
    warmup: Vec<f64>,
    /// Marker heights (estimated quantile values), ascending.
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks, stored as integers in f64).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Observations answered exactly (and buffered) before the sketch
    /// switches to O(1) marker updates.
    pub const WARMUP: usize = 64;

    /// A sketch tracking the `q`-quantile, `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        P2Quantile {
            q,
            warmup: Vec::new(),
            heights: [0.0; 5],
            positions: [0.0; 5],
            desired: [0.0; 5],
            count: 0,
        }
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation into the sketch.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "latencies are finite");
        self.count += 1;
        if self.count <= Self::WARMUP as u64 {
            self.warmup.push(x);
            return;
        }
        // Seed lazily on the first post-warm-up sample, so every estimate
        // over ≤ WARMUP observations is answered from the exact buffer.
        if !self.warmup.is_empty() {
            self.seed_markers();
        }
        self.p2_update(x);
    }

    /// Seeds the five markers from the sorted warm-up buffer and drops it.
    fn seed_markers(&mut self) {
        let mut sorted = std::mem::take(&mut self.warmup);
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = sorted.len();
        for (i, d) in self.marker_quantiles().iter().enumerate() {
            // 1-based rank of this marker in an n-sample set.
            let desired = 1.0 + d * (n - 1) as f64;
            self.desired[i] = desired;
            self.positions[i] = desired.round().clamp(1.0, n as f64);
        }
        // Marker ranks must be strictly increasing for the P² adjustment
        // step (zero-width cells divide by zero). Extreme quantiles round
        // neighbors onto the same rank: push ties up, pin the max marker to
        // rank n, then push back down below it (WARMUP ≥ 5 leaves room).
        for i in 1..5 {
            if self.positions[i] <= self.positions[i - 1] {
                self.positions[i] = self.positions[i - 1] + 1.0;
            }
        }
        self.positions[4] = n as f64;
        for i in (0..4).rev() {
            if self.positions[i] >= self.positions[i + 1] {
                self.positions[i] = self.positions[i + 1] - 1.0;
            }
        }
        for i in 0..5 {
            self.heights[i] = sorted[self.positions[i] as usize - 1];
        }
    }

    /// The five tracked cumulative-probability points.
    fn marker_quantiles(&self) -> [f64; 5] {
        [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0]
    }

    /// One classic P² update (find cell, shift positions, adjust interior
    /// markers parabolically or linearly).
    fn p2_update(&mut self, x: f64) {
        let h = &mut self.heights;
        // 1. Locate the cell and extend the extremes.
        let k = if x < h[0] {
            h[0] = x;
            0
        } else if x >= h[4] {
            h[4] = h[4].max(x);
            3
        } else {
            // h[k] <= x < h[k+1] for some k in 0..=3.
            (0..4)
                .rfind(|&i| h[i] <= x)
                .expect("x >= h[0] in this branch")
        };
        // 2. Shift actual positions above the cell; advance desired ones.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for (i, d) in self.marker_quantiles().iter().enumerate() {
            self.desired[i] += d;
        }
        // 3. Adjust the three interior markers toward their desired ranks.
        for i in 1..4 {
            let delta = self.desired[i] - self.positions[i];
            let room_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let room_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (delta >= 1.0 && room_up) || (delta <= -1.0 && room_down) {
                let s = delta.signum();
                let parabolic = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    /// Piecewise-parabolic height prediction for marker `i` moved by `s`.
    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + s / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola would leave the bracket.
    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate: exact nearest-rank during warm-up,
    /// the central P² marker afterwards. 0.0 before any observation
    /// (mirroring [`percentile`] on an empty slice).
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if !self.warmup.is_empty() {
            let mut sorted = self.warmup.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            return percentile(&sorted, self.q * 100.0);
        }
        self.heights[2]
    }
}

/// Incremental [`ServingSummary`] accumulator: the streaming counterpart
/// of [`ServingSummary::from_records`], fed one completion (and one
/// iteration-occupancy sample) at a time in O(1) memory.
///
/// Sketches do not merge, so a fleet keeps its *own* aggregate
/// `StreamingSummary` and feeds it every replica's completions as they
/// drain (see `Fleet`); per-replica instances live inside each engine.
#[derive(Clone, Debug)]
pub struct StreamingSummary {
    completed: u64,
    token_sum: f64,
    ttft_p50: P2Quantile,
    ttft_p95: P2Quantile,
    ttft_p99: P2Quantile,
    tpot_p50: P2Quantile,
    tpot_p95: P2Quantile,
    tpot_p99: P2Quantile,
    e2e_p50: P2Quantile,
    e2e_p99: P2Quantile,
    queueing_p50: P2Quantile,
    queueing_p99: P2Quantile,
    iterations: u64,
    queue_depth_sum: f64,
    active_sum: f64,
    max_queue_depth: u64,
    /// Per-tenant-class sketch sets, one per configured class in configured
    /// order (empty for workload-free runs).
    classes: Vec<ClassSketch>,
}

/// One tenant class's streaming state: a TTFT/TPOT sketch ladder plus the
/// exact attainment counters (attainment is a counting statistic, so both
/// summary modes report it identically).
#[derive(Clone, Debug)]
struct ClassSketch {
    spec: ClassSpec,
    completed: u64,
    ttft_within: u64,
    tpot_defined: u64,
    tpot_within: u64,
    ttft_p50: P2Quantile,
    ttft_p95: P2Quantile,
    ttft_p99: P2Quantile,
    tpot_p50: P2Quantile,
    tpot_p95: P2Quantile,
    tpot_p99: P2Quantile,
}

impl ClassSketch {
    fn new(spec: ClassSpec) -> Self {
        ClassSketch {
            spec,
            completed: 0,
            ttft_within: 0,
            tpot_defined: 0,
            tpot_within: 0,
            ttft_p50: P2Quantile::new(0.50),
            ttft_p95: P2Quantile::new(0.95),
            ttft_p99: P2Quantile::new(0.99),
            tpot_p50: P2Quantile::new(0.50),
            tpot_p95: P2Quantile::new(0.95),
            tpot_p99: P2Quantile::new(0.99),
        }
    }

    fn observe(&mut self, record: &RequestRecord) {
        self.completed += 1;
        let ttft = record.ttft();
        if ttft <= self.spec.ttft_slo {
            self.ttft_within += 1;
        }
        self.ttft_p50.observe(ttft);
        self.ttft_p95.observe(ttft);
        self.ttft_p99.observe(ttft);
        if let Some(tpot) = record.tpot() {
            self.tpot_defined += 1;
            if tpot <= self.spec.tpot_slo {
                self.tpot_within += 1;
            }
            self.tpot_p50.observe(tpot);
            self.tpot_p95.observe(tpot);
            self.tpot_p99.observe(tpot);
        }
    }

    fn summary(&self, rejected: u64, shed: u64) -> ClassServingSummary {
        let mut c = ClassServingSummary {
            class: self.spec.class,
            completed: self.completed as usize,
            rejected,
            shed,
            ttft_slo: self.spec.ttft_slo,
            tpot_slo: self.spec.tpot_slo,
            ..Default::default()
        };
        if self.completed > 0 {
            c.ttft_attainment = self.ttft_within as f64 / self.completed as f64;
            c.ttft_p50 = self.ttft_p50.estimate();
            c.ttft_p95 = self.ttft_p95.estimate().max(c.ttft_p50);
            c.ttft_p99 = self.ttft_p99.estimate().max(c.ttft_p95);
        }
        if self.tpot_defined > 0 {
            c.tpot_attainment = self.tpot_within as f64 / self.tpot_defined as f64;
            c.tpot_p50 = self.tpot_p50.estimate();
            c.tpot_p95 = self.tpot_p95.estimate().max(c.tpot_p50);
            c.tpot_p99 = self.tpot_p99.estimate().max(c.tpot_p95);
        }
        c
    }
}

impl StreamingSummary {
    /// An empty accumulator with one sketch set (and the exact attainment
    /// counters) per tenant class in `classes`, in order; empty tracks no
    /// class sections.
    pub fn with_classes(classes: &[ClassSpec]) -> Self {
        StreamingSummary {
            completed: 0,
            token_sum: 0.0,
            ttft_p50: P2Quantile::new(0.50),
            ttft_p95: P2Quantile::new(0.95),
            ttft_p99: P2Quantile::new(0.99),
            tpot_p50: P2Quantile::new(0.50),
            tpot_p95: P2Quantile::new(0.95),
            tpot_p99: P2Quantile::new(0.99),
            e2e_p50: P2Quantile::new(0.50),
            e2e_p99: P2Quantile::new(0.99),
            queueing_p50: P2Quantile::new(0.50),
            queueing_p99: P2Quantile::new(0.99),
            iterations: 0,
            queue_depth_sum: 0.0,
            active_sum: 0.0,
            max_queue_depth: 0,
            classes: classes.iter().map(|c| ClassSketch::new(*c)).collect(),
        }
    }

    /// Folds one completed request into every latency sketch and the
    /// goodput counters (the streaming analogue of pushing a record onto
    /// the exact path's retained vector).
    pub fn observe_record(&mut self, record: &RequestRecord) {
        self.completed += 1;
        self.token_sum += record.input_len as f64 + record.output_len as f64;
        let ttft = record.ttft();
        self.ttft_p50.observe(ttft);
        self.ttft_p95.observe(ttft);
        self.ttft_p99.observe(ttft);
        if let Some(tpot) = record.tpot() {
            self.tpot_p50.observe(tpot);
            self.tpot_p95.observe(tpot);
            self.tpot_p99.observe(tpot);
        }
        let e2e = record.e2e_latency();
        self.e2e_p50.observe(e2e);
        self.e2e_p99.observe(e2e);
        let queueing = record.queueing_delay();
        self.queueing_p50.observe(queueing);
        self.queueing_p99.observe(queueing);
        if let Some(class) = self
            .classes
            .iter_mut()
            .find(|c| c.spec.class == record.class)
        {
            class.observe(record);
        }
    }

    /// Folds one iteration's occupancy sample (the streaming analogue of
    /// the exact path's scan over `history`).
    pub fn observe_iteration(&mut self, queue_depth: u64, active_requests: u64) {
        self.iterations += 1;
        self.queue_depth_sum += queue_depth as f64;
        self.active_sum += active_requests as f64;
        self.max_queue_depth = self.max_queue_depth.max(queue_depth);
    }

    /// Requests folded in so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Materializes the summary: the streaming counterpart of
    /// [`ServingSummary::from_records`], with the same caller-owned
    /// arguments (the simulated span, the queue counters, and the per-class
    /// `(shed, rejected)` counters indexed by
    /// [`RequestClass::index`](moe_workload::RequestClass::index)); the
    /// class list is the one the accumulator was built with.
    pub fn summary(
        &self,
        sim_seconds: f64,
        admission_rejects: u64,
        peak_kv_tokens: u64,
        (shed_by_class, rejected_by_class): ([u64; 2], [u64; 2]),
    ) -> ServingSummary {
        let mut s = ServingSummary {
            completed: self.completed as usize,
            admission_rejects,
            sim_seconds,
            peak_kv_tokens,
            max_queue_depth: self.max_queue_depth,
            shed: shed_by_class.iter().sum(),
            ..Default::default()
        };
        if self.iterations > 0 {
            let n = self.iterations as f64;
            s.mean_queue_depth = self.queue_depth_sum / n;
            s.mean_active_requests = self.active_sum / n;
        }
        for class in &self.classes {
            let index = class.spec.class.index();
            s.classes
                .push(class.summary(rejected_by_class[index], shed_by_class[index]));
        }
        if self.completed == 0 {
            return s;
        }
        // Independent sketches over the same stream can cross by their
        // individual estimation error; ladders are clamped monotone at
        // read-out (a no-op whenever the estimates are already ordered,
        // in particular everywhere the exact-within-warm-up contract
        // applies).
        s.ttft_p50 = self.ttft_p50.estimate();
        s.ttft_p95 = self.ttft_p95.estimate().max(s.ttft_p50);
        s.ttft_p99 = self.ttft_p99.estimate().max(s.ttft_p95);
        s.tpot_p50 = self.tpot_p50.estimate();
        s.tpot_p95 = self.tpot_p95.estimate().max(s.tpot_p50);
        s.tpot_p99 = self.tpot_p99.estimate().max(s.tpot_p95);
        s.e2e_p50 = self.e2e_p50.estimate();
        s.e2e_p99 = self.e2e_p99.estimate().max(s.e2e_p50);
        s.queueing_p50 = self.queueing_p50.estimate();
        s.queueing_p99 = self.queueing_p99.estimate().max(s.queueing_p50);
        if sim_seconds > 0.0 {
            s.goodput_rps = self.completed as f64 / sim_seconds;
            s.goodput_tokens_per_s = self.token_sum / sim_seconds;
        }
        s
    }
}

impl Default for StreamingSummary {
    fn default() -> Self {
        StreamingSummary::with_classes(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-uniform stream in (0, 1) (SplitMix64 bits).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn exact(samples: &[f64], p: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile(&sorted, p)
    }

    #[test]
    fn warmup_prefix_is_exactly_nearest_rank() {
        let samples = stream(7, P2Quantile::WARMUP);
        for p in [0.5, 0.95, 0.99] {
            let mut sketch = P2Quantile::new(p);
            for (i, &x) in samples.iter().enumerate() {
                sketch.observe(x);
                assert_eq!(
                    sketch.estimate(),
                    exact(&samples[..=i], p * 100.0),
                    "exact prefix broke at n={} q={p}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn empty_sketch_reports_zero() {
        assert_eq!(P2Quantile::new(0.5).estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn tracks_uniform_quantiles_closely() {
        for seed in [3, 17, 91] {
            let samples = stream(seed, 20_000);
            for (q, tol) in [(0.5, 0.02), (0.95, 0.01), (0.99, 0.01)] {
                let mut sketch = P2Quantile::new(q);
                for &x in &samples {
                    sketch.observe(x);
                }
                let err = (sketch.estimate() - q).abs();
                assert!(
                    err < tol,
                    "seed {seed} q={q}: estimate {} off by {err}",
                    sketch.estimate()
                );
            }
        }
    }

    #[test]
    fn estimate_stays_within_observed_range() {
        // Adversarial bimodal stream: the estimate must still be bracketed
        // by the observed min/max (the P² markers are clamped).
        let samples: Vec<f64> = (0..5000)
            .map(|i| if i % 2 == 0 { 1.0e-4 } else { 9.0 })
            .collect();
        let mut sketch = P2Quantile::new(0.5);
        for &x in &samples {
            sketch.observe(x);
        }
        let e = sketch.estimate();
        assert!((1.0e-4..=9.0).contains(&e), "estimate {e} escaped range");
    }

    #[test]
    fn summary_mode_names_round_trip() {
        for mode in [SummaryMode::Exact, SummaryMode::Streaming] {
            assert_eq!(mode.name().parse::<SummaryMode>().unwrap(), mode);
        }
        assert!("exactly".parse::<SummaryMode>().is_err());
        assert_eq!(SummaryMode::default(), SummaryMode::Exact);
    }

    fn test_record(id: u64, arrival: f64, ttft: f64, e2e: f64) -> RequestRecord {
        use moe_workload::{RequestClass, RequestId, Scenario};
        RequestRecord {
            id: RequestId(id),
            scenario: Scenario::Chat,
            class: if id.is_multiple_of(3) {
                RequestClass::Batch
            } else {
                RequestClass::Interactive
            },
            input_len: 10,
            output_len: 4,
            arrival,
            admitted: arrival + 0.5,
            first_token: arrival + ttft,
            finish: arrival + e2e,
            prefill_scheduled: 10,
            decode_scheduled: 4,
        }
    }

    #[test]
    fn streaming_summary_matches_exact_on_small_runs() {
        let records: Vec<RequestRecord> = (0..32)
            .map(|i| test_record(i, i as f64, 1.0 + i as f64, 3.0 + 2.0 * i as f64))
            .collect();
        let mut streaming = StreamingSummary::default();
        for r in &records {
            streaming.observe_record(r);
        }
        streaming.observe_iteration(2, 3);
        streaming.observe_iteration(4, 1);
        let s = streaming.summary(10.0, 7, 123, ([0, 0], [0, 0]));

        let history = vec![
            crate::engine::IterationMetrics {
                sim_time: 5.0,
                queue_depth: 2,
                active_requests: 3,
                ..Default::default()
            },
            crate::engine::IterationMetrics {
                sim_time: 10.0,
                queue_depth: 4,
                active_requests: 1,
                ..Default::default()
            },
        ];
        let exact =
            ServingSummary::from_records(&records, &history, 10.0, 7, 123, ([0, 0], [0, 0]), &[]);
        // ≤ WARMUP samples: every percentile is bit-identical to exact.
        assert_eq!(s, exact);
    }

    /// The per-class sections agree bit-for-bit between the two summary
    /// modes on small runs: percentiles through the exact warm-up prefix,
    /// attainment through exact counters in both paths.
    #[test]
    fn streaming_class_sections_match_exact_within_warmup() {
        let classes = vec![
            ClassSpec::interactive().with_slo(10.0, 0.8),
            ClassSpec::batch().with_slo(30.0, 2.0),
        ];
        let records: Vec<RequestRecord> = (0..40)
            .map(|i| test_record(i, i as f64, 1.0 + i as f64, 3.0 + 2.0 * i as f64))
            .collect();
        let mut streaming = StreamingSummary::with_classes(&classes);
        for r in &records {
            streaming.observe_record(r);
        }
        let history = vec![crate::engine::IterationMetrics {
            sim_time: 50.0,
            ..Default::default()
        }];
        streaming.observe_iteration(0, 0);
        let shed = [2, 5];
        let rejects = [1, 0];
        let s = streaming.summary(50.0, 1, 0, (shed, rejects));
        let exact =
            ServingSummary::from_records(&records, &history, 50.0, 1, 0, (shed, rejects), &classes);
        assert_eq!(s, exact);
        assert_eq!(s.shed, 7);
        assert_eq!(s.classes.len(), 2);
        assert!(s.classes[0].ttft_attainment > 0.0);
    }
}
