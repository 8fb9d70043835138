//! Fast sampling of gating outcomes (token→expert assignment counts).

use rand::Rng;

/// Samples per-expert token counts for `tokens` tokens each selecting
/// `top_k` distinct experts from `dist`.
///
/// Counts are drawn from the multinomial distribution over `tokens × top_k`
/// selections (via the conditional-binomial decomposition) and then repaired
/// so that no expert exceeds `tokens` — the top-k-without-replacement
/// constraint. The repair step hands the overflow out one selection at a
/// time, round-robin over the experts with spare capacity in
/// descending-probability order (ties by index). It triggers whenever one
/// expert draws more selections than there are tokens: under strongly
/// skewed distributions, or when a batch has only a few tokens. This
/// function derives the decomposition's conditional probabilities on every
/// call and sorts the repair order afresh on every overflow; a
/// [`TraceGenerator`](crate::TraceGenerator) derives both once per cached
/// distribution and reuses them for every draw until the distribution
/// changes.
///
/// Returns a vector of length `dist.len()` summing to `tokens * top_k`.
///
/// # Panics
///
/// Panics if `top_k as usize > dist.len()`, if `tokens * top_k` exceeds
/// `u32::MAX`, or if `dist` has a non-positive total.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let dist = vec![0.25; 4];
/// let counts = moe_workload::sample_gating_counts(&mut rng, &dist, 100, 2);
/// assert_eq!(counts.iter().sum::<u32>(), 200);
/// assert!(counts.iter().all(|&c| c <= 100));
/// ```
pub fn sample_gating_counts<R: Rng>(
    rng: &mut R,
    dist: &[f64],
    tokens: u32,
    top_k: u32,
) -> Vec<u32> {
    let mut cached = GatingDist::default();
    cached.set(|probs| probs.extend_from_slice(dist));
    let mut counts = vec![0u32; dist.len()];
    sample_gating_counts_into(rng, &mut cached, tokens, top_k, &mut counts);
    counts
}

/// A gating distribution together with what the sampler derives from it,
/// cached across draws until the distribution changes.
///
/// The conditional-binomial decomposition draws expert `e` with probability
/// `p_e / (p_e + … + p_last)`. Those conditional probabilities depend on the
/// distribution alone, so they are computed once per distribution rather
/// than on every draw, with the same running subtraction (and so the same
/// bits) a draw would compute. The cap repair's expert order is sorted on
/// the first overflow and kept until the distribution changes; its buffer
/// is reserved on [`GatingDist::set`], so sorting it never allocates.
#[derive(Clone, Debug, Default)]
pub(crate) struct GatingDist {
    probs: Vec<f64>,
    /// `cond[e]` = `p_e` over the mass of experts `e..`, clamped to
    /// `[0, 1]`. It stops at the second-to-last expert, which the last
    /// takes the remainder after, or at the expert whose subtraction
    /// exhausts the mass numerically, after which the last expert takes
    /// the remainder too.
    cond: Vec<f64>,
    /// The cap repair's order (experts by descending probability, ties by
    /// index): empty until the first overflow after [`GatingDist::set`].
    order: Vec<usize>,
}

impl GatingDist {
    /// The distribution `fill` writes into the probability buffer (which
    /// it must overwrite), with the derived state recomputed.
    ///
    /// # Panics
    ///
    /// Panics if the distribution does not have a positive total.
    pub(crate) fn set(&mut self, fill: impl FnOnce(&mut Vec<f64>)) {
        fill(&mut self.probs);
        let total: f64 = self.probs.iter().sum();
        assert!(total > 0.0, "distribution must have positive mass");
        self.cond.clear();
        let mut remaining = total;
        for &p in self.probs.iter().take(self.probs.len().saturating_sub(1)) {
            self.cond.push((p / remaining).clamp(0.0, 1.0));
            remaining -= p;
            if remaining <= 0.0 {
                break;
            }
        }
        self.order.clear();
        self.order.reserve(self.probs.len());
    }

    /// The distribution's probabilities.
    #[cfg(test)]
    pub(crate) fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The cap-repair order, empty if no draw has overflowed since
    /// [`GatingDist::set`].
    #[cfg(test)]
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }
}

/// [`sample_gating_counts`] from a cached distribution, written into
/// `counts` (one slot per expert). A caller that keeps `dist` across draws
/// samples without allocating.
///
/// # Panics
///
/// Panics if `top_k as usize > dist.len()`, if `counts.len() !=
/// dist.len()`, or if `tokens * top_k` exceeds `u32::MAX`.
pub(crate) fn sample_gating_counts_into<R: Rng>(
    rng: &mut R,
    dist: &mut GatingDist,
    tokens: u32,
    top_k: u32,
    counts: &mut [u32],
) {
    let experts = dist.probs.len();
    assert!(
        (top_k as usize) <= experts,
        "top_k={top_k} exceeds expert count {experts}"
    );
    assert_eq!(counts.len(), experts, "one count slot per expert");

    let mut remaining_trials = u32::try_from(u64::from(tokens) * u64::from(top_k))
        .unwrap_or_else(|_| panic!("tokens={tokens} × top_k={top_k} exceeds u32::MAX trials"));
    counts.fill(0);
    for (c, &q) in counts.iter_mut().zip(&dist.cond) {
        if remaining_trials == 0 {
            break;
        }
        let drawn = sample_binomial(rng, remaining_trials, q);
        *c = drawn;
        remaining_trials -= drawn;
    }
    // The last expert takes what is left, whether the draws reached it or
    // the mass ran out first.
    counts[experts - 1] += remaining_trials;

    // Repair the top-k-without-replacement cap: no expert can receive more
    // than one selection per token.
    let cap = tokens;
    let mut overflow: u64 = 0;
    for c in counts.iter_mut() {
        if *c > cap {
            overflow += (*c - cap) as u64;
            *c = cap;
        }
    }
    if overflow > 0 {
        // Round-robin the overflow into experts with spare capacity,
        // preferring higher-probability ones. Ties break by index, so the
        // comparator is a strict total order and the unstable sort yields
        // the one permutation a stable sort would.
        let (probs, order) = (&dist.probs, &mut dist.order);
        if order.is_empty() {
            order.extend(0..experts);
            order.sort_unstable_by(|&a, &b| {
                probs[b].partial_cmp(&probs[a]).unwrap().then(a.cmp(&b))
            });
        }
        'outer: loop {
            let mut progressed = false;
            for &e in order.iter() {
                if overflow == 0 {
                    break 'outer;
                }
                if counts[e] < cap {
                    counts[e] += 1;
                    overflow -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                panic!("cannot satisfy top-k cap: tokens*top_k exceeds tokens*experts");
            }
        }
    }
}

/// `2^53`: `gen::<f64>()` is `(next_u64() >> 11) · 2^-53`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// Samples from Binomial(n, p) — exact Bernoulli summation for small `n`,
/// normal approximation for large `n` (clamped to `[0, n]`).
fn sample_binomial<R: Rng>(rng: &mut R, n: u32, p: f64) -> u32 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        // `gen::<f64>() < p` without the float: the uniform is `k · 2^-53`
        // for the integer `k = next_u64() >> 11`, and `p · 2^53` is exact,
        // so `k · 2^-53 < p` holds exactly when `k < ⌈p · 2^53⌉`.
        let threshold = ceil_below_2_pow_53(p * TWO_POW_53);
        return (0..n)
            .map(|_| u32::from(rng.next_u64() >> 11 < threshold))
            .sum();
    }
    // Box-Muller.
    let mean = f64::from(n) * p;
    let sd = (mean * (1.0 - p)).sqrt();
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    round_clamped(mean + sd * z, n)
}

/// `⌈x⌉` for `0 < x < 2^53`, where truncating to `i64` is exact
/// (`f64::ceil` is a libm call on baseline x86-64).
fn ceil_below_2_pow_53(x: f64) -> u64 {
    let whole = x as i64;
    (whole + i64::from((whole as f64) < x)) as u64
}

/// `x.round().clamp(0.0, n) as u32`, computed as clamp-then-round without
/// the libm call. Rounding and clamping to integer bounds commute, so
/// clamping first gives the same result; on the clamped `x` (a NaN stays
/// NaN and maps to 0 either way) the truncation is exact, and so is the
/// fraction `x − ⌊x⌋`, which rounds half away from zero.
fn round_clamped(x: f64, n: u32) -> u32 {
    let x = x.clamp(0.0, f64::from(n));
    let whole = x as u32;
    whole + u32::from(x - f64::from(whole) >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    /// The sampler before its per-distribution cache, kept as the reference
    /// the cached one must reproduce draw for draw: it derives every
    /// conditional probability on each draw, rounds with libm and a
    /// saturating cast, and tests Bernoulli trials in floating point.
    fn reference_sample_gating_counts_into<R: Rng>(
        rng: &mut R,
        dist: &[f64],
        tokens: u32,
        top_k: u32,
        counts: &mut [u32],
        order: &mut Vec<usize>,
    ) {
        assert!((top_k as usize) <= dist.len());
        assert_eq!(counts.len(), dist.len());
        let total_p: f64 = dist.iter().sum();
        assert!(total_p > 0.0);

        counts.fill(0);
        let mut remaining_trials = tokens as u64 * top_k as u64;
        let mut remaining_mass = total_p;
        for (e, &p) in dist.iter().enumerate() {
            if remaining_trials == 0 {
                break;
            }
            if e + 1 == dist.len() {
                counts[e] = remaining_trials as u32;
                break;
            }
            let q = (p / remaining_mass).clamp(0.0, 1.0);
            let c = reference_sample_binomial(rng, remaining_trials, q);
            counts[e] = c as u32;
            remaining_trials -= c;
            remaining_mass -= p;
            if remaining_mass <= 0.0 {
                counts[dist.len() - 1] += remaining_trials as u32;
                break;
            }
        }

        let cap = tokens;
        let mut overflow: u64 = 0;
        for c in counts.iter_mut() {
            if *c > cap {
                overflow += (*c - cap) as u64;
                *c = cap;
            }
        }
        if overflow > 0 {
            if order.is_empty() {
                order.extend(0..dist.len());
                order.sort_unstable_by(|&a, &b| {
                    dist[b].partial_cmp(&dist[a]).unwrap().then(a.cmp(&b))
                });
            }
            'outer: loop {
                let mut progressed = false;
                for &e in order.iter() {
                    if overflow == 0 {
                        break 'outer;
                    }
                    if counts[e] < cap {
                        counts[e] += 1;
                        overflow -= 1;
                        progressed = true;
                    }
                }
                assert!(progressed);
            }
        }
    }

    fn reference_sample_binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
        if p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        if n <= 64 {
            let mut c = 0;
            for _ in 0..n {
                if rng.gen::<f64>() < p {
                    c += 1;
                }
            }
            return c;
        }
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = (mean + sd * z).round();
        sample.clamp(0.0, n as f64) as u64
    }

    /// The conditional probabilities the reference sampler derives on a
    /// draw that reaches the last expert, in order.
    fn reference_conditionals(dist: &[f64]) -> Vec<f64> {
        let mut remaining_mass: f64 = dist.iter().sum();
        let mut conditionals = Vec::new();
        for &p in &dist[..dist.len() - 1] {
            conditionals.push((p / remaining_mass).clamp(0.0, 1.0));
            remaining_mass -= p;
            if remaining_mass <= 0.0 {
                break;
            }
        }
        conditionals
    }

    /// One distribution of `experts` experts of the given kind; `x` and
    /// `at` pick its shape within the kind.
    fn test_dist(kind: u8, experts: usize, x: f64, at: usize) -> Vec<f64> {
        let at = at % experts;
        match kind {
            // Uniform.
            0 => vec![1.0 / experts as f64; experts],
            // Zipf with exponent 0.5–3: a steep head on many experts.
            1 => (0..experts)
                .map(|i| ((i + 1) as f64).powf(-0.5 - 2.5 * x))
                .collect(),
            // One-hot: every draw lands on one expert, whose conditional
            // probability is 1 and whose subtraction exhausts the mass.
            2 => (0..experts).map(|i| f64::from(u8::from(i == at))).collect(),
            // Dyadic weights 1/2, 1/4, …, 1/2^h, 1/2^h on a prefix, then
            // zeros: the mass runs out exactly at expert `h`.
            3 => {
                let head = at.min(40);
                (0..experts)
                    .map(|i| match i {
                        _ if i < head => 0.5f64.powi(i as i32 + 1),
                        _ if i == head => 0.5f64.powi(head as i32),
                        _ => 0.0,
                    })
                    .collect()
            }
            // A head so heavy that the tail vanishes in the total, so the
            // head's conditional probability rounds to at least 1.
            _ => (0..experts)
                .map(|i| if i == at { 1.0 } else { 1e-18 * (1.0 + x) })
                .collect(),
        }
    }

    proptest! {
        /// The cached conditional probabilities are the reference's bit for
        /// bit, and the cached sampler draws exactly what the reference
        /// draws and leaves the RNG at the same position, over uniform, Zipf,
        /// one-hot, exhausting and `q ≥ 1` distributions, 1–4096 tokens and
        /// top-k from 1 to the expert count. Four draws per case share one
        /// cached distribution, so the kept repair order is exercised too.
        #[test]
        fn cached_sampler_matches_reference(
            shape in (0u8..5, 1usize..257, 0.0f64..1.0, 0usize..256),
            top_k_frac in 0.0f64..1.0,
            tokens in (1u32..4097, 1u32..4097, 1u32..65, 1u32..4),
            seed in 0u64..u64::MAX,
        ) {
            let (kind, experts, x, at) = shape;
            let probs = test_dist(kind, experts, x, at);
            let top_k = 1 + ((top_k_frac * experts as f64) as u32).min(experts as u32 - 1);
            let mut cached = GatingDist::default();
            cached.set(|p| p.extend_from_slice(&probs));
            let bits = |q: &[f64]| q.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&cached.cond), bits(&reference_conditionals(&probs)));
            let (mut rng, mut reference_rng) = (
                rand::rngs::StdRng::seed_from_u64(seed),
                rand::rngs::StdRng::seed_from_u64(seed),
            );
            let mut order = Vec::new();
            let (mut got, mut want) = (vec![0; experts], vec![0; experts]);
            for tokens in [tokens.0, tokens.1, tokens.2, tokens.3] {
                sample_gating_counts_into(&mut rng, &mut cached, tokens, top_k, &mut got);
                reference_sample_gating_counts_into(
                    &mut reference_rng,
                    &probs,
                    tokens,
                    top_k,
                    &mut want,
                    &mut order,
                );
                prop_assert_eq!(&got, &want, "kind {} tokens {} top-k {}", kind, tokens, top_k);
                prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }
    }

    #[test]
    fn clamp_then_round_matches_round_then_clamp() {
        let n = 100;
        for x in [
            -1e300,
            -0.5,
            -0.0,
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            99.49999999999999,
            99.5,
            100.0,
            100.5,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(
                round_clamped(x, n),
                x.round().clamp(0.0, n.into()) as u32,
                "{x}"
            );
        }
    }

    #[test]
    fn bernoulli_threshold_matches_float_test() {
        let unit = 1.0 / TWO_POW_53;
        for p in [
            unit,
            0.5 * unit,
            1.5 * unit,
            0.1,
            0.5,
            1.0 - unit,
            0.999_999_9,
        ] {
            let threshold = ceil_below_2_pow_53(p * TWO_POW_53);
            assert_eq!(threshold, (p * TWO_POW_53).ceil() as u64, "p {p}");
            for k in [
                0,
                1,
                2,
                threshold.saturating_sub(1),
                threshold,
                threshold + 1,
                (1 << 53) - 1,
            ] {
                assert_eq!(k < threshold, (k as f64) * unit < p, "p {p} k {k}");
            }
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn counts_sum_to_selections() {
        let mut r = rng();
        let dist = vec![0.5, 0.3, 0.15, 0.05];
        for _ in 0..20 {
            let c = sample_gating_counts(&mut r, &dist, 64, 2);
            assert_eq!(c.iter().sum::<u32>(), 128);
            assert!(c.iter().all(|&x| x <= 64));
        }
    }

    #[test]
    fn skewed_distribution_hits_cap_and_repairs() {
        let mut r = rng();
        // 99.9% mass on expert 0: raw multinomial would exceed the cap.
        let dist = vec![0.999, 0.0005, 0.0005];
        let c = sample_gating_counts(&mut r, &dist, 10, 2);
        assert_eq!(c.iter().sum::<u32>(), 20);
        assert_eq!(c[0], 10);
    }

    #[test]
    fn expected_values_track_distribution() {
        let mut r = rng();
        // Keep expected counts below the per-expert cap (tokens) so the
        // repair step does not distort the comparison.
        let dist = vec![0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05];
        let mut sums = vec![0u64; dist.len()];
        let trials = 200;
        for _ in 0..trials {
            let c = sample_gating_counts(&mut r, &dist, 256, 2);
            for (s, &x) in sums.iter_mut().zip(&c) {
                *s += x as u64;
            }
        }
        let total: u64 = sums.iter().sum();
        for (i, &s) in sums.iter().enumerate() {
            let frac = s as f64 / total as f64;
            assert!(
                (frac - dist[i]).abs() < 0.03,
                "expert {i}: {frac} vs {}",
                dist[i]
            );
        }
    }

    #[test]
    fn top_k_equal_to_experts_forces_uniform() {
        let mut r = rng();
        // Every token must select all 4 experts.
        let c = sample_gating_counts(&mut r, &[0.7, 0.1, 0.1, 0.1], 32, 4);
        assert_eq!(c, vec![32; 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX trials")]
    fn trials_past_u32_are_rejected() {
        sample_gating_counts(&mut rng(), &[0.5, 0.5], u32::MAX, 2);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(sample_binomial(&mut r, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut r, 100, 1.0), 100);
        let s = sample_binomial(&mut r, 1_000_000, 0.5);
        assert!((s as f64 - 500_000.0).abs() < 5_000.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let dist = vec![0.25; 4];
        let a = sample_gating_counts(&mut rng(), &dist, 128, 2);
        let b = sample_gating_counts(&mut rng(), &dist, 128, 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn top_k_larger_than_experts_panics() {
        let mut r = rng();
        sample_gating_counts(&mut r, &[1.0], 4, 2);
    }
}
