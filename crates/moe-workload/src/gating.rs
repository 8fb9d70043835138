//! Fast sampling of gating outcomes (token→expert assignment counts).
//!
//! One routine, `sample_layer_into`, draws a layer's counts for every DP
//! group at once, each group from its own random stream. A group's counts
//! are a chain of conditional binomials, each drawn from the trials the
//! previous ones left, so one group's draws are serial; the groups' chains
//! are independent, so the routine advances all of them expert by expert
//! and the core overlaps their latencies. Large binomials are drawn by a
//! normal approximation whose normals come from a 128-layer ziggurat.

use std::sync::OnceLock;

use rand::{Rng, RngCore};

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
/// changes. It runs the generator's sampling routine with one group.
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
    let mut counts = [vec![0u32; dist.len()]];
    sample_layer_into(
        &mut [GroupStream::new(rng)],
        &mut cached,
        tokens,
        top_k,
        &mut counts,
    );
    let [counts] = counts;
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

/// One DP group's random stream and its place in the draw of a layer.
#[derive(Clone, Debug)]
pub(crate) struct GroupStream<R> {
    rng: R,
    /// Trials the group has left to hand out in the current draw.
    trials: u32,
    /// The first expert of the current draw not yet drawn.
    next: usize,
}

impl<R> GroupStream<R> {
    pub(crate) fn new(rng: R) -> Self {
        GroupStream {
            rng,
            trials: 0,
            next: 0,
        }
    }

    /// The group's random stream.
    #[cfg(test)]
    pub(crate) fn rng(&mut self) -> &mut R {
        &mut self.rng
    }
}

/// Trials up to which a binomial is drawn exactly, as a sum of Bernoulli
/// trials; above it, by the normal approximation.
const EXACT_TRIALS: u32 = 64;

/// Draws one layer's counts for every DP group: `counts[g]` (one slot per
/// expert) gets group `g`'s [`sample_gating_counts`] draw from `dist`, made
/// with `streams[g]`'s random stream alone. A caller that keeps `dist` and
/// `streams` across draws samples without allocating.
///
/// The draw runs in two phases. Phase 1 walks the experts once and, at
/// each, advances every group that still has more than [`EXACT_TRIALS`]
/// trials by one normal-approximation binomial; the chains share no data,
/// so their latencies overlap. Phase 2 finishes each group's short tail of
/// exact binomials group by group (with `tokens × top_k` at most
/// [`EXACT_TRIALS`], phase 1 is empty). Each group then repairs its cap.
/// Which stream a draw takes its randomness from depends only on its group,
/// so every group's counts have the law of a draw on its own.
///
/// # Panics
///
/// Panics if `top_k as usize > dist.len()`, if `counts` does not hold one
/// slot per expert for each of `streams`, or if `tokens * top_k` exceeds
/// `u32::MAX`.
pub(crate) fn sample_layer_into<R: RngCore>(
    streams: &mut [GroupStream<R>],
    dist: &mut GatingDist,
    tokens: u32,
    top_k: u32,
    counts: &mut [Vec<u32>],
) {
    let experts = dist.probs.len();
    assert!(
        (top_k as usize) <= experts,
        "top_k={top_k} exceeds expert count {experts}"
    );
    assert_eq!(counts.len(), streams.len(), "one count vector per group");
    let trials = u32::try_from(u64::from(tokens) * u64::from(top_k))
        .unwrap_or_else(|_| panic!("tokens={tokens} × top_k={top_k} exceeds u32::MAX trials"));
    // Phase 1: every group's normal-approximation chain, interleaved. A
    // group stays in it until a draw leaves it at most `EXACT_TRIALS`
    // trials, and resumes at the next expert in phase 2.
    let mut active = if trials > EXACT_TRIALS {
        streams.len()
    } else {
        0
    };
    for (stream, counts) in streams.iter_mut().zip(counts.iter_mut()) {
        assert_eq!(counts.len(), experts, "one count slot per expert");
        counts.fill(0);
        stream.trials = trials;
        stream.next = if active > 0 { dist.cond.len() } else { 0 };
    }
    if active > 0 {
        let zig = ziggurat();
        for (e, &q) in dist.cond.iter().enumerate() {
            for (stream, counts) in streams.iter_mut().zip(counts.iter_mut()) {
                if stream.trials > EXACT_TRIALS {
                    let drawn = normal_binomial(&mut stream.rng, zig, stream.trials, q);
                    counts[e] = drawn;
                    stream.trials -= drawn;
                    if stream.trials <= EXACT_TRIALS {
                        stream.next = e + 1;
                        active -= 1;
                    }
                }
            }
            if active == 0 {
                break;
            }
        }
    }

    for (stream, counts) in streams.iter_mut().zip(counts.iter_mut()) {
        // Phase 2: the group's exact tail.
        let (rng, mut trials) = (&mut stream.rng, stream.trials);
        for (c, &q) in counts.iter_mut().zip(&dist.cond).skip(stream.next) {
            if trials == 0 {
                break;
            }
            let drawn = exact_binomial(rng, trials, q);
            *c = drawn;
            trials -= drawn;
        }
        // The last expert takes what is left, whether the draws reached it
        // or the mass ran out first.
        counts[experts - 1] += trials;
        repair_cap(dist, tokens, counts);
    }
}

/// Repairs the top-k-without-replacement cap on one group's `counts`: no
/// expert can receive more than one selection per token.
fn repair_cap(dist: &mut GatingDist, tokens: u32, counts: &mut [u32]) {
    let cap = tokens;
    let mut overflow: u64 = 0;
    for c in counts.iter_mut() {
        if *c > cap {
            overflow += (*c - cap) as u64;
            *c = cap;
        }
    }
    if overflow == 0 {
        return;
    }
    // Round-robin the overflow into experts with spare capacity, preferring
    // higher-probability ones. Ties break by index, so the comparator is a
    // strict total order and the unstable sort yields the one permutation a
    // stable sort would.
    let (probs, order) = (&dist.probs, &mut dist.order);
    if order.is_empty() {
        order.extend(0..probs.len());
        order.sort_unstable_by(|&a, &b| probs[b].partial_cmp(&probs[a]).unwrap().then(a.cmp(&b)));
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

/// `2^53`: `gen::<f64>()` is `(next_u64() >> 11) · 2^-53`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// Samples from Binomial(n, p) for `n` above [`EXACT_TRIALS`] by the
/// normal approximation (clamped to `[0, n]`). Inlined, so that the
/// sampler's interleaved chains stay short enough for the core to keep
/// several in flight.
#[inline(always)]
fn normal_binomial<R: RngCore>(rng: &mut R, zig: &Ziggurat, n: u32, p: f64) -> u32 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = f64::from(n) * p;
    let sd = (mean * (1.0 - p)).sqrt();
    round_clamped(mean + sd * zig.normal(rng), n)
}

/// Samples from Binomial(n, p) for `n` up to [`EXACT_TRIALS`] exactly, as a
/// sum of Bernoulli trials.
fn exact_binomial<R: RngCore>(rng: &mut R, n: u32, p: f64) -> u32 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // `gen::<f64>() < p` without the float: the uniform is `k · 2^-53` for
    // the integer `k = next_u64() >> 11`, and `p · 2^53` is exact, so
    // `k · 2^-53 < p` holds exactly when `k < ⌈p · 2^53⌉`.
    let threshold = ceil_below_2_pow_53(p * TWO_POW_53);
    (0..n)
        .map(|_| u32::from(rng.next_u64() >> 11 < threshold))
        .sum()
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

/// Layers of the ziggurat.
const ZIG_LAYERS: usize = 128;
/// Where the 128-layer ziggurat's base strip meets the tail.
const ZIG_R: f64 = 3.442_619_855_899;
/// The area of each of the 128 layers under the unnormalised density
/// `exp(-x²/2)`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// The tables of Marsaglia and Tsang's ziggurat for the standard normal
/// (J. Stat. Softw. 5(8), 2000) with 128 layers, in the layout of
/// Doornik's ZIGNOR (2005): layer `i` spans `x[i+1] ≤ |x| < x[i]` over the
/// density, `x[0]` is the base strip's equivalent width `V / f(R)` and
/// `x[128]` is 0.
#[derive(Debug)]
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i+1] / x[i]`: the share of layer `i`'s rectangle that lies
    /// wholly under the density.
    ratio: [f64; ZIG_LAYERS],
}

/// The ziggurat tables, computed on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = (-0.5 * ZIG_R * ZIG_R).exp();
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let ratio = std::array::from_fn(|i| x[i + 1] / x[i]);
        Ziggurat { x, ratio }
    })
}

impl Ziggurat {
    /// One standard normal draw. A single `next_u64` gives the layer (its
    /// low 7 bits) and a signed uniform (its top 53 bits); about 97% of
    /// draws end in that layer's rectangle after one comparison and one
    /// multiplication, inlined into the sampler's chain. The rest fall in a
    /// wedge, tested against the density, or in the base strip's tail
    /// beyond [`ZIG_R`], drawn by Marsaglia's exponential method, out of
    /// line; a rejected draw starts over.
    #[inline(always)]
    fn normal<R: RngCore>(&self, rng: &mut R) -> f64 {
        let (i, u) = Self::layer_and_uniform(rng.next_u64());
        if u.abs() < self.ratio[i] {
            return u * self.x[i];
        }
        self.outside_rectangle(rng, i, u)
    }

    /// The layer index and the signed uniform in `[-1, 1)` one `next_u64`
    /// gives.
    #[inline(always)]
    fn layer_and_uniform(bits: u64) -> (usize, f64) {
        (
            (bits & 0x7f) as usize,
            2.0 * ((bits >> 11) as f64 / TWO_POW_53) - 1.0,
        )
    }

    /// [`Ziggurat::normal`] for a draw of layer `i` and uniform `u` that
    /// fell outside the layer's rectangle.
    #[cold]
    #[inline(never)]
    fn outside_rectangle<R: RngCore>(&self, rng: &mut R, mut i: usize, mut u: f64) -> f64 {
        loop {
            if u.abs() < self.ratio[i] {
                return u * self.x[i];
            }
            if i == 0 {
                return Self::tail(rng, u < 0.0);
            }
            let x = u * self.x[i];
            let f0 = (-0.5 * (self.x[i] * self.x[i] - x * x)).exp();
            let f1 = (-0.5 * (self.x[i + 1] * self.x[i + 1] - x * x)).exp();
            if f1 + rng.gen::<f64>() * (f0 - f1) < 1.0 {
                return x;
            }
            (i, u) = Self::layer_and_uniform(rng.next_u64());
        }
    }

    /// A normal draw conditioned on `|z| > ZIG_R`, with the given sign.
    fn tail<R: RngCore>(rng: &mut R, negative: bool) -> f64 {
        loop {
            // Both logarithms are of a uniform in (0, 1], so finite.
            let x = (1.0 - rng.gen::<f64>()).ln() / ZIG_R;
            let y = (1.0 - rng.gen::<f64>()).ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    /// The sampler before its per-distribution cache and its per-group
    /// streams, kept as the reference: it derives every conditional
    /// probability on each draw, rounds with libm and a saturating cast,
    /// tests Bernoulli trials in floating point and draws its normals by
    /// Box-Muller. The sampler must reproduce it draw for draw where both
    /// draw exactly (`tokens × top_k` at most [`EXACT_TRIALS`]) and match
    /// its law everywhere.
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

    /// A group's stream for seed `seed`.
    fn stream(seed: u64) -> GroupStream<rand::rngs::StdRng> {
        GroupStream::new(rand::rngs::StdRng::seed_from_u64(seed))
    }

    proptest! {
        /// The cached conditional probabilities are the reference's bit for
        /// bit. Where every binomial is exact (`tokens × top_k` at most
        /// [`EXACT_TRIALS`]), each of 1–4 groups draws exactly what the
        /// reference draws from that group's stream alone and leaves the
        /// stream at the same position, over uniform, Zipf, one-hot,
        /// exhausting and `q ≥ 1` distributions and top-k from 1 to the
        /// expert count. Four draws per case share one cached distribution,
        /// so the kept repair order is exercised too.
        #[test]
        fn cached_sampler_matches_reference(
            shape in (0u8..5, 1usize..257, 0.0f64..1.0, 0usize..256),
            top_k_frac in 0.0f64..1.0,
            tokens_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            groups in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let (kind, experts, x, at) = shape;
            let probs = test_dist(kind, experts, x, at);
            let max_top_k = experts.min(EXACT_TRIALS as usize) as u32;
            let top_k = 1 + ((top_k_frac * f64::from(max_top_k)) as u32).min(max_top_k - 1);
            let max_tokens = EXACT_TRIALS / top_k;
            let mut cached = GatingDist::default();
            cached.set(|p| p.extend_from_slice(&probs));
            let bits = |q: &[f64]| q.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&cached.cond), bits(&reference_conditionals(&probs)));
            let seeds: Vec<u64> = (0..groups as u64).map(|g| seed ^ g).collect();
            let mut streams: Vec<_> = seeds.iter().map(|&s| stream(s)).collect();
            let mut reference_rngs: Vec<_> = seeds
                .iter()
                .map(|&s| rand::rngs::StdRng::seed_from_u64(s))
                .collect();
            let mut order = Vec::new();
            let (mut got, mut want) = (vec![vec![0; experts]; groups], vec![0; experts]);
            let (t0, t1, t2, t3) = tokens_frac;
            for frac in [t0, t1, t2, t3] {
                let tokens = 1 + ((frac * f64::from(max_tokens)) as u32).min(max_tokens - 1);
                sample_layer_into(&mut streams, &mut cached, tokens, top_k, &mut got);
                for (g, reference_rng) in reference_rngs.iter_mut().enumerate() {
                    reference_sample_gating_counts_into(
                        reference_rng,
                        &probs,
                        tokens,
                        top_k,
                        &mut want,
                        &mut order,
                    );
                    prop_assert_eq!(
                        &got[g], &want,
                        "kind {} tokens {} top-k {} group {}", kind, tokens, top_k, g
                    );
                }
            }
            for (stream, reference_rng) in streams.iter_mut().zip(&mut reference_rngs) {
                prop_assert_eq!(stream.rng().next_u64(), reference_rng.next_u64());
            }
        }
    }

    /// Per-expert sample mean, variance and fourth central moment of
    /// `samples` (one count vector per draw).
    fn moments(samples: &[Vec<u32>]) -> Vec<(f64, f64, f64)> {
        let n = samples.len() as f64;
        (0..samples[0].len())
            .map(|e| {
                let mean = samples.iter().map(|c| f64::from(c[e])).sum::<f64>() / n;
                let central = |k: i32| {
                    samples
                        .iter()
                        .map(|c| (f64::from(c[e]) - mean).powi(k))
                        .sum::<f64>()
                        / n
                };
                (mean, central(2), central(4))
            })
            .collect()
    }

    /// Two-sample χ² of two equally sized samples of one count, over bins
    /// of consecutive values holding at least 20 pooled draws each, with
    /// its degrees of freedom.
    fn two_sample_chi2(a: &[u32], b: &[u32]) -> (f64, usize) {
        assert_eq!(a.len(), b.len());
        let mut pooled: Vec<u32> = a.iter().chain(b).copied().collect();
        pooled.sort_unstable();
        // Upper bounds (inclusive) of the bins.
        let mut bounds: Vec<u32> = Vec::new();
        let mut held = 0;
        for (i, &v) in pooled.iter().enumerate() {
            held += 1;
            if held >= 20 && pooled.get(i + 1).is_some_and(|&w| w != v) {
                bounds.push(v);
                held = 0;
            }
        }
        match bounds.last_mut() {
            // Fold a short last bin into the one before it.
            Some(last) if held < 20 => *last = u32::MAX,
            _ => bounds.push(u32::MAX),
        }
        let bin = |v: u32| bounds.partition_point(|&upper| upper < v);
        let (mut ca, mut cb) = (vec![0.0; bounds.len()], vec![0.0; bounds.len()]);
        a.iter().for_each(|&v| ca[bin(v)] += 1.0);
        b.iter().for_each(|&v| cb[bin(v)] += 1.0);
        let chi2 = ca
            .iter()
            .zip(&cb)
            .map(|(x, y)| (x - y) * (x - y) / (x + y))
            .sum();
        (chi2, bounds.len() - 1)
    }

    /// The χ² quantile with `df` degrees of freedom about 4 standard
    /// deviations out (upper tail ≈ 3·10⁻⁵), by Wilson–Hilferty.
    fn chi2_critical(df: usize) -> f64 {
        let df = df as f64;
        let h = 2.0 / (9.0 * df);
        df * (1.0 - h + 4.0 * h.sqrt()).powi(3)
    }

    /// On uniform, Zipf, one-hot and exhausting distributions over 32
    /// experts, with 1, 16, 473 and 4096 tokens and top-k 1, 2 and 8, the
    /// sampler (four groups a layer, so the interleaved chains are what is
    /// tested) and the reference draw counts of the same law: every
    /// expert's mean and variance agree within 5 standard errors, and a
    /// two-sample χ² on the head expert's counts stays below its 4σ
    /// quantile.
    #[test]
    fn sampler_matches_reference_in_law() {
        const DRAWS: usize = 2000;
        const GROUPS: usize = 4;
        let experts = 32;
        for (kind, name) in [
            (0, "uniform"),
            (1, "zipf"),
            (2, "one-hot"),
            (3, "exhausting"),
        ] {
            let probs = test_dist(kind, experts, 0.4, 5);
            let head = (0..experts)
                .max_by(|&a, &b| probs[a].partial_cmp(&probs[b]).unwrap().then(b.cmp(&a)))
                .unwrap();
            let mut cached = GatingDist::default();
            cached.set(|p| p.extend_from_slice(&probs));
            for tokens in [1u32, 16, 473, 4096] {
                for top_k in [1u32, 2, 8] {
                    let case = format!("{name} tokens {tokens} top-k {top_k}");
                    let salt = u64::from(kind) << 40 | u64::from(tokens) << 8 | u64::from(top_k);
                    let mut streams: Vec<_> =
                        (0..GROUPS as u64).map(|g| stream(salt ^ g)).collect();
                    let mut layer = vec![vec![0; experts]; GROUPS];
                    let mut new = Vec::with_capacity(DRAWS);
                    while new.len() < DRAWS {
                        sample_layer_into(&mut streams, &mut cached, tokens, top_k, &mut layer);
                        new.extend(layer.iter().cloned());
                    }
                    let mut rng = rand::rngs::StdRng::seed_from_u64(!salt);
                    let (mut order, mut counts) = (Vec::new(), vec![0; experts]);
                    let old: Vec<Vec<u32>> = (0..DRAWS)
                        .map(|_| {
                            reference_sample_gating_counts_into(
                                &mut rng,
                                &probs,
                                tokens,
                                top_k,
                                &mut counts,
                                &mut order,
                            );
                            counts.clone()
                        })
                        .collect();
                    let n = DRAWS as f64;
                    for (e, (a, b)) in moments(&new).into_iter().zip(moments(&old)).enumerate() {
                        let mean_se = (a.1 / n + b.1 / n).sqrt();
                        assert!(
                            (a.0 - b.0).abs() <= 5.0 * mean_se + 1e-9,
                            "{case} expert {e}: mean {} vs {} (se {mean_se})",
                            a.0,
                            b.0
                        );
                        let var_se = ((a.2 - a.1 * a.1) / n + (b.2 - b.1 * b.1) / n)
                            .max(0.0)
                            .sqrt();
                        assert!(
                            (a.1 - b.1).abs() <= 5.0 * var_se + 1e-9,
                            "{case} expert {e}: variance {} vs {} (se {var_se})",
                            a.1,
                            b.1
                        );
                    }
                    let head_counts =
                        |s: &[Vec<u32>]| s.iter().map(|c| c[head]).collect::<Vec<_>>();
                    let (chi2, df) = two_sample_chi2(&head_counts(&new), &head_counts(&old));
                    if df > 0 {
                        assert!(
                            chi2 < chi2_critical(df),
                            "{case}: head expert χ² {chi2} on {df} df"
                        );
                    }
                }
            }
        }
    }

    /// `Φ(b) − Φ(a)` for the standard normal, by Simpson's rule.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let steps = 2000;
        let h = (b - a) / steps as f64;
        let pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 = (1..steps)
            .map(|i| pdf(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (pdf(a) + inner + pdf(b)) * h / 3.0
    }

    /// The ziggurat draws standard normals: mean 0, variance 1 and fourth
    /// moment 3 within 5 standard errors, a χ² against Φ over 40 bins
    /// below its 4σ quantile, and the mass beyond `±ZIG_R` (where the base
    /// strip hands over to the tail) within 5 standard errors of
    /// `2Φ(−R)`.
    #[test]
    fn ziggurat_draws_standard_normals() {
        const DRAWS: usize = 1 << 21;
        let zig = ziggurat();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2000);
        let n = DRAWS as f64;
        let (mut sum, mut sum2, mut sum4, mut tail) = (0.0, 0.0, 0.0, 0.0);
        // 40 bins of width 0.2 on [-4, 4), the outer two reaching to ±∞.
        let mut bins = [0.0; 40];
        for _ in 0..DRAWS {
            let z = zig.normal(&mut rng);
            sum += z;
            sum2 += z * z;
            sum4 += z * z * z * z;
            tail += f64::from(u8::from(z.abs() > ZIG_R));
            bins[(((z + 4.0) / 0.2).floor().clamp(0.0, 39.0)) as usize] += 1.0;
        }
        let (mean, var, m4) = (sum / n, sum2 / n, sum4 / n);
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");
        assert!(
            (m4 - 3.0).abs() < 5.0 * (96.0 / n).sqrt(),
            "fourth moment {m4}"
        );
        let chi2: f64 = bins
            .iter()
            .enumerate()
            .map(|(i, &observed)| {
                let lo = if i == 0 { -12.0 } else { -4.0 + 0.2 * i as f64 };
                let hi = if i == 39 {
                    12.0
                } else {
                    -4.0 + 0.2 * (i + 1) as f64
                };
                let expected = n * normal_mass(lo, hi);
                (observed - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < chi2_critical(39), "χ² {chi2} on 39 df");
        let tail_p = 2.0 * normal_mass(-12.0, -ZIG_R);
        let tail_se = (n * tail_p * (1.0 - tail_p)).sqrt();
        assert!(
            (tail - n * tail_p).abs() < 5.0 * tail_se,
            "{tail} draws beyond ±R, expected {}",
            n * tail_p
        );
    }

    /// The tables close the ziggurat: the top layer ends at 0 and every
    /// layer holds the same area `V` under `exp(-x²/2)`.
    #[test]
    fn ziggurat_layers_have_equal_area() {
        let zig = ziggurat();
        let f = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        assert_eq!(zig.x[1], ZIG_R);
        for i in 1..ZIG_LAYERS {
            let area = zig.x[i] * (f(zig.x[i + 1]) - f(zig.x[i]));
            assert!((area - ZIG_V).abs() < 1e-9, "layer {i}: area {area}");
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
        let zig = ziggurat();
        assert_eq!(normal_binomial(&mut r, zig, 100, 0.0), 0);
        assert_eq!(normal_binomial(&mut r, zig, 100, 1.0), 100);
        assert_eq!(exact_binomial(&mut r, 10, 0.0), 0);
        assert_eq!(exact_binomial(&mut r, 10, 1.0), 10);
        let s = normal_binomial(&mut r, zig, 1_000_000, 0.5);
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
