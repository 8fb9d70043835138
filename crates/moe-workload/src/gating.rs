//! Fast sampling of gating outcomes (token→expert assignment counts).
//!
//! One routine, `sample_layer_into`, draws a layer's counts for every DP
//! group at once, each group from its own random stream. A group's counts
//! are a chain of conditional binomials, each drawn from the trials the
//! previous ones left, so one group's draws are serial; the groups' chains
//! are independent, so the routine advances all of them expert by expert
//! and the core overlaps their latencies. Large binomials are drawn by a
//! normal approximation whose normals come from a 128-layer ziggurat. Once
//! a group has at most 64 trials left, the rest of its chain is a
//! multinomial over the experts not yet drawn, and the group draws it as
//! that many categorical draws over the distribution's cached cumulative
//! weights.

use std::sync::{Mutex, OnceLock, PoisonError};

use rand::{Rng, RngCore};

/// Samples per-expert token counts for `tokens` tokens each selecting
/// `top_k` distinct experts from `dist`.
///
/// Counts are drawn from the multinomial distribution over `tokens × top_k`
/// selections (via the conditional-binomial decomposition, whose last at
/// most 64 trials are drawn one categorical draw each) and then repaired
/// so that no expert exceeds `tokens` — the top-k-without-replacement
/// constraint. The repair step hands the overflow out one selection at a
/// time, round-robin over the experts with spare capacity in
/// descending-probability order (ties by index). It triggers whenever one
/// expert draws more selections than there are tokens: under strongly
/// skewed distributions, or when a batch has only a few tokens. This
/// function derives the decomposition's conditional probabilities and
/// cumulative weights on every call and sorts the repair order afresh
/// whenever a repair reads it; a [`TraceGenerator`](crate::TraceGenerator)
/// derives them once per cached distribution and reuses them for every
/// draw until the distribution changes. It runs the generator's sampling
/// routine with one group.
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
        &cached,
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
/// than on every draw, by a running subtraction of the mass. The exact tail
/// draws a point on the cumulative weights, also derived here, and finds
/// its expert by a binary search. The cap repair's expert order is sorted
/// when a repair first needs it and kept until the distribution changes.
/// It is a lazily set cell, so threads drawing different groups from one
/// distribution share it, and whichever needs it first sorts it.
/// [`GatingDist::set`] keeps the last order as the buffer the next sort
/// fills, so the sort never allocates, and a distribution that moved
/// little since that order re-sorts it by insertion in a few shifts rather
/// than sorting every expert afresh.
#[derive(Debug, Default)]
pub(crate) struct GatingDist {
    probs: Vec<f64>,
    /// `cond[e]` = `p_e` over the mass of experts `e..`, clamped to
    /// `[0, 1]`. It stops at the second-to-last expert, which the last
    /// takes the remainder after, or at the expert whose subtraction
    /// exhausts the mass numerically, after which the last expert takes
    /// the remainder too.
    cond: Vec<f64>,
    /// `cum[e]` = `(p_0 + … + p_(e-1)) / total` in fixed point with
    /// [`CUM_ONE`] for 1: one entry per expert and a last of exactly
    /// `CUM_ONE`, so expert `e` owns the integers `cum[e]..cum[e+1]`. An
    /// expert of zero probability owns none.
    cum: Vec<u64>,
    /// The cap repair's order (experts by descending probability, ties by
    /// index): unset until a repair first needs it after
    /// [`GatingDist::set`].
    order: OnceLock<Vec<usize>>,
    /// The buffer the next sort of `order` fills, with room for every
    /// expert: empty, or a permutation of the experts (the last order) for
    /// the sort to start from. Only the sort takes it, and only `set` puts
    /// it back.
    spare: Mutex<Vec<usize>>,
}

impl Clone for GatingDist {
    fn clone(&self) -> Self {
        GatingDist {
            probs: self.probs.clone(),
            cond: self.cond.clone(),
            cum: self.cum.clone(),
            order: self.order.clone(),
            spare: Mutex::new(Vec::with_capacity(self.probs.len())),
        }
    }
}

impl GatingDist {
    /// An unset distribution with room for `experts` experts in every
    /// buffer, so that setting it allocates nothing.
    pub(crate) fn with_capacity(experts: usize) -> Self {
        GatingDist {
            probs: Vec::with_capacity(experts),
            cond: Vec::with_capacity(experts),
            cum: Vec::with_capacity(experts + 1),
            order: OnceLock::new(),
            spare: Mutex::new(Vec::with_capacity(experts)),
        }
    }

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
        // Monotone in the running sum and clamped, so the fixed-point
        // weights never decrease, and they end at exactly `CUM_ONE`.
        let to_fixed = CUM_ONE as f64 / total;
        self.cum.clear();
        self.cum.push(0);
        let mut sum = 0.0;
        for &p in &self.probs {
            sum += p;
            self.cum.push(((sum * to_fixed) as u64).min(CUM_ONE));
        }
        *self.cum.last_mut().expect("one entry past the experts") = CUM_ONE;
        let experts = self.probs.len();
        let spare = self.spare.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(order) = self.order.take() {
            *spare = order;
        }
        // The last order is the next sort's starting permutation, if it
        // has one entry per expert.
        if spare.len() != experts {
            spare.clear();
        }
        spare.reserve(experts - spare.len());
    }

    /// The cap repair's order, sorted into the spare buffer on the first
    /// call after [`GatingDist::set`]. Ties break by index, so the
    /// comparator is a strict total order and every sort of any starting
    /// permutation yields the same one. A kept permutation is re-sorted by
    /// insertion, which shifts each expert past the experts it overtook
    /// since that order; if more than [`RESORT_SHIFTS`] shifts an expert
    /// are needed, the rest is left to `sort_unstable_by`.
    fn repair_order(&self) -> &[usize] {
        self.order.get_or_init(|| {
            // Only this initialiser takes the buffer, and a panic in it
            // leaves the cell unset and the buffer merely empty.
            let mut order =
                std::mem::take(&mut *self.spare.lock().unwrap_or_else(PoisonError::into_inner));
            let probs = &self.probs;
            let budget = RESORT_SHIFTS * probs.len();
            if order.is_empty() {
                order.extend(0..probs.len());
            } else if insertion_sort(&mut order, probs, budget) {
                return order;
            }
            order.sort_unstable_by(|&a, &b| {
                probs[b].partial_cmp(&probs[a]).unwrap().then(a.cmp(&b))
            });
            order
        })
    }

    /// One categorical draw over experts `e0..` by their probabilities,
    /// renormalised: the random `bits` pick a point in `cum[e0]..cum[E]`,
    /// and the draw is the expert whose interval holds it, found by a
    /// binary search of the suffix's interval ends. Needs
    /// `cum[e0] < cum[E]` (the suffix has mass). An expert of zero
    /// probability owns no point, so it is never drawn.
    ///
    /// `partition_point` takes the same branch-free steps on every draw of
    /// a tail, so nothing mispredicts. A guide table (Chen and Asau's
    /// indexed search) drew the whole distribution faster, but it was
    /// slower on resumed tails, whose suffix holds little of the mass, and
    /// rebuilding it with every distribution slowed a mix that changes
    /// each iteration on a 94-layer model by 11–22% end to end.
    #[inline(always)]
    fn draw_from(&self, e0: usize, bits: u64) -> usize {
        let lo = self.cum[e0];
        let span = self.cum[self.probs.len()] - lo;
        let point = lo + ((u128::from(bits) * u128::from(span)) >> 64) as u64;
        e0 + self.cum[e0 + 1..].partition_point(|&end| end <= point)
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
        self.order.get().map_or(&[], Vec::as_slice)
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

/// The fixed-point cumulative weight of the whole distribution.
const CUM_ONE: u64 = 1 << 63;

/// Shifts per expert that re-sorting a kept repair order may make before
/// the rest is left to a full sort. A cycling mix moves its weights by
/// under 2% an iteration, so its re-sorts shift about one an expert.
const RESORT_SHIFTS: usize = 8;

/// Sorts the permutation `order` by descending `probs`, ties by index, by
/// insertion. Returns `false` once the shifts exceed `budget`, leaving
/// `order` a permutation only partly sorted.
fn insertion_sort(order: &mut [usize], probs: &[f64], mut budget: usize) -> bool {
    for i in 1..order.len() {
        let e = order[i];
        let p = probs[e];
        let mut j = i;
        while j > 0 {
            let prev = order[j - 1];
            let q = probs[prev];
            if !(p > q || (p == q && e < prev)) {
                break;
            }
            order[j] = prev;
            j -= 1;
        }
        order[j] = e;
        match budget.checked_sub(i - j) {
            Some(left) => budget = left,
            None => return false,
        }
    }
    true
}

/// Trials up to which a group's chain is finished exactly, as categorical
/// draws; above it, binomials are drawn by the normal approximation.
const EXACT_TRIALS: u32 = 64;

/// Draws one layer's counts for every DP group: `counts[g]` (one slot per
/// expert) gets group `g`'s [`sample_gating_counts`] draw from `dist`, made
/// with `streams[g]`'s random stream alone. A caller that keeps `dist` and
/// `streams` across draws samples without allocating.
///
/// The draw runs in two phases. Phase 1 walks the experts once and, at
/// each, advances every group that still has more than [`EXACT_TRIALS`]
/// trials by one normal-approximation binomial; the chains share no data,
/// so their latencies overlap. Phase 2 finishes each group's exact tail
/// group by group (with `tokens × top_k` at most [`EXACT_TRIALS`], phase 1
/// is empty). The rest of a conditional-binomial chain resumed at expert
/// `e0` with `n` trials is multinomial(`n`; the probabilities of experts
/// `e0..`, renormalised), so the tail is `n` categorical draws over that
/// suffix, one `next_u64` each (a binary search of [`GatingDist`]'s
/// cumulative weights finds the expert). A suffix the chain's running
/// subtraction found empty of mass hands its trials to the last expert.
/// Each group then repairs its cap.
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
    dist: &GatingDist,
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
        // Phase 2: the group's exact tail, over the experts from `e0` on.
        let (e0, trials) = (stream.next, stream.trials);
        if e0 < dist.cond.len() && dist.cum[experts] > dist.cum[e0] {
            for _ in 0..trials {
                counts[dist.draw_from(e0, stream.rng.next_u64())] += 1;
            }
        } else {
            // The chain reached the last expert, or the mass ran out first.
            counts[experts - 1] += trials;
        }
        repair_cap(dist, tokens, counts);
    }
}

/// Repairs the top-k-without-replacement cap on one group's `counts`: no
/// expert can receive more than one selection per token.
fn repair_cap(dist: &GatingDist, tokens: u32, counts: &mut [u32]) {
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
    // higher-probability ones: each pass over the repair order gives one
    // selection to every expert still below the cap. Pass `p` reaches the
    // experts whose count was below `cap - p`, so the passes the overflow
    // fills whole are counted without the order, added to every count at
    // once, and only the last, partial pass walks the order.
    let mut full = 0;
    while overflow > 0 {
        // A pass counts only if some expert was open in it, so `full`
        // never passes `cap`.
        let below = cap - full;
        let open: u64 = counts.iter().map(|&c| u64::from(c < below)).sum();
        if open == 0 {
            panic!("cannot satisfy top-k cap: tokens*top_k exceeds tokens*experts");
        }
        if overflow < open {
            break;
        }
        overflow -= open;
        full += 1;
    }
    for c in counts.iter_mut() {
        *c += full.min(cap - *c);
    }
    if overflow == 0 {
        return;
    }
    for &e in dist.repair_order() {
        if counts[e] < cap {
            counts[e] += 1;
            overflow -= 1;
            if overflow == 0 {
                return;
            }
        }
    }
    unreachable!("the last pass has more open experts than overflow");
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
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// The sampler before its per-distribution cache, its per-group streams
    /// and its categorical tail, kept as the reference: it derives every
    /// conditional probability on each draw, rounds with libm and a
    /// saturating cast, draws up to [`EXACT_TRIALS`] trials as Bernoulli
    /// trials tested in floating point, expert by expert, and draws its
    /// normals by Box-Muller. The sampler must match its law.
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

    /// Two-sample χ² of two equally sized samples of whole count vectors:
    /// each vector drawn at least 20 times in the two samples together is
    /// a bin of its own, the rest share one (folded into the smallest bin
    /// if it holds fewer than 20 draws), with its degrees of freedom.
    fn two_sample_vector_chi2(a: &[Vec<u32>], b: &[Vec<u32>]) -> (f64, usize) {
        assert_eq!(a.len(), b.len());
        let mut seen: BTreeMap<&[u32], (f64, f64)> = BTreeMap::new();
        a.iter().for_each(|v| seen.entry(v).or_default().0 += 1.0);
        b.iter().for_each(|v| seen.entry(v).or_default().1 += 1.0);
        let (mut bins, mut rest) = (Vec::new(), (0.0, 0.0));
        for &(x, y) in seen.values() {
            if x + y >= 20.0 {
                bins.push((x, y));
            } else {
                rest = (rest.0 + x, rest.1 + y);
            }
        }
        match bins
            .iter_mut()
            .min_by(|p, q| (p.0 + p.1).total_cmp(&(q.0 + q.1)))
        {
            Some(smallest) if rest.0 + rest.1 < 20.0 => {
                *smallest = (smallest.0 + rest.0, smallest.1 + rest.1)
            }
            _ => bins.push(rest),
        }
        bins.retain(|&(x, y)| x + y > 0.0);
        let chi2 = bins.iter().map(|(x, y)| (x - y) * (x - y) / (x + y)).sum();
        (chi2, bins.len().saturating_sub(1))
    }

    /// The χ² quantile with `df` degrees of freedom `z` standard deviations
    /// out (upper tail ≈ 3·10⁻⁵ at 4, 3·10⁻⁷ at 5), by Wilson–Hilferty.
    fn chi2_critical(df: usize, z: f64) -> f64 {
        let df = df as f64;
        let h = 2.0 / (9.0 * df);
        df * (1.0 - h + z * h.sqrt()).powi(3)
    }

    /// Draws 2000 count vectors of `tokens` tokens and top-k `top_k` from
    /// distribution `kind` over `experts` experts with the sampler (one
    /// cached distribution, `groups` groups a layer, so the kept repair
    /// order and the groups' interleaved chains are what is tested) and
    /// 2000 with the reference, and checks that they have one law:
    ///
    /// * every sampler draw hands out `tokens × top_k` selections, at most
    ///   `tokens` to an expert, and an expert of zero probability gets
    ///   none unless the draw overflowed (some expert sits at the cap);
    /// * every expert's mean and variance agree within 5 standard errors;
    /// * every expert's counts pass a two-sample χ² at its 5σ quantile;
    /// * the whole count vectors pass a two-sample χ² at its 4σ quantile.
    fn assert_same_law(kind: u8, experts: usize, tokens: u32, top_k: u32, groups: usize) {
        const DRAWS: usize = 2000;
        let probs = test_dist(kind, experts, 0.4, 5);
        let case =
            format!("kind {kind} experts {experts} tokens {tokens} top-k {top_k} groups {groups}");
        let salt = u64::from(kind) << 48
            ^ (experts as u64) << 32
            ^ u64::from(tokens) << 8
            ^ u64::from(top_k)
            ^ (groups as u64) << 56;
        let mut cached = GatingDist::default();
        cached.set(|p| p.extend_from_slice(&probs));
        let mut streams: Vec<_> = (0..groups as u64).map(|g| stream(salt ^ g)).collect();
        let mut layer = vec![vec![0; experts]; groups];
        let mut new = Vec::with_capacity(DRAWS);
        while new.len() < DRAWS {
            sample_layer_into(&mut streams, &cached, tokens, top_k, &mut layer);
            new.extend(layer.iter().cloned());
        }
        new.truncate(DRAWS);
        for counts in &new {
            assert_eq!(
                counts.iter().sum::<u32>(),
                tokens * top_k,
                "{case}: {counts:?}"
            );
            assert!(counts.iter().all(|&c| c <= tokens), "{case}: {counts:?}");
            let overflowed = counts.contains(&tokens);
            for (e, (&c, &p)) in counts.iter().zip(&probs).enumerate() {
                assert!(
                    p > 0.0 || c == 0 || overflowed,
                    "{case}: zero-probability expert {e} drew {c}"
                );
            }
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
            let column = |s: &[Vec<u32>]| s.iter().map(|c| c[e]).collect::<Vec<_>>();
            let (chi2, df) = two_sample_chi2(&column(&new), &column(&old));
            assert!(
                df == 0 || chi2 < chi2_critical(df, 5.0),
                "{case} expert {e}: χ² {chi2} on {df} df"
            );
        }
        let (chi2, df) = two_sample_vector_chi2(&new, &old);
        assert!(
            df == 0 || chi2 < chi2_critical(df, 4.0),
            "{case}: count-vector χ² {chi2} on {df} df"
        );
    }

    /// Where the whole draw is the exact tail (`tokens × top_k` at most
    /// [`EXACT_TRIALS`]: n categorical draws from the first expert), the
    /// sampler draws counts of the reference's law (see
    /// [`assert_same_law`]) on uniform, Zipf, one-hot, exhausting and
    /// heavy-head distributions (whose head's conditional probability
    /// rounds to at least 1), over 32 and 128 experts with 1–4 groups. The
    /// cached conditional probabilities are the reference's bit for bit.
    #[test]
    fn exact_tail_matches_reference_in_law() {
        let mut case = 0;
        for kind in 0..5 {
            for (experts, tokens, top_k) in [
                (32, 1, 1),
                (32, 1, 2),
                (32, 4, 1),
                (32, 7, 2),
                (32, 16, 2),
                (32, 32, 2),
                (32, 64, 1),
                (128, 8, 8),
            ] {
                let probs = test_dist(kind, experts, 0.4, 5);
                let mut cached = GatingDist::default();
                cached.set(|p| p.extend_from_slice(&probs));
                let bits = |q: &[f64]| q.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&cached.cond), bits(&reference_conditionals(&probs)));
                assert_same_law(kind, experts, tokens, top_k, 1 + case % 4);
                case += 1;
            }
        }
    }

    /// With 65–600 trials, phase 1 hands each group's chain to the exact
    /// tail at an expert that varies from draw to draw and from group to
    /// group, and the tail's categorical draws over the remaining experts
    /// still give counts of the reference's law (see [`assert_same_law`]),
    /// on the five kinds of [`exact_tail_matches_reference_in_law`] with
    /// 1–4 groups.
    #[test]
    fn resumed_tail_matches_reference_in_law() {
        let mut case = 0;
        for kind in 0..5 {
            for (tokens, top_k) in [(33, 2), (75, 2), (40, 8), (75, 8)] {
                assert_same_law(kind, 32, tokens, top_k, 1 + case % 4);
                case += 1;
            }
        }
    }

    /// On uniform, Zipf, one-hot and exhausting distributions over 32
    /// experts, with 1, 16, 473 and 4096 tokens and top-k 1, 2 and 8, the
    /// sampler (four groups a layer) and the reference draw counts of the
    /// same law (see [`assert_same_law`]).
    #[test]
    fn sampler_matches_reference_in_law() {
        for kind in 0..4 {
            for tokens in [1u32, 16, 473, 4096] {
                for top_k in [1u32, 2, 8] {
                    assert_same_law(kind, 32, tokens, top_k, 4);
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
        assert!(chi2 < chi2_critical(39, 4.0), "χ² {chi2} on 39 df");
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

    /// The cap repair as it handed the overflow out before its closed
    /// form, kept as the reference: one selection at a time, round-robin
    /// over `order`, pass after pass.
    fn reference_repair_cap(order: &[usize], cap: u32, counts: &mut [u32]) {
        let mut overflow: u64 = 0;
        for c in counts.iter_mut() {
            if *c > cap {
                overflow += u64::from(*c - cap);
                *c = cap;
            }
        }
        if overflow == 0 {
            return;
        }
        'outer: loop {
            let mut progressed = false;
            for &e in order {
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

    /// A cached distribution of `probs`.
    fn gating_dist(probs: &[f64]) -> GatingDist {
        let mut dist = GatingDist::default();
        dist.set(|p| p.extend_from_slice(probs));
        dist
    }

    /// The experts of `probs` by descending probability, ties by index,
    /// sorted afresh.
    fn fresh_order(probs: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..probs.len()).collect();
        order.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).unwrap().then(a.cmp(&b)));
        order
    }

    /// The closed-form repair gives the round-robin loop's counts, and
    /// panics where it panics: 1–130 experts, caps of 1–600 tokens, random
    /// counts, random repair orders (random probabilities, half of them on
    /// a few levels, so that ties break by index), overflows that exactly
    /// fill one to three passes, and counts no repair can fit under the
    /// cap.
    #[test]
    fn closed_form_repair_matches_round_robin() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut r = rng();
        let (mut repaired, mut exact_fills, mut unsatisfiable) = (0, 0, 0);
        for case in 0..6000 {
            let experts = r.gen_range(1..=130usize);
            let cap = r.gen_range(1..=600u32);
            let levels = r.gen_range(1..=6u32);
            let probs: Vec<f64> = (0..experts)
                .map(|_| {
                    if case % 2 == 0 {
                        r.gen::<f64>() + 1e-3
                    } else {
                        f64::from(r.gen_range(1..=levels))
                    }
                })
                .collect();
            let mut counts: Vec<u32> = (0..experts)
                .map(|_| {
                    if r.gen_bool(0.8) {
                        r.gen_range(0..=cap)
                    } else {
                        r.gen_range(cap..=3 * cap)
                    }
                })
                .collect();
            let room = u64::from(cap) * experts as u64;
            let total = |counts: &[u32]| counts.iter().map(|&c| u64::from(c)).sum::<u64>();
            match case % 100 {
                // One expert overflows by exactly what the first 1–3
                // passes hand out.
                0..=19 => {
                    for c in &mut counts {
                        *c = (*c).min(cap);
                    }
                    let hot = r.gen_range(0..experts);
                    counts[hot] = cap;
                    let passes = r.gen_range(1..=3u32);
                    let fill: usize = (0..passes)
                        .map(|p| counts.iter().filter(|&&c| c + p < cap).count())
                        .sum();
                    counts[hot] += fill as u32;
                    exact_fills += usize::from(fill > 0);
                }
                // One selection more than every expert can take.
                20 => {
                    let hot = r.gen_range(0..experts);
                    counts[hot] += ((room + 1).saturating_sub(total(&counts))) as u32;
                }
                _ => {}
            }
            let fits = total(&counts) <= room;
            if !fits && case % 100 != 20 {
                continue;
            }
            let dist = gating_dist(&probs);
            let mut expect = counts.clone();
            let reference = catch_unwind(AssertUnwindSafe(|| {
                reference_repair_cap(&fresh_order(&probs), cap, &mut expect)
            }));
            let mut got = counts.clone();
            let closed = catch_unwind(AssertUnwindSafe(|| repair_cap(&dist, cap, &mut got)));
            let case = format!("case {case}: {experts} experts, cap {cap}, counts {counts:?}");
            if fits {
                assert!(reference.is_ok() && closed.is_ok(), "{case}");
                assert_eq!(got, expect, "{case}");
                repaired += usize::from(counts.iter().any(|&c| c > cap));
            } else {
                assert!(reference.is_err(), "{case}: the reference fitted it");
                let message = closed.expect_err(&case);
                let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(message.contains("cannot satisfy top-k cap"), "{case}");
                unsatisfiable += 1;
            }
        }
        assert!(repaired > 1000, "{repaired} repairs");
        assert!(exact_fills > 500, "{exact_fills} exact fills");
        assert!(unsatisfiable > 10, "{unsatisfiable} unsatisfiable cases");
    }

    /// A distribution's kept order re-sorts to the fresh sort of its next
    /// distribution: after a small drift (within the shift budget), a
    /// reversal and an unrelated distribution (past it), a distribution
    /// of another size, all ties, and a distribution that never repaired
    /// (whose next sort starts from the order before it).
    #[test]
    fn kept_repair_orders_resort_to_a_fresh_sort() {
        let mut r = rng();
        for experts in [1, 2, 16, 128, 256] {
            let budget = RESORT_SHIFTS * experts;
            let random = |r: &mut rand::rngs::StdRng| -> Vec<f64> {
                (0..experts).map(|_| r.gen::<f64>() + 1e-3).collect()
            };
            let first = random(&mut r);
            let drifted: Vec<f64> = first
                .iter()
                .map(|p| p * (0.99 + 0.02 * r.gen::<f64>()))
                .collect();
            let reversed: Vec<f64> = first.iter().map(|p| 2.0 - p).collect();
            let mut kept = fresh_order(&first);
            assert!(insertion_sort(&mut kept, &drifted, budget));
            assert_eq!(kept, fresh_order(&drifted), "{experts} experts, drift");
            let mut kept = fresh_order(&first);
            let resorted = insertion_sort(&mut kept, &reversed, budget);
            let shifts = experts * (experts - 1) / 2;
            assert_eq!(resorted, shifts <= budget, "{experts} experts, reversal");
            kept.sort_unstable();
            assert!(kept.iter().copied().eq(0..experts), "a permutation");

            let mut dist = gating_dist(&first);
            let bigger = (0..experts + 3)
                .map(|e| (e % 5) as f64 + 1.0)
                .collect::<Vec<_>>();
            let sequence = [
                (drifted.clone(), true),
                (reversed, true),
                (random(&mut r), true),
                (vec![0.5; experts], true),
                (random(&mut r), false),
                (bigger, true),
                (random(&mut r), true),
            ];
            assert_eq!(dist.repair_order(), fresh_order(&first));
            for (i, (probs, repair)) in sequence.into_iter().enumerate() {
                dist.set(|p| {
                    p.clear();
                    p.extend_from_slice(&probs);
                });
                assert!(dist.order().is_empty());
                if repair {
                    assert_eq!(
                        dist.repair_order(),
                        fresh_order(&probs),
                        "{experts} experts, step {i}"
                    );
                }
            }
        }
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
