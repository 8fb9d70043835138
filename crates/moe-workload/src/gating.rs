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
/// function sorts that order afresh on every overflow; a
/// [`TraceGenerator`](crate::TraceGenerator) sorts it once per cached
/// distribution and reuses it for every draw until the distribution changes.
///
/// Returns a vector of length `dist.len()` summing to `tokens * top_k`.
///
/// # Panics
///
/// Panics if `top_k as usize > dist.len()` or if `dist` has a non-positive
/// total.
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
    let mut counts = vec![0u32; dist.len()];
    sample_gating_counts_into(rng, dist, tokens, top_k, &mut counts, &mut Vec::new());
    counts
}

/// [`sample_gating_counts`] written into `counts` (one slot per expert).
///
/// `order` caches the cap repair's expert order for `dist`: an empty
/// `order` is sorted on the first overflow, a non-empty one is used as it
/// is. A caller that keeps it across draws from one distribution sorts once
/// and samples without allocating, and must clear it whenever `dist`
/// changes.
///
/// # Panics
///
/// As [`sample_gating_counts`]; also if `counts.len() != dist.len()`.
pub(crate) fn sample_gating_counts_into<R: Rng>(
    rng: &mut R,
    dist: &[f64],
    tokens: u32,
    top_k: u32,
    counts: &mut [u32],
    order: &mut Vec<usize>,
) {
    assert!(
        (top_k as usize) <= dist.len(),
        "top_k={} exceeds expert count {}",
        top_k,
        dist.len()
    );
    assert_eq!(counts.len(), dist.len(), "one count slot per expert");
    let total_p: f64 = dist.iter().sum();
    assert!(total_p > 0.0, "distribution must have positive mass");

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
        let c = sample_binomial(rng, remaining_trials, q);
        counts[e] = c as u32;
        remaining_trials -= c;
        remaining_mass -= p;
        if remaining_mass <= 0.0 {
            // Numerical exhaustion: dump the rest on the last expert.
            counts[dist.len() - 1] += remaining_trials as u32;
            break;
        }
    }

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
        if order.is_empty() {
            order.extend(0..dist.len());
            order.sort_unstable_by(|&a, &b| dist[b].partial_cmp(&dist[a]).unwrap().then(a.cmp(&b)));
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

/// Samples from Binomial(n, p) — exact Bernoulli summation for small `n`,
/// normal approximation for large `n` (clamped to `[0, n]`).
fn sample_binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
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
    // Box-Muller.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let sample = (mean + sd * z).round();
    sample.clamp(0.0, n as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
