//! Per-layer, per-scenario expert affinity distributions.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::scenario::Scenario;

/// Zipf exponent of the intrinsic expert popularity bias.
const ZIPF_EXPONENT: f64 = 0.8;
/// Multiplicative boost applied to a scenario's domain experts.
const SCENARIO_BOOST: f64 = 4.0;
/// Fraction of experts in each scenario's domain hot set.
const HOT_SET_FRACTION: f64 = 0.125;

/// Seeded construction of expert-selection probability distributions.
///
/// For every MoE layer the model combines:
///
/// 1. an *intrinsic popularity* ranking — a seeded permutation of experts
///    weighted by a Zipf law (the "expert popularity bias" of the paper's
///    §V-B), shared by all scenarios; and
/// 2. a *scenario hot set* — a seeded subset of experts whose affinity is
///    boosted while that scenario is active ("fixed scenarios persistently
///    activate corresponding domain-specific experts").
///
/// Distributions are precomputed at construction; lookups are slice borrows.
///
/// # Example
///
/// ```
/// use moe_workload::{AffinityModel, Scenario};
///
/// let model = AffinityModel::new(4, 64, 7);
/// let math = model.distribution(0, Scenario::Math);
/// let sum: f64 = math.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-9);
/// // Different scenarios favour different experts.
/// let chat = model.distribution(0, Scenario::Chat);
/// assert_ne!(math, chat);
/// ```
#[derive(Clone, Debug)]
pub struct AffinityModel {
    num_layers: usize,
    num_experts: usize,
    /// `[layer][scenario][expert]` probabilities.
    tables: Vec<[Vec<f64>; 4]>,
}

impl AffinityModel {
    /// Builds affinity tables for `num_layers` MoE layers of `num_experts`
    /// experts each, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers` or `num_experts` is zero.
    pub fn new(num_layers: usize, num_experts: usize, seed: u64) -> Self {
        assert!(num_layers > 0, "need at least one layer");
        assert!(num_experts > 0, "need at least one expert");
        let mut tables = Vec::with_capacity(num_layers);
        for layer in 0..num_layers {
            // Intrinsic popularity: Zipf weights over a seeded permutation.
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed ^ (layer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut order: Vec<usize> = (0..num_experts).collect();
            order.shuffle(&mut rng);
            let mut base = vec![0.0; num_experts];
            for (rank, &e) in order.iter().enumerate() {
                base[e] = 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
            }

            let hot = ((num_experts as f64 * HOT_SET_FRACTION).round() as usize).max(1);
            let scenario_dist = Scenario::all().map(|scenario| {
                let mut srng = rand::rngs::StdRng::seed_from_u64(
                    seed ^ (layer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (scenario.id() + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                let mut weights = base.clone();
                let mut pool: Vec<usize> = (0..num_experts).collect();
                pool.shuffle(&mut srng);
                for &e in pool.iter().take(hot) {
                    weights[e] *= SCENARIO_BOOST * (1.0 + srng.gen::<f64>());
                }
                let total: f64 = weights.iter().sum();
                for w in &mut weights {
                    *w /= total;
                }
                weights
            });
            tables.push(scenario_dist);
        }
        AffinityModel {
            num_layers,
            num_experts,
            tables,
        }
    }

    /// Number of MoE layers covered.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Number of experts per layer.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// The expert-selection distribution of `scenario` at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn distribution(&self, layer: usize, scenario: Scenario) -> &[f64] {
        &self.tables[layer][scenario.id() as usize]
    }

    /// A weighted mixture of scenario distributions at `layer`. Weights are
    /// normalised internally; zero-total weights produce a uniform
    /// distribution.
    pub fn mixed_distribution(&self, layer: usize, weights: &[(Scenario, f64)]) -> Vec<f64> {
        let mut mixed = Vec::new();
        self.mixed_distribution_into(layer, weights, &mut mixed);
        mixed
    }

    /// [`AffinityModel::mixed_distribution`] written into `out`, reusing its
    /// allocation. `out` is overwritten with exactly `num_experts` entries.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range and the weights have positive
    /// total.
    pub fn mixed_distribution_into(
        &self,
        layer: usize,
        weights: &[(Scenario, f64)],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let total: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        if total <= 0.0 {
            out.resize(self.num_experts, 1.0 / self.num_experts as f64);
            return;
        }
        out.resize(self.num_experts, 0.0);
        for &(scenario, w) in weights {
            let w = w.max(0.0) / total;
            if w == 0.0 {
                continue;
            }
            for (m, p) in out.iter_mut().zip(self.distribution(layer, scenario)) {
                *m += w * p;
            }
        }
    }

    /// A perfectly uniform distribution (the "balanced gating" ablation of
    /// §VI-B, which equalises every expert's selection probability).
    pub fn uniform(&self) -> Vec<f64> {
        vec![1.0 / self.num_experts as f64; self.num_experts]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_are_normalized() {
        let m = AffinityModel::new(3, 32, 1);
        for layer in 0..3 {
            for s in Scenario::all() {
                let sum: f64 = m.distribution(layer, s).iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "layer {layer} scenario {s}");
            }
        }
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = AffinityModel::new(2, 16, 99);
        let b = AffinityModel::new(2, 16, 99);
        assert_eq!(
            a.distribution(1, Scenario::Coding),
            b.distribution(1, Scenario::Coding)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = AffinityModel::new(1, 64, 1);
        let b = AffinityModel::new(1, 64, 2);
        assert_ne!(
            a.distribution(0, Scenario::Chat),
            b.distribution(0, Scenario::Chat)
        );
    }

    #[test]
    fn scenarios_share_intrinsic_bias() {
        // The top intrinsic expert should be popular in all scenarios:
        // its probability stays well above uniform even when not boosted.
        let m = AffinityModel::new(1, 128, 5);
        let uniform = 1.0 / 128.0;
        for s in Scenario::all() {
            let max = m.distribution(0, s).iter().copied().fold(0.0, f64::max);
            assert!(max > 4.0 * uniform, "{s}: max {max}");
        }
    }

    #[test]
    fn mixture_interpolates() {
        let m = AffinityModel::new(1, 16, 3);
        let half = m.mixed_distribution(0, &[(Scenario::Chat, 1.0), (Scenario::Math, 1.0)]);
        let chat = m.distribution(0, Scenario::Chat);
        let math = m.distribution(0, Scenario::Math);
        for i in 0..16 {
            assert!((half[i] - 0.5 * (chat[i] + math[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_mixture_is_uniform() {
        let m = AffinityModel::new(1, 10, 3);
        let d = m.mixed_distribution(0, &[]);
        assert!(d.iter().all(|&p| (p - 0.1).abs() < 1e-12));
        assert_eq!(m.uniform(), d);
    }

    #[test]
    fn mixed_distribution_into_matches_allocating_form() {
        let m = AffinityModel::new(3, 24, 8);
        let mixes: [&[(Scenario, f64)]; 5] = [
            &[(Scenario::Math, 1.0)],
            &[(Scenario::Chat, 1.0), (Scenario::Privacy, 1.0)],
            &[
                (Scenario::Coding, 0.3),
                (Scenario::Math, -2.0),
                (Scenario::Chat, 0.7),
            ],
            &[(Scenario::Chat, 0.0)],
            &[],
        ];
        // One reused buffer, dirtied by every previous call.
        let mut out = vec![f64::NAN; 50];
        for layer in 0..3 {
            for weights in mixes {
                m.mixed_distribution_into(layer, weights, &mut out);
                let expect = m.mixed_distribution(layer, weights);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&expect), "layer {layer} {weights:?}");
            }
        }
    }
}
