//! Iteration-by-iteration expert-selection traces.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use moe_model::ModelConfig;

use crate::affinity::AffinityModel;
use crate::gating::{sample_layer_into, GatingDist, GroupStream};
use crate::scenario::Scenario;

/// How scenario weights evolve over the lifetime of a trace.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum WorkloadMix {
    /// A single scenario for the whole run (the paper's "Math-only").
    Fixed(Scenario),
    /// A smooth cyclic rotation through scenarios, modelling Azure-like
    /// production mixtures whose composition drifts slowly (paper §V-B).
    Cycling {
        /// Iterations for one full rotation through all scenarios.
        period: f64,
        /// Scenarios participating in the rotation.
        scenarios: Vec<Scenario>,
    },
    /// A static blend of scenarios.
    Blend(Vec<(Scenario, f64)>),
}

impl WorkloadMix {
    /// The paper's "Mixed" workload: all four scenarios rotating over
    /// `period` iterations.
    pub fn mixed(period: f64) -> Self {
        WorkloadMix::Cycling {
            period,
            scenarios: Scenario::all().to_vec(),
        }
    }

    /// Scenario weights at `iteration`. `Fixed` yields weight 1 and
    /// `Cycling` weights sum to 1; `Blend` weights are returned as given,
    /// unnormalised. Consumers that need a distribution (e.g.
    /// [`AffinityModel::mixed_distribution`]) normalise them themselves.
    pub fn weights(&self, iteration: u64) -> Vec<(Scenario, f64)> {
        match self {
            WorkloadMix::Fixed(s) => vec![(*s, 1.0)],
            WorkloadMix::Blend(weights) => weights.clone(),
            WorkloadMix::Cycling { period, scenarios } => {
                let s = scenarios.len() as f64;
                let phase = iteration as f64 / period;
                let mut weights: Vec<(Scenario, f64)> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(i, &scenario)| {
                        let theta = 2.0 * std::f64::consts::PI * (phase - i as f64 / s);
                        // Raised-cosine bump: smooth, periodic, non-negative.
                        let w = (0.5 + 0.5 * theta.cos()).powi(2);
                        (scenario, w)
                    })
                    .collect();
                let total: f64 = weights.iter().map(|(_, w)| w).sum();
                for (_, w) in &mut weights {
                    *w /= total;
                }
                weights
            }
        }
    }
}

/// Gating outcome of one MoE layer: token counts per (DP group, expert).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct LayerGating {
    /// `counts[group][expert]` = tokens of `group` routed to `expert`.
    pub counts: Vec<Vec<u32>>,
}

impl LayerGating {
    /// Total tokens routed to each expert across all groups.
    pub fn expert_totals(&self) -> Vec<u64> {
        let num_experts = self.counts.first().map_or(0, Vec::len);
        let mut totals = vec![0u64; num_experts];
        for group in &self.counts {
            for (t, &c) in totals.iter_mut().zip(group) {
                *t += c as u64;
            }
        }
        totals
    }

    /// Total routed token-selections in the layer.
    pub fn total_selections(&self) -> u64 {
        self.counts
            .iter()
            .map(|g| g.iter().map(|&c| c as u64).sum::<u64>())
            .sum()
    }

    /// Number of DP groups.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }
}

/// Gating outcomes for every sparse layer of one inference iteration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct IterationTrace {
    /// Index of the iteration this trace belongs to.
    pub iteration: u64,
    /// Scenario weights that generated it.
    pub weights: Vec<(Scenario, f64)>,
    /// Per-sparse-layer gating outcomes.
    pub layers: Vec<LayerGating>,
}

/// Deterministic generator of per-iteration expert-selection traces.
///
/// See the [crate-level documentation](crate) for the statistical structure.
///
/// Each DP group draws from its own random stream: group `g` of a
/// generator seeded with `seed` seeds a `StdRng` with
/// `seed · 0xA24B_AED4_963E_E407 + g · 0xD1B5_4A32_D192_ED03` (wrapping
/// 64-bit arithmetic), so a group's counts depend only on the seed, the
/// group index and the distributions, and the groups' draws can run
/// interleaved.
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    affinity: AffinityModel,
    mix: WorkloadMix,
    tokens_per_group: u32,
    top_k: u32,
    /// One random stream per DP group, with that group's place in a draw.
    streams: Vec<GroupStream<StdRng>>,
    iteration: u64,
    uniform: bool,
    /// Sampling distributions cached across iterations.
    dists: LayerDists,
    /// The cells of a shared draw ([`LayerSampler::share`]), kept for
    /// their buffers.
    cells: DrawCells,
}

impl TraceGenerator {
    /// Creates a generator for `config` under `mix`, with `num_groups` DP
    /// groups of `tokens_per_group` tokens per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `num_groups == 0` or `tokens_per_group == 0`. Sampling an
    /// iteration panics if `tokens_per_group` times the model's top-k
    /// exceeds `u32::MAX`.
    pub fn new(
        config: &ModelConfig,
        mix: WorkloadMix,
        num_groups: usize,
        tokens_per_group: u32,
        seed: u64,
    ) -> Self {
        assert!(num_groups > 0, "need at least one DP group");
        assert!(tokens_per_group > 0, "need at least one token per group");
        TraceGenerator {
            affinity: AffinityModel::new(
                config.num_sparse_layers as usize,
                config.num_experts as usize,
                seed,
            ),
            mix,
            tokens_per_group,
            top_k: config.experts_per_token,
            streams: (0..num_groups as u64)
                .map(|g| {
                    GroupStream::new(StdRng::seed_from_u64(
                        seed.wrapping_mul(0xA24B_AED4_963E_E407)
                            .wrapping_add(g.wrapping_mul(0xD1B5_4A32_D192_ED03)),
                    ))
                })
                .collect(),
            iteration: 0,
            uniform: false,
            dists: LayerDists::default(),
            cells: DrawCells::default(),
        }
    }

    /// Forces perfectly uniform gating probabilities (the balanced-load
    /// ablation used to isolate mapping gains in §VI-B).
    pub fn with_uniform_gating(mut self) -> Self {
        self.uniform = true;
        self
    }

    /// Overrides the per-iteration token count per group.
    ///
    /// # Panics
    ///
    /// Panics if `tokens_per_group == 0`.
    pub fn set_tokens_per_group(&mut self, tokens_per_group: u32) {
        assert!(tokens_per_group > 0, "need at least one token per group");
        self.tokens_per_group = tokens_per_group;
    }

    /// The affinity model driving generation.
    pub fn affinity(&self) -> &AffinityModel {
        &self.affinity
    }

    /// Current iteration counter.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Generates the next iteration's gating trace.
    pub fn next_iteration(&mut self) -> IterationTrace {
        let mut trace = IterationTrace {
            iteration: 0,
            weights: Vec::new(),
            layers: Vec::new(),
        };
        self.next_iteration_into(&mut trace);
        trace
    }

    /// Generates the next iteration's gating trace into `trace`, reusing
    /// its per-layer and per-group count vectors. Draws exactly what
    /// [`TraceGenerator::next_iteration`] draws, so the two are
    /// interchangeable call for call.
    ///
    /// The per-layer mixed distributions are cached and recomputed only
    /// when the mix weights change (every iteration for
    /// [`WorkloadMix::Cycling`], once for `Fixed` and `Blend`), so a caller
    /// reusing one trace samples without allocating per layer. Each cached
    /// distribution also keeps the sampler's conditional probabilities and
    /// cumulative weights, and the cap repair's expert order, sorted when
    /// a repair first needs it rather than on every overflowing group,
    /// and re-sorted from its last order when the distribution changes.
    pub fn next_iteration_into(&mut self, trace: &mut IterationTrace) {
        self.begin_iteration(trace).sample(usize::MAX, |_| {});
    }

    /// Starts the next iteration: mixes its weights, marks the cached
    /// distributions stale if they changed (each is mixed again by the
    /// first draw of its layer, on whichever thread draws it), sizes
    /// `trace` for every layer and group and stamps its iteration and
    /// weights. Every allocation of an
    /// iteration happens here, on the calling thread (and, on the first
    /// [`LayerSampler::share`], there); the returned [`LayerSampler`] then
    /// draws the counts without allocating, and may share the draw with
    /// another thread. Together the two are
    /// [`TraceGenerator::next_iteration_into`].
    pub fn begin_iteration<'t>(&'t mut self, trace: &'t mut IterationTrace) -> LayerSampler<'t> {
        let weights = self.mix.weights(self.iteration);
        let num_dists = if self.uniform {
            1
        } else {
            self.affinity.num_layers()
        };
        let num_experts = self.affinity.num_experts();
        self.dists.update(
            num_dists,
            num_experts,
            (!self.uniform).then_some(&weights[..]),
        );
        trace
            .layers
            .resize_with(self.affinity.num_layers(), || LayerGating {
                counts: Vec::new(),
            });
        for gating in &mut trace.layers {
            gating.counts.resize_with(self.streams.len(), Vec::new);
            for counts in &mut gating.counts {
                counts.resize(num_experts, 0);
            }
        }
        trace.iteration = self.iteration;
        trace.weights = weights;
        self.iteration += 1;
        LayerSampler {
            streams: &mut self.streams,
            dists: DistsView {
                dists: &self.dists,
                affinity: &self.affinity,
                uniform: self.uniform,
            },
            cells: &mut self.cells,
            tokens_per_group: self.tokens_per_group,
            top_k: self.top_k,
            layers: &mut trace.layers,
        }
    }
}

/// The sampling distributions a generator caches across iterations: one
/// mixed distribution per layer, or a single uniform one under uniform
/// gating. Each keeps what the sampler derives from it (conditional
/// probabilities, cumulative weights, the cap-repair order), refreshed
/// with the distribution.
///
/// When the weights change, every distribution becomes unset, and the first
/// draw of its layer mixes it again, into the buffers it last used. A
/// layer is so mixed on the thread that draws it, just before its draw,
/// rather than all of them on the calling thread before any is drawn.
#[derive(Debug, Default)]
struct LayerDists {
    /// Unset from a change of the weights to the first draw of the layer.
    dists: Vec<OnceLock<GatingDist>>,
    /// Per entry of `dists`: the buffers it is mixed into while unset.
    spares: Vec<Mutex<GatingDist>>,
    /// The weights `dists` are mixed for (`None` until first use).
    weights: Option<Vec<(Scenario, f64)>>,
}

/// A clone keeps the mixed distributions, with fresh spare buffers.
impl Clone for LayerDists {
    fn clone(&self) -> Self {
        LayerDists {
            dists: self.dists.clone(),
            spares: self.spares.iter().map(|_| Mutex::default()).collect(),
            weights: self.weights.clone(),
        }
    }
}

impl LayerDists {
    /// Keeps `len` distributions of `experts` experts, unsetting them if
    /// `weights` changed (`None` under uniform gating, whose distribution
    /// never changes). New ones get buffers here, on the calling thread,
    /// so that mixing them on another allocates nothing.
    fn update(&mut self, len: usize, experts: usize, weights: Option<&[(Scenario, f64)]>) {
        self.dists.resize_with(len, OnceLock::new);
        self.spares
            .resize_with(len, || Mutex::new(GatingDist::with_capacity(experts)));
        let Some(weights) = weights else {
            return;
        };
        // Bitwise, so the cache never hides a change `==` would miss.
        let unchanged = self.weights.as_deref().is_some_and(|cached| {
            cached.len() == weights.len()
                && cached
                    .iter()
                    .zip(weights)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        });
        if unchanged {
            return;
        }
        for (dist, spare) in self.dists.iter_mut().zip(&mut self.spares) {
            if let Some(dist) = dist.take() {
                *spare.get_mut().unwrap_or_else(PoisonError::into_inner) = dist;
            }
        }
        let cached = self.weights.get_or_insert_with(Vec::new);
        cached.clear();
        cached.extend_from_slice(weights);
    }
}

/// A generator's distributions as a draw reads them, mixing each on
/// first use.
#[derive(Clone, Copy)]
struct DistsView<'t> {
    dists: &'t LayerDists,
    affinity: &'t AffinityModel,
    uniform: bool,
}

impl<'t> DistsView<'t> {
    /// Layer `layer`'s distribution, mixed into its spare buffers by the
    /// first call since the weights changed; a concurrent call waits for
    /// that one.
    fn get(self, layer: usize) -> &'t GatingDist {
        let i = if self.uniform { 0 } else { layer };
        self.dists.dists[i].get_or_init(|| {
            let mut dist = std::mem::take(&mut *lock(&self.dists.spares[i]));
            match self.dists.weights.as_deref() {
                Some(weights) if !self.uniform => {
                    dist.set(|probs| self.affinity.mixed_distribution_into(i, weights, probs))
                }
                _ => dist.set(|probs| *probs = self.affinity.uniform()),
            }
            dist
        })
    }
}

/// Draws one iteration's gating counts into the trace
/// [`TraceGenerator::begin_iteration`] sized, layer by layer.
///
/// It holds the generator's per-group streams and cached distributions and
/// the trace's layers, and nothing else: the counts depend only on the
/// generator's state, whatever a consumer of finished layers does
/// meanwhile.
pub struct LayerSampler<'t> {
    streams: &'t mut Vec<GroupStream<StdRng>>,
    dists: DistsView<'t>,
    cells: &'t mut DrawCells,
    tokens_per_group: u32,
    top_k: u32,
    layers: &'t mut [LayerGating],
}

impl<'t> LayerSampler<'t> {
    /// Draws every layer in layer order on this thread and hands each
    /// finished run of `chunk` consecutive layers (the last run may be
    /// shorter) to `emit` as soon as it is drawn.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn sample(self, chunk: usize, mut emit: impl FnMut(&'t [LayerGating])) {
        let LayerSampler {
            streams,
            dists,
            tokens_per_group,
            top_k,
            layers,
            ..
        } = self;
        let mut layer = 0;
        for run in layers.chunks_mut(chunk) {
            for gating in run.iter_mut() {
                let dist = dists.get(layer);
                sample_layer_into(streams, dist, tokens_per_group, top_k, &mut gating.counts);
                layer += 1;
            }
            emit(run);
        }
    }

    /// Splits the draw into cells that several threads can draw, and the
    /// outlet the drawn layers come out of, in layer order.
    ///
    /// A cell is one whole layer, and the cells are drawn in layer order,
    /// one thread at a time, because every group's stream is consumed in
    /// that order. So the counts are those of [`LayerSampler::sample`], bit
    /// for bit, whichever thread draws which cell.
    pub fn share(self) -> (SharedDraw<'t>, LayerOutlet<'t>) {
        let LayerSampler {
            streams,
            dists,
            cells,
            tokens_per_group,
            top_k,
            layers,
        } = self;
        cells.load(streams, layers);
        let cells = &*cells;
        (
            SharedDraw {
                cells,
                dists,
                tokens_per_group,
                top_k,
            },
            LayerOutlet {
                cells,
                layers,
                streams,
                taken: 0,
            },
        )
    }
}

/// The cells of a shared draw, kept by the generator across iterations
/// for their buffers. While a draw is shared they hold the generator's
/// streams and the trace's count vectors (one cell a layer); the
/// [`LayerOutlet`] moves both back.
#[derive(Debug, Default)]
struct DrawCells {
    /// The streams, and the next layer they draw. A thread holds the lock
    /// for as long as it draws one cell.
    streams: Mutex<DrawStreams>,
    /// Layers drawn, stored with `Release` after a cell's counts are
    /// written and read with `Acquire` before they are taken (the cell's
    /// lock orders them too).
    progress: AtomicUsize,
    /// Per layer: its count vectors, one per group.
    counts: Vec<Mutex<Vec<Vec<u32>>>>,
    /// Set when a thread panics while taking part in the draw, so that no
    /// other waits for a cell it will never draw. Only a flag: `Relaxed`.
    abandoned: AtomicBool,
}

#[derive(Debug, Default)]
struct DrawStreams {
    streams: Vec<GroupStream<StdRng>>,
    next_layer: usize,
}

/// A clone of a generator starts with no cells: they hold nothing between
/// draws.
impl Clone for DrawCells {
    fn clone(&self) -> Self {
        DrawCells::default()
    }
}

/// Locks `mutex`, recovering the guard if a thread panicked holding it.
/// That thread abandoned the draw first, and after that the cells' data
/// is only moved back, never read as counts.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DrawCells {
    /// Moves the generator's streams and the layers' count vectors into
    /// the cells, by swapping the vectors. Allocates only on the first
    /// call for a number of layers.
    fn load(&mut self, streams: &mut Vec<GroupStream<StdRng>>, layers: &mut [LayerGating]) {
        let held = self
            .streams
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::swap(&mut held.streams, streams);
        held.next_layer = 0;
        *self.progress.get_mut() = 0;
        self.counts.resize_with(layers.len(), Default::default);
        for (cell, gating) in self.counts.iter_mut().zip(layers) {
            let cell = cell.get_mut().unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(cell, &mut gating.counts);
        }
        *self.abandoned.get_mut() = false;
    }
}

/// What [`SharedDraw::draw_free_cell`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellDraw {
    /// It drew a cell.
    Drawn,
    /// It drew nothing: another thread is drawing a cell, or the next cell
    /// is not this thread's.
    Busy,
    /// Every cell is drawn, or the draw was abandoned.
    Finished,
}

/// The cells of a shared draw ([`LayerSampler::share`]), which any number
/// of threads may draw, one cell at a time, each through
/// [`SharedDraw::draw_free_cell`].
#[derive(Clone, Copy)]
pub struct SharedDraw<'t> {
    cells: &'t DrawCells,
    dists: DistsView<'t>,
    tokens_per_group: u32,
    top_k: u32,
}

impl SharedDraw<'_> {
    /// Draws the next cell, the first layer not drawn yet, if no other
    /// thread is drawing one and `mine` picks it. `mine` takes the cell's
    /// layer.
    pub fn draw_free_cell(&self, mine: impl Fn(usize) -> bool) -> CellDraw {
        if self.abandoned() {
            return CellDraw::Finished;
        }
        let mut streams = match self.cells.streams.try_lock() {
            Ok(streams) => streams,
            Err(TryLockError::WouldBlock) => return CellDraw::Busy,
            // Its thread abandoned the draw before it released the lock.
            Err(TryLockError::Poisoned(_)) => return CellDraw::Finished,
        };
        let layer = streams.next_layer;
        if layer == self.cells.counts.len() {
            return CellDraw::Finished;
        }
        if !mine(layer) {
            return CellDraw::Busy;
        }
        let mut counts = lock(&self.cells.counts[layer]);
        // Dropped before the locks: a panicking draw is abandoned before
        // another thread can take the streams.
        let abandon = self.abandon_on_panic();
        let dist = self.dists.get(layer);
        let (tokens, top_k) = (self.tokens_per_group, self.top_k);
        sample_layer_into(&mut streams.streams, dist, tokens, top_k, &mut counts);
        streams.next_layer += 1;
        drop(abandon);
        drop(counts);
        self.cells.progress.store(layer + 1, Ordering::Release);
        CellDraw::Drawn
    }

    /// Whether `layer` is drawn.
    pub fn layer_drawn(&self, layer: usize) -> bool {
        self.cells.progress.load(Ordering::Acquire) > layer
    }

    /// Whether a thread taking part in the draw panicked.
    pub fn abandoned(&self) -> bool {
        self.cells.abandoned.load(Ordering::Relaxed)
    }

    /// A guard that abandons the draw if it is dropped while its thread
    /// panics. Every thread taking part holds one, so that none waits for
    /// ever on a layer a panicked thread would have drawn.
    pub fn abandon_on_panic(&self) -> impl Drop + '_ {
        AbandonOnPanic(&self.cells.abandoned)
    }
}

struct AbandonOnPanic<'c>(&'c AtomicBool);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The drawn layers of a shared draw, on the thread that owns the trace.
/// Dropping it moves the count vectors of every layer it did not hand out
/// back into the trace, and the streams back into the generator.
pub struct LayerOutlet<'t> {
    cells: &'t DrawCells,
    layers: &'t mut [LayerGating],
    streams: &'t mut Vec<GroupStream<StdRng>>,
    /// Layers handed out so far.
    taken: usize,
}

impl LayerOutlet<'_> {
    /// Number of sparse layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The next layer's gating, moved from its cell into the trace.
    ///
    /// # Panics
    ///
    /// Panics if the layer is not drawn yet ([`SharedDraw::layer_drawn`])
    /// or every layer was handed out.
    pub fn next_layer(&mut self) -> &LayerGating {
        let layer = self.taken;
        assert!(
            self.cells.progress.load(Ordering::Acquire) > layer,
            "layer {layer} is not drawn yet"
        );
        self.put_back(layer);
        self.taken += 1;
        &self.layers[layer]
    }

    /// Swaps `layer`'s count vectors between its cell and the trace.
    fn put_back(&mut self, layer: usize) {
        std::mem::swap(
            &mut *lock(&self.cells.counts[layer]),
            &mut self.layers[layer].counts,
        );
    }
}

impl Drop for LayerOutlet<'_> {
    fn drop(&mut self) {
        for layer in self.taken..self.layers.len() {
            self.put_back(layer);
        }
        std::mem::swap(&mut lock(&self.cells.streams).streams, self.streams);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ModelConfig {
        ModelConfig::mixtral_8x22b() // small: 8 experts, top-2, 56 layers
    }

    #[test]
    fn selections_conserved() {
        let mut gen = TraceGenerator::new(&config(), WorkloadMix::Fixed(Scenario::Chat), 2, 64, 3);
        let trace = gen.next_iteration();
        for layer in &trace.layers {
            assert_eq!(layer.total_selections(), 2 * 64 * 2);
            assert_eq!(layer.num_groups(), 2);
        }
    }

    #[test]
    fn fixed_mix_weights() {
        let mix = WorkloadMix::Fixed(Scenario::Math);
        assert_eq!(mix.weights(100), vec![(Scenario::Math, 1.0)]);
    }

    #[test]
    fn cycling_weights_normalised_and_drift() {
        let mix = WorkloadMix::mixed(1000.0);
        let w0 = mix.weights(0);
        let w250 = mix.weights(250);
        let sum: f64 = w0.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // After a quarter period the dominant scenario rotates.
        let dom0 = w0
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        let dom250 = w250
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_ne!(dom0, dom250);
    }

    #[test]
    fn cycling_weights_are_smooth() {
        let mix = WorkloadMix::mixed(1000.0);
        for it in 0..100 {
            let a = mix.weights(it);
            let b = mix.weights(it + 1);
            for (x, y) in a.iter().zip(&b) {
                assert!((x.1 - y.1).abs() < 0.02, "jump at iter {it}");
            }
        }
    }

    #[test]
    fn fixed_scenario_loads_stabilise() {
        // Paper Fig. 12: in a fixed scenario the per-expert load *ratios*
        // are stable across iterations (up to sampling noise).
        let mut gen =
            TraceGenerator::new(&config(), WorkloadMix::Fixed(Scenario::Math), 4, 256, 11);
        let a = gen.next_iteration().layers[0].expert_totals();
        let b = gen.next_iteration().layers[0].expert_totals();
        let total: u64 = a.iter().sum();
        for (x, y) in a.iter().zip(&b) {
            let fx = *x as f64 / total as f64;
            let fy = *y as f64 / total as f64;
            assert!((fx - fy).abs() < 0.05);
        }
    }

    #[test]
    fn uniform_gating_balances_expectation() {
        let mut gen =
            TraceGenerator::new(&config(), WorkloadMix::Fixed(Scenario::Math), 4, 256, 11)
                .with_uniform_gating();
        let totals = gen.next_iteration().layers[0].expert_totals();
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        for &t in &totals {
            assert!((t as f64 - mean).abs() < 0.35 * mean, "{t} vs {mean}");
        }
    }

    /// The generator loop without the distribution cache and without
    /// interleaving the groups: every layer's distribution is mixed afresh,
    /// every count vector is new, and each group draws on its own, from its
    /// own stream, through the public one-group sampler.
    fn uncached_iteration(gen: &mut TraceGenerator) -> IterationTrace {
        let weights = gen.mix.weights(gen.iteration);
        let layers = (0..gen.affinity.num_layers())
            .map(|layer| {
                let dist = if gen.uniform {
                    gen.affinity.uniform()
                } else {
                    gen.affinity.mixed_distribution(layer, &weights)
                };
                let counts = gen
                    .streams
                    .iter_mut()
                    .map(|stream| {
                        crate::sample_gating_counts(
                            stream.rng(),
                            &dist,
                            gen.tokens_per_group,
                            gen.top_k,
                        )
                    })
                    .collect();
                LayerGating { counts }
            })
            .collect();
        let trace = IterationTrace {
            iteration: gen.iteration,
            weights,
            layers,
        };
        gen.iteration += 1;
        trace
    }

    /// Reused buffers, cached distributions and cap-repair orders, and the
    /// groups' interleaved chains draw exactly what fresh generation draws
    /// group by group. The cases cover 1–3 tokens per group (on 128
    /// experts nearly every layer repairs), 17–600 tokens (top-8 draws run
    /// the interleaved normal-approximation phase, and groups leave it at
    /// different experts), a short `Cycling` period (the distributions, and
    /// so the orders, change on every call) and uniform gating (every
    /// comparison of the repair sort is a tie broken by index).
    #[test]
    fn next_iteration_into_matches_uncached_generation() {
        let models = [
            config(),
            ModelConfig {
                num_layers: 6,
                num_sparse_layers: 6,
                ..ModelConfig::qwen3_235b() // 128 experts, top-8
            },
        ];
        let mixes = [
            WorkloadMix::Fixed(Scenario::Coding),
            WorkloadMix::Blend(vec![(Scenario::Chat, 1.0), (Scenario::Privacy, 1.0)]),
            WorkloadMix::mixed(7.0),
        ];
        for model in &models {
            for uniform in [false, true] {
                for mix in &mixes {
                    let mk = || {
                        let gen = TraceGenerator::new(model, mix.clone(), 3, 16, 21);
                        if uniform {
                            gen.with_uniform_gating()
                        } else {
                            gen
                        }
                    };
                    let (mut reference, mut fresh, mut reused) = (mk(), mk(), mk());
                    let mut buffer = reused.next_iteration();
                    fresh.next_iteration();
                    uncached_iteration(&mut reference);
                    let mut repaired = 0;
                    // Token counts from 1 (cap repair on most layers) to 600.
                    for (i, tokens) in [1, 64, 3, 1, 17, 2, 600, 5, 2].into_iter().enumerate() {
                        for gen in [&mut reference, &mut fresh, &mut reused] {
                            gen.set_tokens_per_group(tokens);
                        }
                        reused.next_iteration_into(&mut buffer);
                        let expect = uncached_iteration(&mut reference);
                        let case = format!(
                            "{} {mix:?} uniform={uniform} call {i} tokens={tokens}",
                            model.name
                        );
                        assert_eq!(buffer, expect, "{case}: reused buffer");
                        assert_eq!(fresh.next_iteration(), expect, "{case}: fresh trace");
                        // Every cached order is the fresh sort of its
                        // distribution as it is now.
                        let dists = reused.dists.dists.iter().filter_map(OnceLock::get);
                        for (dist, order) in dists.map(|d| (d.probs(), d.order())) {
                            if order.is_empty() {
                                continue;
                            }
                            repaired += 1;
                            let mut sorted: Vec<usize> = (0..dist.len()).collect();
                            sorted.sort_by(|&a, &b| {
                                dist[b].partial_cmp(&dist[a]).unwrap().then(a.cmp(&b))
                            });
                            assert_eq!(order, sorted, "{case}: stale repair order");
                        }
                    }
                    assert!(repaired > 0, "{} {mix:?}: no cap repair ran", model.name);
                }
            }
        }
    }

    /// A shared draw's cells give the serial draw's counts bit for bit,
    /// drawn one by one and handed out as they finish, for 1 to 9 groups,
    /// on a mix whose distributions change every iteration and with few
    /// tokens, so that the shared repair orders are sorted inside the draw.
    /// A cell is drawn only when `mine` picks it, and the streams are moved
    /// back for the next iteration.
    #[test]
    fn shared_cells_match_the_serial_draw() {
        let model = ModelConfig {
            num_layers: 6,
            num_sparse_layers: 6,
            ..ModelConfig::qwen3_235b()
        };
        for groups in [1, 3, 4, 8, 9] {
            let mk = || TraceGenerator::new(&model, WorkloadMix::mixed(3.0), groups, 4, 8);
            let (mut serial, mut shared) = (mk(), mk());
            let (mut expect, mut got) = (serial.next_iteration(), shared.next_iteration());
            for tokens in [3, 200, 1] {
                serial.set_tokens_per_group(tokens);
                shared.set_tokens_per_group(tokens);
                serial.next_iteration_into(&mut expect);
                let (draw, mut outlet) = shared.begin_iteration(&mut got).share();
                for layer in 0..outlet.num_layers() {
                    assert!(!draw.layer_drawn(layer));
                    assert_eq!(draw.draw_free_cell(|l| l != layer), CellDraw::Busy);
                    assert_eq!(draw.draw_free_cell(|l| l == layer), CellDraw::Drawn);
                    assert!(draw.layer_drawn(layer));
                    assert_eq!(outlet.next_layer(), &expect.layers[layer]);
                }
                assert_eq!(draw.draw_free_cell(|_| true), CellDraw::Finished);
                drop(outlet);
                assert_eq!(got, expect, "{groups} groups, {tokens} tokens");
            }
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let mk = || {
            TraceGenerator::new(&config(), WorkloadMix::mixed(500.0), 2, 32, 17).next_iteration()
        };
        assert_eq!(mk(), mk());
    }
}
