//! Iteration-by-iteration expert-selection traces.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

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
        let mut weights = Vec::new();
        self.weights_into(iteration, &mut weights);
        weights
    }

    /// [`WorkloadMix::weights`] written into `out`, reusing its allocation.
    fn weights_into(&self, iteration: u64, out: &mut Vec<(Scenario, f64)>) {
        out.clear();
        match self {
            WorkloadMix::Fixed(s) => out.push((*s, 1.0)),
            WorkloadMix::Blend(weights) => out.extend_from_slice(weights),
            WorkloadMix::Cycling { period, scenarios } => {
                let s = scenarios.len() as f64;
                let phase = iteration as f64 / period;
                out.extend(scenarios.iter().enumerate().map(|(i, &scenario)| {
                    let theta = 2.0 * std::f64::consts::PI * (phase - i as f64 / s);
                    // Raised-cosine bump: smooth, periodic, non-negative.
                    let w = (0.5 + 0.5 * theta.cos()).powi(2);
                    (scenario, w)
                }));
                let total: f64 = out.iter().map(|(_, w)| w).sum();
                for (_, w) in out.iter_mut() {
                    *w /= total;
                }
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
#[derive(Debug)]
pub struct TraceGenerator {
    mix: WorkloadMix,
    tokens_per_group: u32,
    top_k: u32,
    /// One random stream per DP group, with that group's place in a draw.
    streams: Vec<GroupStream<StdRng>>,
    iteration: u64,
    /// The weights of the iteration being drawn.
    weights: Vec<(Scenario, f64)>,
    /// What a draw shares with other threads: behind an `Arc`, so that a
    /// thread taking part in a shared draw ([`LayerSampler::share`]) may
    /// outlive it, and the generator too.
    shared: Arc<SamplerState>,
}

/// A clone gets its own copy of the shared state.
impl Clone for TraceGenerator {
    fn clone(&self) -> Self {
        TraceGenerator {
            mix: self.mix.clone(),
            tokens_per_group: self.tokens_per_group,
            top_k: self.top_k,
            streams: self.streams.clone(),
            iteration: self.iteration,
            weights: self.weights.clone(),
            shared: Arc::new(SamplerState::clone(&self.shared)),
        }
    }
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
            weights: Vec::new(),
            shared: Arc::new(SamplerState {
                affinity: AffinityModel::new(
                    config.num_sparse_layers as usize,
                    config.num_experts as usize,
                    seed,
                ),
                uniform: false,
                dists: OnceLock::new(),
                began: AtomicU64::new(0),
                ahead: Mutex::default(),
                cells: DrawCells::default(),
            }),
        }
    }

    /// Forces perfectly uniform gating probabilities (the balanced-load
    /// ablation used to isolate mapping gains in §VI-B).
    pub fn with_uniform_gating(mut self) -> Self {
        let shared = Arc::make_mut(&mut self.shared);
        shared.uniform = true;
        shared.dists = OnceLock::new();
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
        &self.shared.affinity
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
    /// The per-layer mixed distributions are cached and mixed again only
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

    /// Starts the next iteration: computes its weights, sizes `trace` for
    /// every layer and group and stamps its iteration and weights. It
    /// mixes no distribution: each is mixed for the iteration's weights by
    /// the first draw of its layer that finds it mixed for other weights,
    /// on whichever thread draws it, unless a shared draw's helper mixed
    /// it ahead ([`SharedDraw::mix_ahead`]). Every allocation of an
    /// iteration happens here, on the calling thread (and, on the first
    /// [`LayerSampler::share`], there); the returned [`LayerSampler`] then
    /// draws the counts without allocating, and may share the draw with
    /// other threads. Together the two are
    /// [`TraceGenerator::next_iteration_into`].
    pub fn begin_iteration<'t>(&'t mut self, trace: &'t mut IterationTrace) -> LayerSampler<'t> {
        let iteration = self.iteration;
        self.mix.weights_into(iteration, &mut self.weights);
        self.shared.began.store(iteration, Ordering::Relaxed);
        self.shared.dists(self.weights.len());
        let (num_layers, num_experts) = (
            self.shared.affinity.num_layers(),
            self.shared.affinity.num_experts(),
        );
        trace
            .layers
            .resize_with(num_layers, || LayerGating { counts: Vec::new() });
        for gating in &mut trace.layers {
            gating.counts.resize_with(self.streams.len(), Vec::new);
            for counts in &mut gating.counts {
                counts.resize(num_experts, 0);
            }
        }
        trace.iteration = iteration;
        trace.weights.clone_from(&self.weights);
        self.iteration += 1;
        LayerSampler {
            shared: &mut self.shared,
            mix: &self.mix,
            streams: &mut self.streams,
            weights: &mut self.weights,
            iteration,
            tokens_per_group: self.tokens_per_group,
            top_k: self.top_k,
            layers: &mut trace.layers,
        }
    }
}

/// The part of a generator that a shared draw's threads reach: the
/// affinity model, the cached distributions, the cells of a shared draw,
/// and the next iteration's weights to mix ahead for.
#[derive(Debug)]
struct SamplerState {
    affinity: AffinityModel,
    uniform: bool,
    /// One distribution per layer, or a single one under uniform gating,
    /// made by the first [`TraceGenerator::begin_iteration`].
    dists: OnceLock<Box<[Mutex<LayerDist>]>>,
    /// The iteration the generator began last. A helper mixing ahead
    /// stops once it is past the iteration it mixes for.
    began: AtomicU64,
    /// The iteration after the last shared draw's, and its weights: what
    /// [`SharedDraw::mix_ahead`] mixes for.
    ahead: Mutex<Ahead>,
    cells: DrawCells,
}

#[derive(Debug, Default)]
struct Ahead {
    iteration: u64,
    weights: Vec<(Scenario, f64)>,
}

/// A clone keeps the mixed distributions, with no draw in its cells.
impl Clone for SamplerState {
    fn clone(&self) -> Self {
        let dists = OnceLock::new();
        if let Some(held) = self.dists.get() {
            let _ = dists.set(held.iter().map(|d| Mutex::new(lock(d).clone())).collect());
        }
        SamplerState {
            affinity: self.affinity.clone(),
            uniform: self.uniform,
            dists,
            began: AtomicU64::new(self.began.load(Ordering::Relaxed)),
            ahead: Mutex::default(),
            cells: DrawCells::default(),
        }
    }
}

impl SamplerState {
    /// The cached distributions, made on the first call with room for
    /// every expert and `scenarios` weights, so that mixing them on any
    /// thread allocates nothing.
    fn dists(&self, scenarios: usize) -> &[Mutex<LayerDist>] {
        self.dists.get_or_init(|| {
            let len = if self.uniform {
                1
            } else {
                self.affinity.num_layers()
            };
            let experts = self.affinity.num_experts();
            (0..len)
                .map(|_| {
                    Mutex::new(LayerDist {
                        dist: GatingDist::with_capacity(experts),
                        weights: Vec::with_capacity(scenarios),
                        mixed: false,
                    })
                })
                .collect()
        })
    }

    /// Runs `f` on `layer`'s distribution, mixed for `weights` first if it
    /// is mixed for other weights.
    fn with_dist<R>(
        &self,
        layer: usize,
        weights: &[(Scenario, f64)],
        f: impl FnOnce(&mut GatingDist) -> R,
    ) -> R {
        let (i, weights) = self.slot(layer, weights);
        let mut dist = lock(&self.dists.get().expect("made by begin_iteration")[i]);
        f(dist.refresh(&self.affinity, i, weights))
    }

    /// [`SamplerState::with_dist`] on a thread that holds the state alone,
    /// which takes no lock.
    fn with_dist_alone<R>(
        &mut self,
        layer: usize,
        weights: &[(Scenario, f64)],
        f: impl FnOnce(&mut GatingDist) -> R,
    ) -> R {
        let (i, weights) = self.slot(layer, weights);
        let dists = self.dists.get_mut().expect("made by begin_iteration");
        let dist = dists[i].get_mut().unwrap_or_else(PoisonError::into_inner);
        f(dist.refresh(&self.affinity, i, weights))
    }

    /// Which distribution `layer` draws from, and the weights it is mixed
    /// for (`None` for the uniform one).
    fn slot<'w>(
        &self,
        layer: usize,
        weights: &'w [(Scenario, f64)],
    ) -> (usize, Option<&'w [(Scenario, f64)]>) {
        if self.uniform {
            (0, None)
        } else {
            (layer, Some(weights))
        }
    }
}

/// One layer's cached distribution and the weights it is mixed for.
#[derive(Clone, Debug)]
struct LayerDist {
    dist: GatingDist,
    /// The weights `dist` is mixed for, if `mixed`.
    weights: Vec<(Scenario, f64)>,
    /// Unset until the first mix, and while a mix runs, so that a mix that
    /// panics leaves the layer to be mixed again.
    mixed: bool,
}

impl LayerDist {
    /// The distribution of layer `layer` for `weights` (the uniform one
    /// for `None`), mixed in place unless it already is. Mixing is a pure
    /// function of the layer, the weights and the affinity model, so it
    /// gives the same bits on whichever thread, and at whichever time, it
    /// runs.
    fn refresh(
        &mut self,
        affinity: &AffinityModel,
        layer: usize,
        weights: Option<&[(Scenario, f64)]>,
    ) -> &mut GatingDist {
        // Bitwise, so the cache never hides a change `==` would miss.
        let current = self.mixed
            && weights.is_none_or(|weights| {
                self.weights.len() == weights.len()
                    && self
                        .weights
                        .iter()
                        .zip(weights)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            });
        if !current {
            self.mixed = false;
            let weights = weights.unwrap_or_default();
            // No weights mix to the uniform distribution.
            self.dist
                .set(|probs| affinity.mixed_distribution_into(layer, weights, probs));
            self.weights.clear();
            self.weights.extend_from_slice(weights);
            self.mixed = true;
        }
        &mut self.dist
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
    shared: &'t mut Arc<SamplerState>,
    mix: &'t WorkloadMix,
    streams: &'t mut Vec<GroupStream<StdRng>>,
    weights: &'t mut Vec<(Scenario, f64)>,
    iteration: u64,
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
    pub fn sample(self, chunk: usize, emit: impl FnMut(&'t [LayerGating])) {
        let LayerSampler {
            shared,
            streams,
            weights,
            tokens_per_group,
            top_k,
            layers,
            ..
        } = self;
        // Unless a worker still holds the state (mixing ahead), no other
        // thread can reach a layer's lock, and the draw takes none.
        match Arc::get_mut(shared) {
            Some(state) => draw_runs(layers, chunk, emit, |layer, counts| {
                state.with_dist_alone(layer, weights, |dist| {
                    sample_layer_into(streams, dist, tokens_per_group, top_k, counts)
                })
            }),
            None => draw_runs(layers, chunk, emit, |layer, counts| {
                shared.with_dist(layer, weights, |dist| {
                    sample_layer_into(streams, dist, tokens_per_group, top_k, counts)
                })
            }),
        }
    }

    /// Splits the draw into cells that several threads can draw, and the
    /// outlet the drawn layers come out of, in layer order.
    ///
    /// A cell is one whole layer, and the cells are drawn in layer order,
    /// one thread at a time, because every group's stream is consumed in
    /// that order. So the counts are those of [`LayerSampler::sample`], bit
    /// for bit, whichever thread draws which cell.
    pub fn share(self) -> (SharedDraw, LayerOutlet<'t>) {
        let LayerSampler {
            shared,
            mix,
            streams,
            weights,
            iteration,
            tokens_per_group,
            top_k,
            layers,
        } = self;
        if !shared.uniform {
            let mut ahead = lock(&shared.ahead);
            ahead.iteration = iteration + 1;
            mix.weights_into(iteration + 1, &mut ahead.weights);
        }
        let cells = &shared.cells;
        {
            let mut held = lock(&cells.streams);
            // A thread that panicked drawing the last draw's cell poisoned
            // the lock; its panic reached the caller, and this draw is new.
            cells.streams.clear_poison();
            std::mem::swap(&mut held.streams, streams);
            std::mem::swap(&mut held.weights, weights);
            held.iteration = iteration;
            held.next_layer = 0;
            held.tokens_per_group = tokens_per_group;
            held.top_k = top_k;
            cells.progress.store(0, Ordering::Relaxed);
            cells.abandoned.store(false, Ordering::Relaxed);
            let counts = cells
                .counts
                .get_or_init(|| layers.iter().map(|_| Mutex::default()).collect());
            for (cell, gating) in counts.iter().zip(layers.iter_mut()) {
                std::mem::swap(&mut *lock(cell), &mut gating.counts);
            }
        }
        (
            SharedDraw {
                shared: Arc::clone(shared),
                iteration,
            },
            LayerOutlet {
                shared,
                layers,
                streams,
                weights,
                taken: 0,
            },
        )
    }
}

/// Fills `layers` in layer order, `draw` writing each layer's count
/// vectors, and hands each finished run of `chunk` consecutive layers to
/// `emit`.
fn draw_runs<'t>(
    layers: &'t mut [LayerGating],
    chunk: usize,
    mut emit: impl FnMut(&'t [LayerGating]),
    mut draw: impl FnMut(usize, &mut GroupCounts),
) {
    let mut layer = 0;
    for run in layers.chunks_mut(chunk) {
        for gating in run.iter_mut() {
            draw(layer, &mut gating.counts);
            layer += 1;
        }
        emit(run);
    }
}

/// The cells of a shared draw, kept by the generator across iterations
/// for their buffers. While a draw is shared they hold the generator's
/// streams and weights and the trace's count vectors (one cell a layer);
/// the [`LayerOutlet`] moves them back.
#[derive(Debug, Default)]
struct DrawCells {
    /// The streams and what a cell's draw reads with them. A thread holds
    /// the lock for as long as it draws one cell.
    streams: Mutex<DrawStreams>,
    /// Layers drawn, stored with `Release` after a cell's counts are
    /// written and read with `Acquire` before they are taken (the cell's
    /// lock orders them too).
    progress: AtomicUsize,
    /// Per layer: its count vectors, one per group.
    counts: OnceLock<Box<[Mutex<GroupCounts>]>>,
    /// Set when a thread panics while taking part in the draw, so that no
    /// other waits for a cell it will never draw. Only a flag: `Relaxed`.
    abandoned: AtomicBool,
}

/// A layer's count vectors, one per group.
type GroupCounts = Vec<Vec<u32>>;

#[derive(Debug, Default)]
struct DrawStreams {
    streams: Vec<GroupStream<StdRng>>,
    /// The iteration being drawn, and its weights.
    iteration: u64,
    weights: Vec<(Scenario, f64)>,
    tokens_per_group: u32,
    top_k: u32,
    /// The next layer to draw; the layer count once the draw is over.
    next_layer: usize,
}

/// Locks `mutex`, recovering the guard if a thread panicked holding it.
/// A thread that panics drawing a cell abandoned the draw first, and after
/// that the cells' data is only moved back, never read as counts; a
/// distribution whose mix panicked is marked unmixed.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What [`SharedDraw::draw_free_cell`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellDraw {
    /// It drew a cell.
    Drawn,
    /// It drew nothing: another thread is drawing a cell, or the next cell
    /// is not this thread's.
    Busy,
    /// Every cell is drawn, or the draw was abandoned, or it is over.
    Finished,
}

/// The cells of one iteration's shared draw ([`LayerSampler::share`]),
/// which any number of threads may draw, one cell at a time, each through
/// [`SharedDraw::draw_free_cell`]. It holds the generator's shared state
/// by reference count, so a thread may keep it past the draw (to mix
/// ahead) and past the generator; once the draw is over it draws nothing.
#[derive(Clone, Debug)]
pub struct SharedDraw {
    shared: Arc<SamplerState>,
    iteration: u64,
}

impl SharedDraw {
    /// Draws the next cell, the first layer not drawn yet, if no other
    /// thread is drawing one and `mine` picks it. `mine` takes the cell's
    /// layer.
    pub fn draw_free_cell(&self, mine: impl Fn(usize) -> bool) -> CellDraw {
        let cells = &self.shared.cells;
        if self.abandoned() {
            return CellDraw::Finished;
        }
        let mut held = match cells.streams.try_lock() {
            Ok(held) => held,
            Err(TryLockError::WouldBlock) => return CellDraw::Busy,
            // Its thread abandoned the draw before it released the lock.
            Err(TryLockError::Poisoned(_)) => return CellDraw::Finished,
        };
        let layer = held.next_layer;
        let Some(counts) = cells.counts.get() else {
            return CellDraw::Finished;
        };
        if held.iteration != self.iteration || layer == counts.len() {
            return CellDraw::Finished;
        }
        if !mine(layer) {
            return CellDraw::Busy;
        }
        let mut counts = lock(&counts[layer]);
        // Dropped before the locks: a panicking draw is abandoned before
        // another thread can take the streams.
        let abandon = self.abandon_on_panic();
        let DrawStreams {
            streams,
            weights,
            tokens_per_group,
            top_k,
            next_layer,
            ..
        } = &mut *held;
        self.shared.with_dist(layer, weights, |dist| {
            sample_layer_into(streams, dist, *tokens_per_group, *top_k, &mut counts);
        });
        *next_layer += 1;
        drop(abandon);
        drop(counts);
        cells.progress.store(layer + 1, Ordering::Release);
        CellDraw::Drawn
    }

    /// Whether `layer` is drawn.
    pub fn layer_drawn(&self, layer: usize) -> bool {
        self.shared.cells.progress.load(Ordering::Acquire) > layer
    }

    /// Whether a thread taking part in the draw panicked.
    pub fn abandoned(&self) -> bool {
        self.shared.cells.abandoned.load(Ordering::Relaxed)
    }

    /// A guard that abandons the draw if it is dropped while its thread
    /// panics. Every thread taking part holds one, so that none waits for
    /// ever on a layer a panicked thread would have drawn.
    pub fn abandon_on_panic(&self) -> impl Drop + '_ {
        AbandonOnPanic(&self.shared.cells.abandoned)
    }

    /// Whether this handle holds the generator's state alone: the generator
    /// is gone, and no other handle of its draws is left.
    pub fn generator_gone(&self) -> bool {
        Arc::strong_count(&self.shared) == 1
    }

    /// Mixes every layer's distribution, in layer order, for the weights
    /// of the iteration after this draw's, so that the generator's next
    /// iteration finds them mixed. A layer a draw already mixed for those
    /// weights is skipped. It stops before the next layer once `stop`
    /// says so, once the generator has begun a later iteration or shared
    /// a later draw, or once this draw holds the generator's state alone
    /// (the generator is gone). Under uniform gating there is nothing to
    /// mix. Allocates nothing.
    pub fn mix_ahead(&self, stop: impl Fn() -> bool) {
        let shared = &*self.shared;
        let Some(dists) = shared.dists.get().filter(|_| !shared.uniform) else {
            return;
        };
        let target = self.iteration + 1;
        for (layer, dist) in dists.iter().enumerate() {
            if stop() || self.generator_gone() || shared.began.load(Ordering::Relaxed) > target {
                return;
            }
            let ahead = lock(&shared.ahead);
            if ahead.iteration != target {
                return;
            }
            lock(dist).refresh(&shared.affinity, layer, Some(&ahead.weights));
        }
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
/// back into the trace, and the streams and weights back into the
/// generator, and ends the draw.
pub struct LayerOutlet<'t> {
    shared: &'t SamplerState,
    layers: &'t mut [LayerGating],
    streams: &'t mut Vec<GroupStream<StdRng>>,
    weights: &'t mut Vec<(Scenario, f64)>,
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
            self.shared.cells.progress.load(Ordering::Acquire) > layer,
            "layer {layer} is not drawn yet"
        );
        self.put_back(layer);
        self.taken += 1;
        &self.layers[layer]
    }

    /// Swaps `layer`'s count vectors between its cell and the trace.
    fn put_back(&mut self, layer: usize) {
        let cells = self.shared.cells.counts.get().expect("made by share");
        std::mem::swap(&mut *lock(&cells[layer]), &mut self.layers[layer].counts);
    }
}

impl Drop for LayerOutlet<'_> {
    fn drop(&mut self) {
        for layer in self.taken..self.layers.len() {
            self.put_back(layer);
        }
        let mut held = lock(&self.shared.cells.streams);
        std::mem::swap(&mut held.streams, self.streams);
        std::mem::swap(&mut held.weights, self.weights);
        held.next_layer = self.layers.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

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
        let affinity = &gen.shared.affinity;
        let layers = (0..affinity.num_layers())
            .map(|layer| {
                let dist = if gen.shared.uniform {
                    affinity.uniform()
                } else {
                    affinity.mixed_distribution(layer, &weights)
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
                        let dists = reused.shared.dists.get().unwrap().iter().map(lock);
                        for layer in dists {
                            let (dist, order) = (layer.dist.probs(), layer.dist.order());
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

    /// A helper mixing ahead stops before the next layer once the generator
    /// is dropped: here the generator is dropped while the mix waits in
    /// `stop` after its first layer.
    #[test]
    fn mixing_ahead_stops_once_the_generator_is_gone() {
        let model = ModelConfig {
            num_layers: 6,
            num_sparse_layers: 6,
            ..ModelConfig::qwen3_235b()
        };
        let mut gen = TraceGenerator::new(&model, WorkloadMix::mixed(3.0), 2, 4, 8);
        let mut trace = gen.next_iteration();
        let (draw, outlet) = gen.begin_iteration(&mut trace).share();
        while draw.draw_free_cell(|_| true) == CellDraw::Drawn {}
        drop(outlet);
        let (paused, resume) = (Barrier::new(2), Barrier::new(2));
        let stops = std::thread::scope(|s| {
            let mixer = s.spawn(|| {
                let stops = AtomicUsize::new(0);
                draw.mix_ahead(|| {
                    if stops.fetch_add(1, Ordering::Relaxed) == 1 {
                        paused.wait();
                        resume.wait();
                    }
                    false
                });
                stops.into_inner()
            });
            paused.wait();
            assert!(!draw.generator_gone());
            drop(gen);
            resume.wait();
            mixer.join().expect("the mix does not panic")
        });
        assert!(draw.generator_gone());
        assert_eq!(stops, 2, "asked before layers 0 and 1, then stopped");
        let ahead = lock(&draw.shared.ahead).weights.clone();
        let dists = draw.shared.dists.get().expect("made by begin_iteration");
        let mixed_for_ahead = |layer: usize| {
            let dist = lock(&dists[layer]);
            dist.mixed && dist.weights == ahead
        };
        assert!(mixed_for_ahead(0));
        assert!((1..dists.len()).all(|layer| !mixed_for_ahead(layer)));
    }

    /// The serial draw locks each layer only while another handle (a
    /// worker's last shared draw) holds the generator's state, and draws
    /// the same counts with the locks as without them.
    #[test]
    fn serial_draw_matches_while_a_shared_draw_is_held() {
        let model = ModelConfig {
            num_layers: 6,
            num_sparse_layers: 6,
            ..ModelConfig::qwen3_235b()
        };
        let mk = || TraceGenerator::new(&model, WorkloadMix::mixed(3.0), 3, 16, 8);
        let (mut alone, mut held) = (mk(), mk());
        let mut trace = held.next_iteration();
        let (draw, outlet) = held.begin_iteration(&mut trace).share();
        while draw.draw_free_cell(|_| true) == CellDraw::Drawn {}
        drop(outlet);
        alone.next_iteration();
        assert_eq!(alone.next_iteration(), trace);
        for _ in 0..4 {
            assert!(Arc::get_mut(&mut held.shared).is_none());
            assert_eq!(held.next_iteration(), alone.next_iteration());
        }
        drop(draw);
        assert!(Arc::get_mut(&mut held.shared).is_some());
        assert_eq!(held.next_iteration(), alone.next_iteration());
    }

    #[test]
    fn trace_is_deterministic() {
        let mk = || {
            TraceGenerator::new(&config(), WorkloadMix::mixed(500.0), 2, 32, 17).next_iteration()
        };
        assert_eq!(mk(), mk());
    }
}
