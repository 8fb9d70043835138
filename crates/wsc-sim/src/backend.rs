//! Pluggable congestion-pricing backends.
//!
//! Everything above this crate prices communication through the object-safe
//! [`CongestionModel`] trait rather than a hard-wired estimator, so any
//! experiment can trade fidelity for speed with a configuration knob
//! (see `EngineConfig::backend` in `moentwine-core` and DESIGN.md §5).
//! Three tiers form the fidelity ladder:
//!
//! * [`AnalyticModel`] — the closed-form bottleneck
//!   estimator; `O(flows × hops)`, exact for phase-synchronous
//!   single-bottleneck schedules, conservative otherwise.
//! * [`CachedBackend`] over [`FlowSimBackend`] (the `flow-sim-cached` knob)
//!   — full DES fidelity with memoization of full estimates on a
//!   canonicalized schedule shape, for callers whose schedules repeat. The
//!   engine's per-step all-to-all (sampled, so it never repeats) goes
//!   through the unmemoised time-only path.
//! * [`FlowSimBackend`] — uncached flow-level discrete-event simulation,
//!   modelling flows completing at different times and freeing bandwidth.
//!   Every call re-simulates: a flow set or pair list on a fresh
//!   [`NetworkSim`], a route set on the caller's reused [`RouteSetSim`]
//!   (the same event loop, with the routes registered once).
//!
//! All three return the same [`AnalyticEstimate`] shape, so callers compose
//! and report results identically regardless of fidelity, and the cached
//! tier is bit-identical to uncached flow-sim on equal schedules.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use wsc_topology::{DeviceId, LinkId, RouteTable, Topology};

use crate::analytic::{estimate_paths, AnalyticEstimate, AnalyticModel};
use crate::flow::{routed_bytes, FlowSpec, RoutedTransfer};
use crate::network::{NetworkSim, RunResult};
use crate::route_set::RouteSetSim;
use crate::schedule::FlowSchedule;

/// Backend selection knob: which [`CongestionModel`] implementation an
/// experiment uses. Carried by configuration structs (plain data, `Copy`)
/// and materialized with [`CongestionBackend::build`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum CongestionBackend {
    /// Closed-form bottleneck estimation ([`AnalyticModel`]); the default.
    #[default]
    Analytic,
    /// Flow-level discrete-event simulation ([`FlowSimBackend`]).
    FlowSim,
    /// Flow-level DES behind a memoizing schedule cache ([`CachedBackend`]):
    /// identical estimates to [`CongestionBackend::FlowSim`]. Full estimates
    /// are priced once per distinct schedule shape; the time-only
    /// [`CongestionModel::price_pairs_time`] and
    /// [`CongestionModel::price_route_set_time`], which the engine prices its
    /// sampled per-step all-to-all through, are not memoised, because
    /// sampled shapes do not repeat. An engine on this tier therefore runs
    /// the DES on every stride layer, as [`CongestionBackend::FlowSim`]
    /// does.
    FlowSimCached,
}

impl CongestionBackend {
    /// Stable lowercase name (`"analytic"` / `"flow-sim"` /
    /// `"flow-sim-cached"`), matching [`CongestionModel::name`] and the
    /// `FromStr` spelling.
    pub fn name(self) -> &'static str {
        match self {
            CongestionBackend::Analytic => "analytic",
            CongestionBackend::FlowSim => "flow-sim",
            CongestionBackend::FlowSimCached => "flow-sim-cached",
        }
    }

    /// Materializes the backend over `topo` (cached tier at
    /// [`DEFAULT_CACHE_ENTRIES`] capacity).
    pub fn build(self, topo: &Topology) -> Box<dyn CongestionModel + '_> {
        self.build_with_cache_capacity(topo, DEFAULT_CACHE_ENTRIES)
    }

    /// Materializes the backend over `topo`, bounding the memoizing tier's
    /// schedule cache at `cache_entries` estimates. The capacity only
    /// affects [`CongestionBackend::FlowSimCached`]; the stateless tiers
    /// ignore it. Threaded from `EngineConfig::cache_entries` so engine
    /// sweeps can size the cache to their schedule diversity.
    ///
    /// # Panics
    ///
    /// Panics if `cache_entries` is zero and the cached tier is selected.
    pub fn build_with_cache_capacity(
        self,
        topo: &Topology,
        cache_entries: usize,
    ) -> Box<dyn CongestionModel + '_> {
        match self {
            CongestionBackend::Analytic => Box::new(AnalyticModel::new(topo)),
            CongestionBackend::FlowSim => Box::new(FlowSimBackend::new(topo)),
            CongestionBackend::FlowSimCached => Box::new(CachedBackend::with_capacity_limit(
                Box::new(FlowSimBackend::new(topo)),
                cache_entries,
            )),
        }
    }

    /// Every backend, for sweep-style experiments.
    pub fn all() -> [CongestionBackend; 3] {
        [
            CongestionBackend::Analytic,
            CongestionBackend::FlowSim,
            CongestionBackend::FlowSimCached,
        ]
    }
}

impl std::str::FromStr for CongestionBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytic" => Ok(CongestionBackend::Analytic),
            "flow-sim" | "flowsim" | "des" => Ok(CongestionBackend::FlowSim),
            "flow-sim-cached" | "flowsim-cached" | "cached-des" => {
                Ok(CongestionBackend::FlowSimCached)
            }
            other => Err(format!(
                "unknown congestion backend {other:?} (expected \"analytic\", \
                 \"flow-sim\", or \"flow-sim-cached\")"
            )),
        }
    }
}

impl std::fmt::Display for CongestionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Object-safe communication-pricing interface.
///
/// A backend prices concurrent flow sets, point-to-point transfer lists, and
/// phased [`FlowSchedule`]s into [`AnalyticEstimate`]-shaped results. The
/// estimate's `total_time` is the quantity of record; the decomposition into
/// `serialization_time` + `latency_time` is exact for the analytic backend
/// and derived (total minus longest route latency) for simulation backends.
///
/// `Send` is a supertrait so that an engine owning a backend can be moved
/// across threads: the fleet layer steps independent replica engines from a
/// worker pool (see `moentwine_core::fleet`). Backends need no `Sync` —
/// each engine owns its own instance.
pub trait CongestionModel: Send {
    /// Stable backend name for reports (`"analytic"`, `"flow-sim"`,
    /// `"flow-sim-cached"`).
    fn name(&self) -> &'static str;

    /// The topology being priced.
    fn topology(&self) -> &Topology;

    /// Prices a set of concurrent flows starting together.
    fn price_flows(&self, flows: &[FlowSpec]) -> AnalyticEstimate;

    /// Prices concurrent point-to-point transfers routed through `table`.
    /// Non-positive-byte entries are ignored.
    fn price_pairs(
        &self,
        table: &RouteTable,
        pairs: &[(DeviceId, DeviceId, f64)],
    ) -> AnalyticEstimate;

    /// The `total_time` of [`CongestionModel::price_pairs`], bit for bit.
    /// Callers that need only the time use this so a backend can skip
    /// building the full estimate; the default prices the full estimate.
    fn price_pairs_time(&self, table: &RouteTable, pairs: &[(DeviceId, DeviceId, f64)]) -> f64 {
        self.price_pairs(table, pairs).total_time
    }

    /// The [`CongestionModel::price_pairs_time`] of the pair list a route
    /// set stands for (see [`RoutedTransfer`]), bit for bit, priced
    /// straight from the precomputed routes: no pair list, no route-table
    /// lookup.
    ///
    /// `sim` is the caller's slot for this route set's simulator: a
    /// simulating backend builds it on the first call and reuses it on
    /// every later one, so the caller must pass a slot only ever with the
    /// same `routes` (a fresh `&mut None` prices the set once). The
    /// analytic tier ignores it.
    ///
    /// # Panics
    ///
    /// Panics if a transfer's `index` is out of `volume`'s bounds.
    fn price_route_set_time(
        &self,
        routes: &[RoutedTransfer<'_>],
        sim: &mut Option<RouteSetSim>,
        volume: &[f64],
    ) -> f64;

    /// Prices a phased schedule; phases are barrier-separated, so their
    /// estimates compose sequentially.
    fn price_schedule(&self, schedule: &FlowSchedule) -> AnalyticEstimate {
        compose_schedule(self, schedule)
    }
}

/// The canonical phase-by-phase schedule composition every backend shares:
/// skip empty phases, price each phase as a concurrent flow set, chain with
/// [`AnalyticEstimate::then`]. Kept as one function so fidelity tiers can
/// never drift apart in how they fold phases (the cached tier's bit-identity
/// contract depends on it).
fn compose_schedule<M: CongestionModel + ?Sized>(
    model: &M,
    schedule: &FlowSchedule,
) -> AnalyticEstimate {
    let mut total = AnalyticEstimate::empty(model.topology().num_links());
    for phase in schedule.phases() {
        if phase.flows.is_empty() {
            continue;
        }
        let phase_est = model.price_flows(&phase.flows);
        total = total.then(&phase_est);
    }
    total
}

impl CongestionModel for AnalyticModel<'_> {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn topology(&self) -> &Topology {
        AnalyticModel::topology(self)
    }

    fn price_flows(&self, flows: &[FlowSpec]) -> AnalyticEstimate {
        estimate_paths(self.topology(), flow_paths(flows))
    }

    fn price_pairs(
        &self,
        table: &RouteTable,
        pairs: &[(DeviceId, DeviceId, f64)],
    ) -> AnalyticEstimate {
        estimate_paths(self.topology(), pair_paths(table, pairs))
    }

    fn price_pairs_time(&self, table: &RouteTable, pairs: &[(DeviceId, DeviceId, f64)]) -> f64 {
        let topo = self.topology();
        self.routes_total_time(
            pair_paths(table, pairs)
                .map(|(bytes, links)| (bytes, RoutedTransfer::new(topo, 0, 1.0, links))),
        )
    }

    fn price_route_set_time(
        &self,
        routes: &[RoutedTransfer<'_>],
        _sim: &mut Option<RouteSetSim>,
        volume: &[f64],
    ) -> f64 {
        self.routes_total_time(routed_bytes(routes, volume))
    }
}

/// Full-fidelity pricing backend wrapping the discrete-event [`NetworkSim`].
///
/// Each pricing call runs a fresh simulation (the simulator itself is
/// stateless across runs) over the incremental fair-share allocator,
/// except a route-set call, which runs on the caller's [`RouteSetSim`]. Routes
/// are borrowed — from the flows themselves or from the caller's shared CSR
/// [`RouteTable`] — so pricing allocates no per-flow route storage. Only
/// the time comes from the simulation: a full estimate takes its latency,
/// bytes, hops and per-link volumes from the analytic tier's walk (they do
/// not depend on how flows share bandwidth), carries the simulated
/// completion time as `total_time`, and derives `serialization_time` as
/// `total_time − latency_time` so that existing consumers of the analytic
/// decomposition keep working.
///
/// # Example
///
/// ```
/// use wsc_topology::{Mesh, PlatformParams};
/// use wsc_sim::{CongestionModel, FlowSimBackend, FlowSpec};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let a = topo.device_at_xy(0, 0).unwrap();
/// let b = topo.device_at_xy(1, 0).unwrap();
/// let backend = FlowSimBackend::new(&topo);
/// let est = backend.price_flows(&[FlowSpec::new(topo.route(a, b), 4.0e9)]);
/// let expect = 4.0e9 / 4.0e12 + 50e-9;
/// assert!((est.total_time - expect).abs() / expect < 1e-9);
/// ```
#[derive(Debug)]
pub struct FlowSimBackend<'a> {
    topo: &'a Topology,
}

impl<'a> FlowSimBackend<'a> {
    /// Creates a backend simulating over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        FlowSimBackend { topo }
    }

    /// Simulates `paths`, which yields `(bytes, route links)` for every
    /// flow, all starting at time zero.
    fn run<'r>(&self, paths: impl Iterator<Item = (f64, &'r [LinkId])>) -> RunResult {
        NetworkSim::new(self.topo).run_paths(paths.map(|(bytes, links)| (0.0, bytes, links)))
    }

    /// The full estimate of `paths`: the analytic walk's latency, bytes,
    /// hops and link volumes, with the simulated completion time as
    /// `total_time`.
    fn price_paths<'r>(
        &self,
        paths: impl Iterator<Item = (f64, &'r [LinkId])> + Clone,
    ) -> AnalyticEstimate {
        let total_time = self.run(paths.clone()).total_time;
        let mut est = estimate_paths(self.topo, paths);
        est.serialization_time = (total_time - est.latency_time).max(0.0);
        est.latency_time = est.latency_time.min(total_time);
        est.total_time = total_time;
        est
    }
}

impl CongestionModel for FlowSimBackend<'_> {
    fn name(&self) -> &'static str {
        "flow-sim"
    }

    fn topology(&self) -> &Topology {
        self.topo
    }

    fn price_flows(&self, flows: &[FlowSpec]) -> AnalyticEstimate {
        self.price_paths(flow_paths(flows))
    }

    fn price_pairs(
        &self,
        table: &RouteTable,
        pairs: &[(DeviceId, DeviceId, f64)],
    ) -> AnalyticEstimate {
        self.price_paths(pair_paths(table, pairs))
    }

    /// Time-only: the simulated completion time, with no second pass over
    /// the paths for the estimate's latency, byte and hop fields.
    fn price_pairs_time(&self, table: &RouteTable, pairs: &[(DeviceId, DeviceId, f64)]) -> f64 {
        self.run(pair_paths(table, pairs)).total_time
    }

    fn price_route_set_time(
        &self,
        routes: &[RoutedTransfer<'_>],
        sim: &mut Option<RouteSetSim>,
        volume: &[f64],
    ) -> f64 {
        let sim = sim.get_or_insert_with(|| RouteSetSim::new(self.topo, routes));
        debug_assert_eq!(sim.len(), routes.len(), "a slot serves one route set");
        sim.run(volume)
    }
}

/// The `(bytes, route links)` of every flow in `flows`.
fn flow_paths(flows: &[FlowSpec]) -> impl Iterator<Item = (f64, &[LinkId])> + Clone {
    flows.iter().map(|f| (f.bytes, f.route.links()))
}

/// The `(bytes, route links)` of the positive-byte transfers in `pairs`.
fn pair_paths<'r>(
    table: &'r RouteTable,
    pairs: &'r [(DeviceId, DeviceId, f64)],
) -> impl Iterator<Item = (f64, &'r [LinkId])> + Clone {
    pairs
        .iter()
        .filter(|&&(_, _, bytes)| bytes > 0.0)
        .map(|&(src, dst, bytes)| (bytes, table.route(src, dst).links()))
}

/// Canonical shape of a pricing request — the memoization key of
/// [`CachedBackend`]. Flow order within a phase is immaterial to the
/// simulated outcome, so the per-phase `(route, bytes)` multiset is stored
/// sorted and permutations share a cache entry; phase structure (barriers)
/// is preserved.
///
/// The two entry-point families keep distinct representations so key
/// construction stays allocation-light on each hot path:
///
/// * flow sets / schedules — a flat CSR of phases → flows → route links
///   plus per-flow payload bit patterns (a handful of allocations total,
///   not one per flow);
/// * transfer-pair lists — sorted `(src, dst, bytes)` triples, skipping
///   route expansion entirely (routing is deterministic per topology, so
///   the endpoints already determine the links).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ScheduleShape(ShapeRepr);

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ShapeRepr {
    /// Sorted `((src << 32) | dst, bytes bit pattern)` triples.
    Pairs(Box<[(u64, u64)]>),
    /// Flat sorted-per-phase CSR over flows and their route links.
    Phases {
        /// `phase_offsets[p]..phase_offsets[p + 1]` indexes the phase's
        /// flows.
        phase_offsets: Box<[u32]>,
        /// `flow_offsets[f]..flow_offsets[f + 1]` indexes the flow's links.
        flow_offsets: Box<[u32]>,
        /// Concatenated route link indices.
        links: Box<[u32]>,
        /// Per-flow payload bit patterns.
        bytes_bits: Box<[u64]>,
    },
}

impl ScheduleShape {
    /// Canonicalizes phases of `(route links, bytes)` flows into the flat
    /// CSR representation, sorting each phase's flows.
    fn of_phase_iter<'r>(phases: impl Iterator<Item = &'r [FlowSpec]>) -> Self {
        let mut phase_offsets: Vec<u32> = vec![0];
        let mut flow_offsets: Vec<u32> = vec![0];
        let mut links: Vec<u32> = Vec::new();
        let mut bytes_bits: Vec<u64> = Vec::new();
        let mut order: Vec<u32> = Vec::new();
        for flows in phases {
            order.clear();
            order.extend(0..flows.len() as u32);
            order.sort_unstable_by(|&a, &b| {
                let (fa, fb) = (&flows[a as usize], &flows[b as usize]);
                fa.route
                    .links()
                    .cmp(fb.route.links())
                    .then(fa.bytes.to_bits().cmp(&fb.bytes.to_bits()))
            });
            for &i in &order {
                let f = &flows[i as usize];
                links.extend(f.route.links().iter().map(|l| l.0));
                flow_offsets.push(links.len() as u32);
                bytes_bits.push(f.bytes.to_bits());
            }
            phase_offsets.push(bytes_bits.len() as u32);
        }
        ScheduleShape(ShapeRepr::Phases {
            phase_offsets: phase_offsets.into_boxed_slice(),
            flow_offsets: flow_offsets.into_boxed_slice(),
            links: links.into_boxed_slice(),
            bytes_bits: bytes_bits.into_boxed_slice(),
        })
    }

    /// Canonicalizes a concurrent flow set (one phase).
    pub fn of_flows(flows: &[FlowSpec]) -> Self {
        Self::of_phase_iter(std::iter::once(flows))
    }

    /// Canonicalizes a transfer-pair list (non-positive-byte entries are
    /// dropped, as in pricing). Routes are not expanded: deterministic
    /// routing makes the endpoint pair an exact proxy for the route, so
    /// this is the cheapest key on the engine's per-layer hot path.
    pub fn of_pairs(pairs: &[(DeviceId, DeviceId, f64)]) -> Self {
        let mut triples: Vec<(u64, u64)> = pairs
            .iter()
            .filter(|&&(_, _, bytes)| bytes > 0.0)
            .map(|&(src, dst, bytes)| (((src.0 as u64) << 32) | dst.0 as u64, bytes.to_bits()))
            .collect();
        triples.sort_unstable();
        ScheduleShape(ShapeRepr::Pairs(triples.into_boxed_slice()))
    }

    /// Canonicalizes a phased schedule (empty phases are dropped, matching
    /// the default [`CongestionModel::price_schedule`] composition).
    pub fn of_schedule(schedule: &FlowSchedule) -> Self {
        Self::of_phase_iter(
            schedule
                .phases()
                .iter()
                .filter(|p| !p.flows.is_empty())
                .map(|p| p.flows.as_slice()),
        )
    }

    /// Number of phases in the canonical shape (1 for pair lists).
    pub fn num_phases(&self) -> usize {
        match &self.0 {
            ShapeRepr::Pairs(_) => 1,
            ShapeRepr::Phases { phase_offsets, .. } => phase_offsets.len() - 1,
        }
    }
}

/// Cache hit/miss counters of a [`CachedBackend`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Pricing calls answered from the cache.
    pub hits: u64,
    /// Pricing calls that ran the inner backend.
    pub misses: u64,
    /// Distinct schedule shapes currently stored.
    pub entries: usize,
}

/// Memoizing decorator over any [`CongestionModel`]: full estimates
/// ([`CongestionModel::price_flows`], [`CongestionModel::price_pairs`],
/// [`CongestionModel::price_schedule`]) are cached under the canonicalized
/// [`ScheduleShape`] of each request, so a repeated schedule is simulated
/// once and replayed from the cache.
///
/// Only repeated shapes pay off. Sampled gating gives every engine step a
/// new `(src, dst, bytes)` shape, so the time-only
/// [`CongestionModel::price_pairs_time`] and
/// [`CongestionModel::price_route_set_time`] the engine prices its all-to-all
/// through go straight to the inner backend: no key, no lookup, no
/// stored estimate. Before that bypass the cache answered 0 of 14,100
/// pricings in the `wafer_ni_balance` benchmark replay, 5 of 3,207 on the
/// `flow-sim-cached` golden trace and 148 of 44,898 in one
/// `router_compare --quick` run. Almost every hit was a repeated phase of
/// the all-reduce schedule an engine prices once at construction; the
/// all-to-all itself hit 0 of 3,200 on the golden trace and 78 of 44,800
/// in `router_compare`.
///
/// Correctness rests on the inner backend being a pure function of the
/// priced traffic (both shipped backends are): a cached result is the inner
/// backend's own estimate for the first schedule of that shape, hence
/// bit-identical to pricing without the cache.
///
/// # Example
///
/// ```
/// use wsc_topology::{Mesh, PlatformParams};
/// use wsc_sim::{CachedBackend, CongestionBackend, CongestionModel, FlowSpec};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let a = topo.device_at_xy(0, 0).unwrap();
/// let b = topo.device_at_xy(1, 0).unwrap();
/// let cached = CongestionBackend::FlowSimCached.build(&topo);
/// let flows = vec![FlowSpec::new(topo.route(a, b), 4.0e9)];
/// let first = cached.price_flows(&flows);
/// let replay = cached.price_flows(&flows); // cache hit: no simulation
/// assert_eq!(first, replay);
/// ```
pub struct CachedBackend<'a> {
    inner: Box<dyn CongestionModel + 'a>,
    cache: RefCell<HashMap<ScheduleShape, AnalyticEstimate>>,
    /// Entry bound: each entry holds an `O(num_links)` volume vector plus
    /// its key, so an unbounded map would grow linearly on workloads whose
    /// shapes never repeat (e.g. sampled gating varying every iteration).
    /// When full, the whole map is dropped — repeating shapes re-fill it in
    /// one round, non-repeating workloads stay bounded.
    max_entries: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Default [`CachedBackend`] entry bound: room for every distinct repeated
/// schedule (collectives, migration transfer lists, fixed-batch layer
/// schedules) while capping the memory that never-repeating full-estimate
/// shapes can take. The engine's time-only all-to-all pricing stores no
/// entries at all.
pub const DEFAULT_CACHE_ENTRIES: usize = 4096;

impl<'a> CachedBackend<'a> {
    /// Wraps `inner` with a fresh cache bounded at
    /// [`DEFAULT_CACHE_ENTRIES`] entries.
    pub fn new(inner: Box<dyn CongestionModel + 'a>) -> Self {
        Self::with_capacity_limit(inner, DEFAULT_CACHE_ENTRIES)
    }

    /// Wraps `inner` with a cache holding at most `max_entries` estimates
    /// (the map is cleared when the bound is hit).
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn with_capacity_limit(inner: Box<dyn CongestionModel + 'a>, max_entries: usize) -> Self {
        assert!(max_entries > 0, "cache must hold at least one entry");
        CachedBackend {
            inner,
            cache: RefCell::new(HashMap::new()),
            max_entries,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Current hit/miss/entry counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.cache.borrow().len(),
        }
    }

    /// Drops every cached estimate (e.g. after mutating link capacities of a
    /// shared topology, which the shape key cannot see).
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Looks up `shape`, running `compute` on a miss.
    fn memoize(
        &self,
        shape: ScheduleShape,
        compute: impl FnOnce() -> AnalyticEstimate,
    ) -> AnalyticEstimate {
        if let Some(est) = self.cache.borrow().get(&shape) {
            self.hits.set(self.hits.get() + 1);
            return est.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let est = compute();
        let mut cache = self.cache.borrow_mut();
        if cache.len() >= self.max_entries {
            cache.clear();
        }
        cache.insert(shape, est.clone());
        est
    }
}

impl std::fmt::Debug for CachedBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedBackend")
            .field("inner", &self.inner.name())
            .field("stats", &self.cache_stats())
            .finish()
    }
}

impl CongestionModel for CachedBackend<'_> {
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "flow-sim" => "flow-sim-cached",
            "analytic" => "analytic-cached",
            _ => "cached",
        }
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn price_flows(&self, flows: &[FlowSpec]) -> AnalyticEstimate {
        self.memoize(ScheduleShape::of_flows(flows), || {
            self.inner.price_flows(flows)
        })
    }

    fn price_pairs(
        &self,
        table: &RouteTable,
        pairs: &[(DeviceId, DeviceId, f64)],
    ) -> AnalyticEstimate {
        // Pair keys rely on deterministic routing: `table` must cover this
        // backend's topology (as `price_pairs` already requires), so the
        // endpoint pair fully determines the route.
        debug_assert_eq!(table.num_devices(), self.topology().num_devices());
        self.memoize(ScheduleShape::of_pairs(pairs), || {
            self.inner.price_pairs(table, pairs)
        })
    }

    /// Not memoised: the engine prices each step's sampled all-to-all here,
    /// and those shapes do not repeat, so a key, a lookup and a stored
    /// `O(links)` estimate per call would buy nothing.
    fn price_pairs_time(&self, table: &RouteTable, pairs: &[(DeviceId, DeviceId, f64)]) -> f64 {
        self.inner.price_pairs_time(table, pairs)
    }

    /// Not memoised, for the reason [`CongestionModel::price_pairs_time`]
    /// is not, and forwarded, so the inner tier keeps its route-set
    /// simulator.
    fn price_route_set_time(
        &self,
        routes: &[RoutedTransfer<'_>],
        sim: &mut Option<RouteSetSim>,
        volume: &[f64],
    ) -> f64 {
        self.inner.price_route_set_time(routes, sim, volume)
    }

    fn price_schedule(&self, schedule: &FlowSchedule) -> AnalyticEstimate {
        // Memoize the whole composed schedule; per-phase estimates land in
        // the cache too (`compose_schedule` goes through `price_flows`), so
        // partially overlapping schedules still share work.
        self.memoize(ScheduleShape::of_schedule(schedule), || {
            compose_schedule(self, schedule)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wsc_topology::{Mesh, PlatformParams};

    fn mesh(n: u16) -> Topology {
        Mesh::new(n, PlatformParams::dojo_like()).build()
    }

    /// Random `(src, dst, bytes)` transfers on `topo` of one of four kinds:
    /// mixed (some local, some zero-byte), all local, all zero-byte, or
    /// empty.
    fn random_pairs(rng: &mut StdRng, topo: &Topology) -> Vec<(DeviceId, DeviceId, f64)> {
        let n = topo.num_devices() as u32;
        let kind = rng.gen_range(0..4);
        let len = if kind == 3 {
            0
        } else {
            rng.gen_range(1usize..24)
        };
        (0..len)
            .map(|_| {
                let src = DeviceId(rng.gen_range(0..n));
                let dst = if kind == 1 || rng.gen_range(0..6) == 0 {
                    src
                } else {
                    DeviceId(rng.gen_range(0..n))
                };
                let bytes = if kind == 2 || rng.gen_range(0..6) == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0e3..1.0e8)
                };
                (src, dst, bytes)
            })
            .collect()
    }

    fn flows_of(topo: &Topology, pairs: &[(DeviceId, DeviceId, f64)]) -> Vec<FlowSpec> {
        pairs
            .iter()
            .map(|&(s, d, bytes)| FlowSpec::new(topo.route(s, d), bytes))
            .collect()
    }

    proptest! {
        /// Each pricing question has one body. The flow-sim tier's full
        /// estimate differs from the analytic tier's only in its times,
        /// and on every tier the time-only pair price is the full
        /// estimate's time and a schedule is the in-order sum of its
        /// phases' flow-set prices, bit for bit.
        #[test]
        fn pricing_questions_have_one_body(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = mesh(4);
            let table = RouteTable::build(&topo);
            let analytic = AnalyticModel::new(&topo);
            let des = FlowSimBackend::new(&topo);
            let pairs = random_pairs(&mut rng, &topo);
            let flows = flows_of(&topo, &pairs);
            for (a, d) in [
                (analytic.price_flows(&flows), des.price_flows(&flows)),
                (analytic.price_pairs(&table, &pairs), des.price_pairs(&table, &pairs)),
            ] {
                prop_assert_eq!(a.latency_time.to_bits(), d.latency_time.to_bits());
                prop_assert_eq!(a.total_bytes.to_bits(), d.total_bytes.to_bits());
                prop_assert_eq!(a.max_hops, d.max_hops);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&a.link_volume), bits(&d.link_volume));
            }

            let mut sched = FlowSchedule::new();
            for p in 0..rng.gen_range(0..4) {
                let phase = random_pairs(&mut rng, &topo);
                sched.push_phase(format!("p{p}"), flows_of(&topo, &phase));
            }
            for kind in CongestionBackend::all() {
                let backend = kind.build(&topo);
                prop_assert_eq!(
                    backend.price_pairs_time(&table, &pairs).to_bits(),
                    backend.price_pairs(&table, &pairs).total_time.to_bits(),
                    "{}",
                    kind
                );
                let total = backend.price_schedule(&sched).total_time;
                let mut sum = 0.0;
                for phase in sched.phases() {
                    sum += backend.price_flows(&phase.flows).total_time;
                }
                prop_assert_eq!(total.to_bits(), sum.to_bits(), "{}", kind);
            }
        }
    }

    /// Satellite contract: on a contention-free single-flow schedule all
    /// backends agree within tolerance.
    #[test]
    fn backends_agree_on_contention_free_single_flow() {
        let topo = mesh(4);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(3, 2).unwrap();
        let mut sched = FlowSchedule::new();
        sched.push_phase("only", vec![FlowSpec::new(topo.route(a, b), 16.0e6)]);
        let estimates: Vec<AnalyticEstimate> = CongestionBackend::all()
            .iter()
            .map(|kind| kind.build(&topo).price_schedule(&sched))
            .collect();
        let (analytic, des, cached) = (&estimates[0], &estimates[1], &estimates[2]);
        assert!(analytic.total_time > 0.0);
        assert!(
            (analytic.total_time - des.total_time).abs() / des.total_time < 1e-9,
            "analytic {} vs DES {}",
            analytic.total_time,
            des.total_time
        );
        assert_eq!(analytic.max_hops, des.max_hops);
        assert!((analytic.total_bytes - des.total_bytes).abs() < 1e-6);
        assert_eq!(des, cached, "cached DES must be bit-identical to DES");
    }

    /// Satellite contract: under link contention with staggered activation
    /// the backends diverge in the expected direction — the DES exploits
    /// early-finishing flows, so it lands strictly below the conservative
    /// analytic total but never below the analytic serialization bound.
    #[test]
    fn backends_diverge_as_expected_under_contention() {
        let topo = mesh(4);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(2, 0).unwrap();
        // Both flows contend on link a→b; the second continues one more hop,
        // so the analytic latency term charges the longer route to both.
        let flows = vec![
            FlowSpec::new(topo.route(a, b), 1.0e6),
            FlowSpec::new(topo.route(a, c), 1.0e6),
        ];
        let analytic = AnalyticModel::new(&topo).price_flows(&flows);
        let des = FlowSimBackend::new(&topo).price_flows(&flows);
        assert!(
            des.total_time < analytic.total_time,
            "DES {} should undercut the conservative analytic bound {}",
            des.total_time,
            analytic.total_time
        );
        assert!(
            des.total_time >= analytic.serialization_time,
            "DES {} cannot beat the bottleneck serialization bound {}",
            des.total_time,
            analytic.serialization_time
        );
        // Same traffic either way.
        for (av, dv) in analytic.link_volume.iter().zip(&des.link_volume) {
            assert!((av - dv).abs() < 1.0, "link volume mismatch: {av} vs {dv}");
        }
    }

    #[test]
    fn price_pairs_matches_price_flows_on_all_backends() {
        let topo = mesh(4);
        let table = RouteTable::build(&topo);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(2, 1).unwrap();
        let pairs = vec![(a, b, 3.0e6), (b, a, 1.0e6), (a, a, 5.0e6), (b, a, 0.0)];
        for kind in CongestionBackend::all() {
            let backend = kind.build(&topo);
            let from_pairs = backend.price_pairs(&table, &pairs);
            let flows: Vec<FlowSpec> = pairs
                .iter()
                .filter(|&&(_, _, bytes)| bytes > 0.0)
                .map(|&(s, d, bytes)| FlowSpec::new(table.route(s, d).to_route(), bytes))
                .collect();
            let from_flows = backend.price_flows(&flows);
            assert!(
                (from_pairs.total_time - from_flows.total_time).abs() < 1e-12,
                "{kind}: {} vs {}",
                from_pairs.total_time,
                from_flows.total_time
            );
        }
    }

    #[test]
    fn backend_knob_parses_and_prints() {
        assert_eq!("analytic".parse(), Ok(CongestionBackend::Analytic));
        assert_eq!("flow-sim".parse(), Ok(CongestionBackend::FlowSim));
        assert_eq!("des".parse(), Ok(CongestionBackend::FlowSim));
        assert_eq!(
            "flow-sim-cached".parse(),
            Ok(CongestionBackend::FlowSimCached)
        );
        assert_eq!("cached-des".parse(), Ok(CongestionBackend::FlowSimCached));
        assert!("astra".parse::<CongestionBackend>().is_err());
        assert_eq!(CongestionBackend::FlowSim.to_string(), "flow-sim");
        assert_eq!(
            CongestionBackend::FlowSimCached.to_string(),
            "flow-sim-cached"
        );
        assert_eq!(CongestionBackend::default(), CongestionBackend::Analytic);
    }

    #[test]
    fn empty_schedule_prices_to_zero_on_all_backends() {
        let topo = mesh(2);
        let sched = FlowSchedule::new();
        for kind in CongestionBackend::all() {
            let est = kind.build(&topo).price_schedule(&sched);
            assert_eq!(est.total_time, 0.0, "{kind}");
            assert_eq!(est.total_bytes, 0.0, "{kind}");
        }
    }

    #[test]
    fn cache_hits_on_repeats_and_flow_permutations() {
        let topo = mesh(4);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(2, 0).unwrap();
        let cached = CachedBackend::new(Box::new(FlowSimBackend::new(&topo)));
        let f1 = FlowSpec::new(topo.route(a, b), 1.0e6);
        let f2 = FlowSpec::new(topo.route(a, c), 2.0e6);
        let fwd = cached.price_flows(&[f1.clone(), f2.clone()]);
        assert_eq!(
            cached.cache_stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                entries: 1
            }
        );
        // Same multiset, different order: a hit, not a re-simulation.
        let rev = cached.price_flows(&[f2, f1]);
        assert_eq!(fwd, rev);
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Different payload misses.
        cached.price_flows(&[FlowSpec::new(topo.route(a, b), 3.0e6)]);
        assert_eq!(cached.cache_stats().misses, 2);
        cached.clear_cache();
        assert_eq!(cached.cache_stats().entries, 0);
    }

    #[test]
    fn cache_entry_bound_is_enforced() {
        let topo = mesh(4);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let cached = CachedBackend::with_capacity_limit(Box::new(FlowSimBackend::new(&topo)), 3);
        // Never-repeating shapes: entries stay bounded by the limit.
        for i in 1..=10 {
            cached.price_flows(&[FlowSpec::new(topo.route(a, b), i as f64 * 1.0e6)]);
            assert!(cached.cache_stats().entries <= 3, "iteration {i}");
        }
        assert_eq!(cached.cache_stats().misses, 10);
    }

    /// Satellite contract: the knob-level constructor threads the capacity
    /// into the cached tier, and eviction at a tiny capacity still replays
    /// shapes that survive in the (cleared-on-overflow) map correctly.
    #[test]
    fn build_with_cache_capacity_pins_eviction_at_tiny_capacity() {
        let topo = mesh(4);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(2, 0).unwrap();
        let backend = CongestionBackend::FlowSimCached.build_with_cache_capacity(&topo, 1);
        let f_ab = vec![FlowSpec::new(topo.route(a, b), 1.0e6)];
        let f_ac = vec![FlowSpec::new(topo.route(a, c), 1.0e6)];
        let first = backend.price_flows(&f_ab);
        // Same shape replays from the single slot...
        assert_eq!(first, backend.price_flows(&f_ab));
        // ...a second shape evicts it (capacity 1 clears the map)...
        let other = backend.price_flows(&f_ac);
        // ...so the original shape re-simulates, bit-identically.
        assert_eq!(first, backend.price_flows(&f_ab));
        assert_eq!(other, backend.price_flows(&f_ac));
        // The stateless tiers accept (and ignore) the capacity.
        for kind in [CongestionBackend::Analytic, CongestionBackend::FlowSim] {
            let est = kind.build_with_cache_capacity(&topo, 1).price_flows(&f_ab);
            assert_eq!(est.total_time, first.total_time, "{kind}");
        }
    }

    #[test]
    fn cached_schedule_reuses_phase_entries() {
        let topo = mesh(4);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let cached = CachedBackend::new(Box::new(FlowSimBackend::new(&topo)));
        let phase = vec![FlowSpec::new(topo.route(a, b), 4.0e6)];
        let mut sched = FlowSchedule::new();
        sched.push_phase("p0", phase.clone());
        sched.push_phase("p1", phase.clone());
        let est = cached.price_schedule(&sched);
        // Two identical phases → one simulated phase + one phase hit, plus
        // the whole-schedule entry.
        let stats = cached.cache_stats();
        assert_eq!(stats.hits, 1, "second phase should hit the phase entry");
        assert_eq!(stats.entries, 2);
        // The phase entry now also answers a plain flow-set query.
        let one = cached.price_flows(&phase);
        assert!((est.total_time - 2.0 * one.total_time).abs() < 1e-15);
        assert_eq!(cached.cache_stats().hits, 2);
    }

    #[test]
    fn cached_estimates_are_bit_identical_to_uncached() {
        let topo = mesh(4);
        let table = RouteTable::build(&topo);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(3, 1).unwrap();
        let c = topo.device_at_xy(1, 3).unwrap();
        let uncached = FlowSimBackend::new(&topo);
        let cached = CachedBackend::new(Box::new(FlowSimBackend::new(&topo)));
        let flows = vec![
            FlowSpec::new(topo.route(a, b), 5.0e6),
            FlowSpec::new(topo.route(a, c), 7.0e6),
            FlowSpec::new(topo.route(b, c), 3.0e6),
        ];
        assert_eq!(uncached.price_flows(&flows), cached.price_flows(&flows));
        assert_eq!(uncached.price_flows(&flows), cached.price_flows(&flows));
        let pairs = vec![(a, b, 1.0e6), (c, a, 2.0e6), (b, b, 9.0)];
        assert_eq!(
            uncached.price_pairs(&table, &pairs),
            cached.price_pairs(&table, &pairs)
        );
    }

    /// The time-only paths price through the inner backend and leave the
    /// cache untouched, while the full-estimate path still memoizes.
    #[test]
    fn price_pairs_time_bypasses_the_cache() {
        let topo = mesh(4);
        let table = RouteTable::build(&topo);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(3, 1).unwrap();
        let pairs = vec![(a, b, 1.0e6), (b, a, 2.0e6)];
        // The same two transfers as a route set over volumes `[1e6, 4e6]`.
        let routes = [
            RoutedTransfer::new(&topo, 0, 1.0, table.route(a, b).links()),
            RoutedTransfer::new(&topo, 1, 0.5, table.route(b, a).links()),
        ];
        let volume = [1.0e6, 4.0e6];
        let mut sim = None;
        let cached = CachedBackend::new(Box::new(FlowSimBackend::new(&topo)));
        let uncached = FlowSimBackend::new(&topo).price_pairs(&table, &pairs);
        for _ in 0..3 {
            assert_eq!(
                cached.price_pairs_time(&table, &pairs).to_bits(),
                uncached.total_time.to_bits()
            );
            assert_eq!(
                cached
                    .price_route_set_time(&routes, &mut sim, &volume)
                    .to_bits(),
                uncached.total_time.to_bits()
            );
        }
        assert_eq!(cached.cache_stats(), CacheStats::default());
        cached.price_pairs(&table, &pairs);
        cached.price_pairs(&table, &pairs);
        assert_eq!(
            cached.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn schedule_shape_distinguishes_phase_structure() {
        let topo = mesh(2);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let flow = FlowSpec::new(topo.route(a, b), 1.0e6);
        let mut one_phase = FlowSchedule::new();
        one_phase.push_phase("p", vec![flow.clone(), flow.clone()]);
        let mut two_phases = FlowSchedule::new();
        two_phases.push_phase("p0", vec![flow.clone()]);
        two_phases.push_phase("p1", vec![flow]);
        assert_ne!(
            ScheduleShape::of_schedule(&one_phase),
            ScheduleShape::of_schedule(&two_phases)
        );
        assert_eq!(ScheduleShape::of_schedule(&one_phase).num_phases(), 1);
        assert_eq!(ScheduleShape::of_schedule(&two_phases).num_phases(), 2);
    }
}
