//! Max-min fair rate allocation: the full-recompute reference oracle
//! ([`max_min_rates`]) and the incremental allocator ([`IncrementalMaxMin`])
//! the discrete-event simulator runs on.
//!
//! The oracle re-waterfills every flow from scratch — `O(links ×
//! iterations)` per call plus an `O(flows × hops)` membership scan per
//! bottleneck round — which made it the dominant cost of the PR-1 DES hot
//! path (rates are re-allocated on **every** flow arrival and completion).
//! [`IncrementalMaxMin`] exploits the theory instead: a flow change can only
//! perturb rates inside the *connected component* of the flow/link
//! contention graph it touches, so each rebalance re-waterfills just that
//! component, finds bottlenecks through an indexed lazy-deletion heap rather
//! than a full link scan, and fixes flows by walking per-link flow lists
//! rather than scanning every unfixed flow. The oracle stays as the
//! reference: the property suite checks the two agree to 1e-9 relative
//! tolerance on random instances.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Computes the max-min fair rate for each flow given link capacities.
///
/// `routes[f]` lists the link indices traversed by flow `f`; `capacity[l]`
/// is the bandwidth of link `l` in bytes/second. Flows with empty routes
/// receive `f64::INFINITY`.
///
/// The algorithm is classic progressive filling: repeatedly find the most
/// contended link (smallest `residual capacity / unfixed flow count`), fix
/// every unfixed flow crossing it at that fair share, subtract, repeat.
/// Runs in `O(links × iterations)`; deterministic (ties broken by lowest
/// link index).
///
/// # Example
///
/// ```
/// use wsc_sim::fairshare::max_min_rates;
///
/// // Two flows share link 0; one continues over link 1 alone.
/// let routes: Vec<Vec<usize>> = vec![vec![0], vec![0, 1]];
/// let rates = max_min_rates(&routes, &[10.0, 4.0]);
/// // Flow 1 is capped at 4 by link 1; flow 0 then gets the remaining 6.
/// assert_eq!(rates, vec![6.0, 4.0]);
/// ```
pub fn max_min_rates(routes: &[Vec<usize>], capacity: &[f64]) -> Vec<f64> {
    let num_links = capacity.len();
    let mut residual = capacity.to_vec();
    let mut flows_on_link: Vec<u32> = vec![0; num_links];
    for route in routes {
        for &l in route {
            flows_on_link[l] += 1;
        }
    }

    let mut rates = vec![f64::INFINITY; routes.len()];
    let mut unfixed: Vec<usize> = (0..routes.len())
        .filter(|&f| !routes[f].is_empty())
        .collect();

    while !unfixed.is_empty() {
        // Find the bottleneck link among links still carrying unfixed flows.
        let mut bottleneck: Option<(usize, f64)> = None;
        for l in 0..num_links {
            if flows_on_link[l] > 0 {
                let fair = residual[l] / flows_on_link[l] as f64;
                match bottleneck {
                    Some((_, best)) if fair >= best => {}
                    _ => bottleneck = Some((l, fair)),
                }
            }
        }
        let Some((bl, fair)) = bottleneck else {
            // No contended links left: remaining flows are unconstrained
            // (cannot happen with positive-capacity links, but stay safe).
            for &f in &unfixed {
                rates[f] = f64::INFINITY;
            }
            break;
        };

        // Fix every unfixed flow crossing the bottleneck.
        let mut still_unfixed = Vec::with_capacity(unfixed.len());
        for &f in &unfixed {
            if routes[f].contains(&bl) {
                rates[f] = fair;
                for &l in &routes[f] {
                    residual[l] -= fair;
                    flows_on_link[l] -= 1;
                }
            } else {
                still_unfixed.push(f);
            }
        }
        // Guard against pathological floating-point residue.
        residual[bl] = residual[bl].max(0.0);
        unfixed = still_unfixed;
    }
    rates
}

/// Min-heap entry: a link and its fair share at push time. Entries go stale
/// when the link's residual/count changes; stale entries are detected at pop
/// time by recomputing the share (lazy deletion).
#[derive(Copy, Clone, PartialEq)]
struct Bottleneck {
    fair: f64,
    link: u32,
}

impl Eq for Bottleneck {}

impl Ord for Bottleneck {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and we want the *smallest*
        // fair share first, ties broken by lowest link index (matching the
        // oracle's deterministic tie-break).
        other
            .fair
            .total_cmp(&self.fair)
            .then_with(|| other.link.cmp(&self.link))
    }
}

impl PartialOrd for Bottleneck {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Incremental max-min fair-share allocator.
///
/// Flows are registered once (their routes are copied into a flat CSR store)
/// and then activated/deactivated as they arrive and complete;
/// [`IncrementalMaxMin::rebalance`] recomputes rates for exactly the
/// connected component(s) of the contention graph touched since the last
/// rebalance. Rates of untouched flows are provably unchanged, so they are
/// not revisited.
///
/// # Example
///
/// ```
/// use wsc_sim::fairshare::{max_min_rates, IncrementalMaxMin};
///
/// let mut alloc = IncrementalMaxMin::new(vec![10.0, 4.0]);
/// let short = alloc.register(&[0]);
/// let long = alloc.register(&[0, 1]);
/// alloc.activate(short);
/// alloc.activate(long);
/// alloc.rebalance();
/// // Same answer as the full-recompute oracle.
/// assert_eq!(alloc.rate(short), 6.0);
/// assert_eq!(alloc.rate(long), 4.0);
/// assert_eq!(
///     max_min_rates(&[vec![0], vec![0, 1]], &[10.0, 4.0]),
///     vec![6.0, 4.0]
/// );
/// // Completion of the long flow only reprices the component it touched.
/// alloc.deactivate(long);
/// alloc.rebalance();
/// assert_eq!(alloc.rate(short), 10.0);
/// ```
#[derive(Clone)]
pub struct IncrementalMaxMin {
    capacity: Vec<f64>,
    /// CSR route store: flow `f` traverses
    /// `route_links[route_offsets[f]..route_offsets[f + 1]]`.
    route_offsets: Vec<u32>,
    route_links: Vec<u32>,
    active: Vec<bool>,
    /// Whether the flow currently has entries in `flows_on_link` (true from
    /// activation until a rebalance purges its deactivated entries). Lets a
    /// re-activation before that purge reuse the entries instead of
    /// duplicating them.
    enlisted: Vec<bool>,
    /// Flows deactivated since the last rebalance, whose list entries the
    /// rebalance purge will drop.
    unlist_queue: Vec<u32>,
    rates: Vec<f64>,
    /// Active flows crossing each link; deactivated flows are purged lazily
    /// the next time the link's component is rebalanced.
    flows_on_link: Vec<Vec<u32>>,
    /// Links touched by activations/deactivations since the last rebalance.
    dirty: Vec<u32>,
    dirty_mark: Vec<bool>,
    // Water-filling scratch, reused across rebalances.
    residual: Vec<f64>,
    unfixed: Vec<u32>,
    in_component: Vec<bool>,
    flow_seen: Vec<bool>,
    flow_fixed: Vec<bool>,
    comp_links: Vec<u32>,
    comp_flows: Vec<u32>,
    heap: BinaryHeap<Bottleneck>,
}

impl std::fmt::Debug for IncrementalMaxMin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalMaxMin")
            .field("num_links", &self.capacity.len())
            .field("num_flows", &self.rates.len())
            .field("dirty_links", &self.dirty.len())
            .finish()
    }
}

impl IncrementalMaxMin {
    /// Creates an allocator over links of the given capacities (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if any capacity is non-positive or not finite.
    pub fn new(capacity: Vec<f64>) -> Self {
        let num_links = capacity.len();
        for (l, &c) in capacity.iter().enumerate() {
            assert!(
                c.is_finite() && c > 0.0,
                "link {l} capacity must be positive and finite, got {c}"
            );
        }
        IncrementalMaxMin {
            capacity,
            route_offsets: vec![0],
            route_links: Vec::new(),
            active: Vec::new(),
            enlisted: Vec::new(),
            unlist_queue: Vec::new(),
            rates: Vec::new(),
            flows_on_link: vec![Vec::new(); num_links],
            dirty: Vec::new(),
            dirty_mark: vec![false; num_links],
            residual: vec![0.0; num_links],
            unfixed: vec![0; num_links],
            in_component: vec![false; num_links],
            flow_seen: Vec::new(),
            flow_fixed: Vec::new(),
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Number of links the allocator prices.
    pub fn num_links(&self) -> usize {
        self.capacity.len()
    }

    /// The link capacities the allocator was built with.
    pub fn capacities(&self) -> &[f64] {
        &self.capacity
    }

    /// The registered route (link indices) of a flow, borrowed from the
    /// allocator's CSR store.
    pub fn route_links_of(&self, flow: u32) -> &[u32] {
        Self::route(&self.route_offsets, &self.route_links, flow)
    }

    /// Registers a flow's route (link indices) and returns its dense id.
    /// The flow starts inactive; its rate is meaningless until it is
    /// [`activate`](IncrementalMaxMin::activate)d and a rebalance runs.
    ///
    /// A flow with an empty route never contends and always reports
    /// `f64::INFINITY`, mirroring [`max_min_rates`].
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn register(&mut self, links: &[u32]) -> u32 {
        let id = self.rates.len() as u32;
        for &l in links {
            assert!(
                (l as usize) < self.capacity.len(),
                "link index {l} out of range"
            );
        }
        self.route_links.extend_from_slice(links);
        self.route_offsets
            .push(u32::try_from(self.route_links.len()).expect("route store exceeds u32 offsets"));
        self.active.push(false);
        self.enlisted.push(false);
        self.rates.push(f64::INFINITY);
        self.flow_seen.push(false);
        self.flow_fixed.push(false);
        id
    }

    fn route<'r>(route_offsets: &[u32], route_links: &'r [u32], flow: u32) -> &'r [u32] {
        let start = route_offsets[flow as usize] as usize;
        let end = route_offsets[flow as usize + 1] as usize;
        &route_links[start..end]
    }

    /// Marks every link of `flow` dirty so the next rebalance revisits its
    /// component.
    fn mark_route_dirty(&mut self, flow: u32) {
        let (start, end) = (
            self.route_offsets[flow as usize] as usize,
            self.route_offsets[flow as usize + 1] as usize,
        );
        for i in start..end {
            let l = self.route_links[i];
            if !self.dirty_mark[l as usize] {
                self.dirty_mark[l as usize] = true;
                self.dirty.push(l);
            }
        }
    }

    /// Activates a registered flow (it arrived).
    ///
    /// # Panics
    ///
    /// Panics if the flow is already active.
    pub fn activate(&mut self, flow: u32) {
        assert!(!self.active[flow as usize], "flow {flow} already active");
        self.active[flow as usize] = true;
        let (start, end) = (
            self.route_offsets[flow as usize] as usize,
            self.route_offsets[flow as usize + 1] as usize,
        );
        if start == end {
            // Local flow: unconstrained, not in any contention component.
            self.rates[flow as usize] = f64::INFINITY;
            return;
        }
        if !self.enlisted[flow as usize] {
            for i in start..end {
                self.flows_on_link[self.route_links[i] as usize].push(flow);
            }
            self.enlisted[flow as usize] = true;
        }
        // A re-activation before the purge of its deactivated entries
        // reuses them (pushing again would double-count the flow).
        self.mark_route_dirty(flow);
    }

    /// Deactivates an active flow (it completed). Its entries in the
    /// per-link flow lists are purged lazily at the next rebalance of the
    /// affected component.
    ///
    /// # Panics
    ///
    /// Panics if the flow is not active.
    pub fn deactivate(&mut self, flow: u32) {
        assert!(self.active[flow as usize], "flow {flow} is not active");
        self.active[flow as usize] = false;
        if self.enlisted[flow as usize] {
            self.unlist_queue.push(flow);
        }
        self.mark_route_dirty(flow);
    }

    /// The current max-min rate of a flow (valid for active flows after the
    /// last [`rebalance`](IncrementalMaxMin::rebalance)).
    pub fn rate(&self, flow: u32) -> f64 {
        self.rates[flow as usize]
    }

    /// Whether any links changed since the last rebalance.
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// The active flows whose rates the last
    /// [`rebalance`](IncrementalMaxMin::rebalance) recomputed (the affected
    /// connected component(s)). Flows outside this set kept their rates, so
    /// an event-driven consumer only needs to refresh these.
    pub fn last_component_flows(&self) -> &[u32] {
        &self.comp_flows
    }

    /// Recomputes rates for the connected component(s) of the contention
    /// graph touched since the last rebalance. Rates of flows outside those
    /// components are untouched (max-min allocations are component-local).
    pub fn rebalance(&mut self) {
        self.comp_links.clear();
        self.comp_flows.clear();
        if self.dirty.is_empty() {
            return;
        }
        // Split-borrow every field once; the traversal and fill below mutate
        // disjoint parts of the allocator.
        let IncrementalMaxMin {
            capacity,
            route_offsets,
            route_links,
            active,
            enlisted,
            unlist_queue,
            rates,
            flows_on_link,
            dirty,
            dirty_mark,
            residual,
            unfixed,
            in_component,
            flow_seen,
            flow_fixed,
            comp_links,
            comp_flows,
            heap,
        } = self;

        // 1. Discover the affected component(s): BFS over the bipartite
        //    flow/link contention graph seeded at the dirty links, purging
        //    deactivated flows from each visited link list along the way.
        for seed in dirty.drain(..) {
            dirty_mark[seed as usize] = false;
            if !in_component[seed as usize] {
                in_component[seed as usize] = true;
                comp_links.push(seed);
                // Only links a deactivation dirtied can hold dead entries,
                // so purging the seeds keeps every list clean.
                flows_on_link[seed as usize].retain(|&f| active[f as usize]);
            }
        }
        // The purge above dropped the entries of every flow deactivated
        // since the last rebalance (all its links were dirty seeds) —
        // unless it was re-activated in the meantime and kept them.
        for f in unlist_queue.drain(..) {
            if !active[f as usize] {
                enlisted[f as usize] = false;
            }
        }
        let mut next = 0;
        while next < comp_links.len() {
            let l = comp_links[next];
            next += 1;
            let mut scan = 0;
            while scan < flows_on_link[l as usize].len() {
                let f = flows_on_link[l as usize][scan];
                scan += 1;
                if !flow_seen[f as usize] {
                    flow_seen[f as usize] = true;
                    comp_flows.push(f);
                    for &m in Self::route(route_offsets, route_links, f) {
                        if !in_component[m as usize] {
                            in_component[m as usize] = true;
                            comp_links.push(m);
                        }
                    }
                }
            }
        }

        // 2. Water-fill the component. A flow alone in it is fixed at the
        //    least fair share on its route, `capacity / crossings`, which
        //    is the fill's first bottleneck: no heap needed.
        if let [f] = comp_flows[..] {
            rates[f as usize] = Self::route(route_offsets, route_links, f)
                .iter()
                .map(|&l| capacity[l as usize] / flows_on_link[l as usize].len() as f64)
                .fold(f64::INFINITY, f64::min);
        } else {
            // Progressive filling driven by an indexed lazy-deletion
            // min-heap of (fair share, link).
            heap.clear();
            for &l in comp_links.iter() {
                residual[l as usize] = capacity[l as usize];
                let count = flows_on_link[l as usize].len() as u32;
                unfixed[l as usize] = count;
                if count > 0 {
                    heap.push(Bottleneck {
                        fair: residual[l as usize] / count as f64,
                        link: l,
                    });
                }
            }
            // Lazy-deletion pops: fixing flows at a bottleneck leaves the other
            // touched links' heap entries stale, but water-filling fair shares
            // are non-decreasing over the fill (fixing at the minimum `f*`
            // turns `r/c ≥ f*` into `(r−kf*)/(c−k) ≥ r/c`), so stale entries
            // only under-estimate: popping one and re-pushing the corrected
            // value never skips the true bottleneck.
            while let Some(Bottleneck { fair, link }) = heap.pop() {
                let l = link as usize;
                if unfixed[l] == 0 {
                    continue;
                }
                let current = residual[l] / unfixed[l] as f64;
                if current != fair {
                    heap.push(Bottleneck {
                        fair: current,
                        link,
                    });
                    continue;
                }
                // Fix every unfixed flow crossing the bottleneck at `fair`.
                for &f in &flows_on_link[l] {
                    if flow_fixed[f as usize] {
                        continue;
                    }
                    flow_fixed[f as usize] = true;
                    rates[f as usize] = fair;
                    for &m in Self::route(route_offsets, route_links, f) {
                        residual[m as usize] -= fair;
                        unfixed[m as usize] -= 1;
                    }
                }
                // Guard against pathological floating-point residue.
                residual[l] = residual[l].max(0.0);
                debug_assert_eq!(unfixed[l], 0);
            }
        }

        // 3. Reset the component marks for the next rebalance.
        for &l in comp_links.iter() {
            in_component[l as usize] = false;
        }
        for &f in comp_flows.iter() {
            flow_seen[f as usize] = false;
            flow_fixed[f as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[vec![0, 1]], &[5.0, 3.0]);
        assert_eq!(rates, vec![3.0]);
    }

    #[test]
    fn equal_split_on_shared_link() {
        let routes = vec![vec![0], vec![0], vec![0], vec![0]];
        let rates = max_min_rates(&routes, &[8.0]);
        assert_eq!(rates, vec![2.0; 4]);
    }

    #[test]
    fn classic_parking_lot() {
        // Three links in a chain; one long flow crosses all, one short flow
        // per link. Long flow gets capacity/2 at the tightest link; short
        // flows soak up the rest.
        let routes = vec![vec![0, 1, 2], vec![0], vec![1], vec![2]];
        let rates = max_min_rates(&routes, &[10.0, 6.0, 10.0]);
        assert_eq!(rates[0], 3.0); // bottleneck: link 1 shared by 2 flows
        assert_eq!(rates[2], 3.0);
        assert_eq!(rates[1], 7.0);
        assert_eq!(rates[3], 7.0);
    }

    #[test]
    fn local_flows_are_unconstrained() {
        let routes = vec![vec![], vec![0]];
        let rates = max_min_rates(&routes, &[1.0]);
        assert!(rates[0].is_infinite());
        assert_eq!(rates[1], 1.0);
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &[1.0]).is_empty());
    }

    /// Drives an `IncrementalMaxMin` to the same state as an oracle call and
    /// asserts the rates agree (exactly — these fixtures have no fp ties).
    fn assert_matches_oracle(routes: &[Vec<usize>], capacity: &[f64]) {
        let mut alloc = IncrementalMaxMin::new(capacity.to_vec());
        let ids: Vec<u32> = routes
            .iter()
            .map(|r| {
                let links: Vec<u32> = r.iter().map(|&l| l as u32).collect();
                alloc.register(&links)
            })
            .collect();
        for &id in &ids {
            alloc.activate(id);
        }
        alloc.rebalance();
        let oracle = max_min_rates(routes, capacity);
        for (&id, &expect) in ids.iter().zip(&oracle) {
            assert_eq!(alloc.rate(id), expect, "flow {id}");
        }
    }

    #[test]
    fn incremental_matches_oracle_on_fixtures() {
        assert_matches_oracle(&[vec![0, 1]], &[5.0, 3.0]);
        assert_matches_oracle(&[vec![0], vec![0], vec![0], vec![0]], &[8.0]);
        assert_matches_oracle(
            &[vec![0, 1, 2], vec![0], vec![1], vec![2]],
            &[10.0, 6.0, 10.0],
        );
        assert_matches_oracle(
            &[vec![0, 1], vec![1, 2], vec![0, 2], vec![0], vec![2]],
            &[4.0, 2.0, 6.0],
        );
    }

    #[test]
    fn incremental_tracks_arrivals_and_completions() {
        // Parking lot; retire the long flow and watch the short ones grow.
        let mut alloc = IncrementalMaxMin::new(vec![10.0, 6.0, 10.0]);
        let long = alloc.register(&[0, 1, 2]);
        let shorts = [
            alloc.register(&[0]),
            alloc.register(&[1]),
            alloc.register(&[2]),
        ];
        alloc.activate(long);
        for &s in &shorts {
            alloc.activate(s);
        }
        alloc.rebalance();
        assert_eq!(alloc.rate(long), 3.0);
        assert_eq!(alloc.rate(shorts[0]), 7.0);
        alloc.deactivate(long);
        alloc.rebalance();
        assert_eq!(alloc.rate(shorts[0]), 10.0);
        assert_eq!(alloc.rate(shorts[1]), 6.0);
        assert_eq!(alloc.rate(shorts[2]), 10.0);
    }

    #[test]
    fn rebalance_leaves_untouched_components_alone() {
        // Two disjoint components; churn in one must not reprice the other.
        let mut alloc = IncrementalMaxMin::new(vec![4.0, 8.0]);
        let left = alloc.register(&[0]);
        let right_a = alloc.register(&[1]);
        let right_b = alloc.register(&[1]);
        alloc.activate(left);
        alloc.activate(right_a);
        alloc.activate(right_b);
        alloc.rebalance();
        assert_eq!(alloc.rate(left), 4.0);
        assert_eq!(alloc.rate(right_a), 4.0);
        alloc.deactivate(right_b);
        assert!(alloc.is_dirty());
        alloc.rebalance();
        assert_eq!(alloc.rate(left), 4.0);
        assert_eq!(alloc.rate(right_a), 8.0);
        assert!(!alloc.is_dirty());
    }

    #[test]
    fn empty_route_flow_is_unconstrained() {
        let mut alloc = IncrementalMaxMin::new(vec![1.0]);
        let local = alloc.register(&[]);
        let wired = alloc.register(&[0]);
        alloc.activate(local);
        alloc.activate(wired);
        alloc.rebalance();
        assert!(alloc.rate(local).is_infinite());
        assert_eq!(alloc.rate(wired), 1.0);
    }

    #[test]
    fn reactivation_before_rebalance_does_not_double_count() {
        // deactivate → activate with no rebalance in between must reuse the
        // still-present link-list entries, not duplicate them.
        let mut alloc = IncrementalMaxMin::new(vec![6.0]);
        let f = alloc.register(&[0]);
        let g = alloc.register(&[0]);
        alloc.activate(f);
        alloc.activate(g);
        alloc.rebalance();
        assert_eq!(alloc.rate(f), 3.0);
        alloc.deactivate(f);
        alloc.activate(f);
        alloc.rebalance();
        assert_eq!(alloc.rate(f), 3.0, "duplicate entry skews the share");
        assert_eq!(alloc.rate(g), 3.0);
        // And the same across a rebalance (entries purged, then re-pushed).
        alloc.deactivate(f);
        alloc.rebalance();
        assert_eq!(alloc.rate(g), 6.0);
        alloc.activate(f);
        alloc.rebalance();
        assert_eq!(alloc.rate(f), 3.0);
        assert_eq!(alloc.rate(g), 3.0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_activation_rejected() {
        let mut alloc = IncrementalMaxMin::new(vec![1.0]);
        let f = alloc.register(&[0]);
        alloc.activate(f);
        alloc.activate(f);
    }

    #[test]
    fn rates_never_exceed_any_link_capacity() {
        // Property-ish check with a fixed awkward instance.
        let routes = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0], vec![2]];
        let caps = [4.0, 2.0, 6.0];
        let rates = max_min_rates(&routes, &caps);
        let mut used = [0.0; 3];
        for (f, route) in routes.iter().enumerate() {
            for &l in route {
                used[l] += rates[f];
            }
        }
        for l in 0..3 {
            assert!(used[l] <= caps[l] + 1e-9, "link {l} over capacity");
        }
    }
}
