//! The discrete-event flow simulator.

use wsc_topology::{LinkId, Topology};

use crate::fairshare::{max_min_rates, IncrementalMaxMin};
use crate::flow::FlowSpec;

/// Bytes below which a flow is considered fully drained (guards against
/// floating-point residue).
pub(crate) const EPS_BYTES: f64 = 1e-6;
/// Seconds below which two event times are considered simultaneous.
pub(crate) const EPS_TIME: f64 = 1e-15;

/// Result of simulating a set of flows.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Time at which the last flow completed, seconds.
    pub total_time: f64,
    /// Completion time of each flow, in submission order.
    pub completion_times: Vec<f64>,
}

/// Flow-level discrete-event network simulator over a fixed topology.
///
/// Flows become *active* after their submission time plus the summed per-hop
/// latency of their route; active flows drain at max-min fair rates,
/// re-allocated whenever any flow starts or finishes.
///
/// The hot path is event-driven end to end: rate re-allocation runs on the
/// incremental [`IncrementalMaxMin`] allocator (each arrival/completion
/// reprices only the touched connected component of the contention graph),
/// drain state is settled lazily so an event updates only the repriced
/// component rather than every active flow. Routes are copied once into the
/// allocator's flat CSR store — no per-event route cloning.
///
/// [`NetworkSim::use_reference_allocator`] switches to the PR-1
/// full-recompute loop — [`max_min_rates`] over freshly cloned routes, a
/// full drain and horizon scan on every event — kept for differential tests
/// and before/after benchmarks.
///
/// See the [crate-level documentation](crate) for the modelling rationale.
#[derive(Debug)]
pub struct NetworkSim<'a> {
    topo: &'a Topology,
    reference: bool,
}

/// Per-run flow bookkeeping shared by both event loops.
struct FlowTable {
    alloc: IncrementalMaxMin,
    bytes: Vec<f64>,
    activations: Vec<f64>,
}

impl<'a> NetworkSim<'a> {
    /// Creates a simulator over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        NetworkSim {
            topo,
            reference: false,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Switches rate allocation to the full-recompute [`max_min_rates`]
    /// oracle with per-event route cloning, full drains, and full horizon
    /// scans (the pre-incremental hot path). Orders of magnitude slower on
    /// contended schedules; exists so benchmarks can measure the incremental
    /// speedup and tests can cross-check the two paths on identical event
    /// sequences.
    pub fn use_reference_allocator(&mut self, yes: bool) -> &mut Self {
        self.reference = yes;
        self
    }

    /// Runs all `flows` starting at time zero and returns when the last
    /// completes.
    pub fn run_concurrent(&mut self, flows: &[FlowSpec]) -> RunResult {
        self.run_paths(flows.iter().map(|f| (0.0, f.bytes, f.route.links())))
    }

    /// Runs flows with explicit submission times (seconds).
    ///
    /// # Panics
    ///
    /// Panics if any submission time is negative or not finite.
    pub fn run_at(&mut self, flows: &[(f64, FlowSpec)]) -> RunResult {
        self.run_paths(
            flows
                .iter()
                .map(|(start, spec)| (*start, spec.bytes, spec.route.links())),
        )
    }

    /// Low-level entry point: runs `(submission time, bytes, route links)`
    /// triples borrowed from anywhere — `FlowSpec`s, a CSR
    /// [`RouteTable`](wsc_topology::RouteTable), or a transfer list — with
    /// no per-flow route allocation.
    ///
    /// # Panics
    ///
    /// Panics if any submission time is negative or not finite.
    pub fn run_paths<'r>(
        &mut self,
        flows: impl IntoIterator<Item = (f64, f64, &'r [LinkId])>,
    ) -> RunResult {
        let capacities: Vec<f64> = self.topo.links().iter().map(|l| l.bandwidth).collect();
        let mut alloc = IncrementalMaxMin::new(capacities);
        let mut bytes: Vec<f64> = Vec::new();
        let mut activations: Vec<f64> = Vec::new();
        let mut link_scratch: Vec<u32> = Vec::new();
        for (start, payload, links) in flows {
            assert!(
                start.is_finite() && start >= 0.0,
                "submission time must be non-negative, got {start}"
            );
            link_scratch.clear();
            link_scratch.extend(links.iter().map(|l| l.0));
            alloc.register(&link_scratch);
            bytes.push(payload);
            activations.push(start + self.topo.path_latency(links));
        }
        let table = FlowTable {
            alloc,
            bytes,
            activations,
        };
        if self.reference {
            self.run_reference(table)
        } else {
            self.run_incremental(table)
        }
    }

    /// Pending-activation order: by activation time, ties by submission
    /// index.
    fn pending_order(activations: &[f64]) -> Vec<u32> {
        let mut pending: Vec<u32> = (0..activations.len() as u32).collect();
        pending.sort_by(|&a, &b| {
            activations[a as usize]
                .partial_cmp(&activations[b as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        pending
    }

    /// The incremental event loop: rate repricing and drain settling touch
    /// only the repriced component; the next event comes from a linear
    /// minimum scan over the per-flow predicted finish times (branch-free
    /// and allocation-free — cheaper in practice than maintaining a heap
    /// that large components would flood with stale entries).
    fn run_incremental(&mut self, table: FlowTable) -> RunResult {
        let FlowTable {
            mut alloc,
            bytes,
            activations,
        } = table;
        let num_flows = bytes.len();
        let mut completion_times = vec![0.0_f64; num_flows];
        let pending = Self::pending_order(&activations);
        let mut next_pending = 0usize;

        // Per-flow drain state, settled lazily on rate changes; `finish[f]`
        // is exact while `f`'s rate is unchanged.
        let mut remaining = bytes.clone();
        let mut cur_rate = vec![0.0_f64; num_flows];
        let mut last_update = vec![0.0_f64; num_flows];
        let mut finish = vec![f64::INFINITY; num_flows];
        let mut active: Vec<u32> = Vec::new();

        let mut now;
        let mut last_completion = 0.0_f64;

        loop {
            // Next event: the earliest predicted finish or activation.
            let mut horizon = f64::INFINITY;
            for &f in &active {
                horizon = horizon.min(finish[f as usize]);
            }
            let next_act =
                (next_pending < pending.len()).then(|| activations[pending[next_pending] as usize]);
            now = match next_act {
                Some(a) => horizon.min(a),
                None if horizon.is_finite() => horizon,
                None => break,
            };

            let mut changed = false;

            // Activations due at or before `now`.
            while next_pending < pending.len()
                && activations[pending[next_pending] as usize] <= now + EPS_TIME
            {
                let idx = pending[next_pending];
                next_pending += 1;
                let f = idx as usize;
                let at = activations[f];
                if alloc.route_links_of(idx).is_empty() || bytes[f] <= EPS_BYTES {
                    // Local copies and empty flows complete instantly.
                    completion_times[f] = at.max(now);
                    last_completion = last_completion.max(completion_times[f]);
                } else {
                    alloc.activate(idx);
                    last_update[f] = now;
                    cur_rate[f] = 0.0;
                    finish[f] = f64::INFINITY;
                    active.push(idx);
                    changed = true;
                }
            }

            // Completions due at or before `now`.
            let mut i = 0;
            while i < active.len() {
                let idx = active[i];
                let f = idx as usize;
                if finish[f] > now + EPS_TIME {
                    i += 1;
                    continue;
                }
                // Settle the drain since the last rate change.
                let moved = (cur_rate[f] * (now - last_update[f])).min(remaining[f]);
                remaining[f] -= moved;
                last_update[f] = now;
                if remaining[f] > EPS_BYTES {
                    // Floating-point residue: correct the prediction.
                    finish[f] = now + remaining[f] / cur_rate[f];
                    i += 1;
                    continue;
                }
                active.swap_remove(i);
                alloc.deactivate(idx);
                completion_times[f] = now;
                last_completion = last_completion.max(now);
                changed = true;
            }

            if changed {
                // Reprice the touched component(s) and refresh exactly the
                // repriced flows' drain state and predicted finishes.
                alloc.rebalance();
                for &idx in alloc.last_component_flows() {
                    let f = idx as usize;
                    let moved = (cur_rate[f] * (now - last_update[f])).min(remaining[f]);
                    remaining[f] -= moved;
                    last_update[f] = now;
                    cur_rate[f] = alloc.rate(idx);
                    finish[f] = now + remaining[f] / cur_rate[f];
                }
            }

            if active.is_empty() && next_pending >= pending.len() {
                break;
            }
        }

        RunResult {
            total_time: last_completion,
            completion_times,
        }
    }

    /// The PR-1 reference loop: full water-filling over freshly cloned
    /// routes, a full horizon scan, and a full per-event drain.
    fn run_reference(&mut self, table: FlowTable) -> RunResult {
        let FlowTable {
            alloc,
            bytes,
            activations,
        } = table;
        let num_flows = bytes.len();
        let mut completion_times = vec![0.0_f64; num_flows];
        let pending = Self::pending_order(&activations);
        let mut next_pending = 0usize;
        let capacities = alloc.capacities().to_vec();

        let mut active: Vec<u32> = Vec::new();
        let mut remaining = bytes.clone();
        let mut now = 0.0_f64;
        let mut last_completion = 0.0_f64;

        loop {
            while next_pending < pending.len()
                && activations[pending[next_pending] as usize] <= now + EPS_TIME
            {
                let idx = pending[next_pending];
                next_pending += 1;
                let f = idx as usize;
                let at = activations[f];
                if alloc.route_links_of(idx).is_empty() || bytes[f] <= EPS_BYTES {
                    completion_times[f] = at.max(now);
                    last_completion = last_completion.max(completion_times[f]);
                } else {
                    active.push(idx);
                }
            }

            if active.is_empty() {
                if next_pending >= pending.len() {
                    break;
                }
                now = activations[pending[next_pending] as usize];
                continue;
            }

            // Full recompute over per-event route clones (the PR-1 cost).
            let routes: Vec<Vec<usize>> = active
                .iter()
                .map(|&f| {
                    alloc
                        .route_links_of(f)
                        .iter()
                        .map(|&l| l as usize)
                        .collect()
                })
                .collect();
            let rates = max_min_rates(&routes, &capacities);

            let mut horizon = f64::INFINITY;
            for (&f, &rate) in active.iter().zip(&rates) {
                let t = if rate.is_infinite() {
                    now
                } else {
                    now + remaining[f as usize] / rate
                };
                horizon = horizon.min(t);
            }
            if next_pending < pending.len() {
                horizon = horizon.min(activations[pending[next_pending] as usize]);
            }
            let dt = (horizon - now).max(0.0);

            for (&f, &rate) in active.iter().zip(&rates) {
                let moved = if rate.is_infinite() {
                    remaining[f as usize]
                } else {
                    (rate * dt).min(remaining[f as usize])
                };
                remaining[f as usize] -= moved;
            }
            now = horizon;

            let mut i = 0;
            while i < active.len() {
                let f = active[i];
                if remaining[f as usize] <= EPS_BYTES {
                    active.swap_remove(i);
                    completion_times[f as usize] = now;
                    last_completion = last_completion.max(now);
                } else {
                    i += 1;
                }
            }
        }

        RunResult {
            total_time: last_completion,
            completion_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wsc_topology::{DeviceId, Mesh, PlatformParams};

    fn mesh4() -> Topology {
        Mesh::new(4, PlatformParams::dojo_like()).build()
    }

    #[test]
    fn single_flow_matches_closed_form() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(3, 0).unwrap();
        let route = topo.route(a, b);
        let bytes = 1.0e9;
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[FlowSpec::new(route.clone(), bytes)]);
        let expect = topo.route_latency(&route) + bytes / topo.route_bandwidth(&route);
        assert!((result.total_time - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn two_flows_share_a_link() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let route = topo.route(a, b);
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[
            FlowSpec::new(route.clone(), 4.0e9),
            FlowSpec::new(route.clone(), 4.0e9),
        ]);
        // Shared 4 TB/s link: 8 GB total over it, plus one hop latency.
        let expect = 8.0e9 / 4.0e12 + 50e-9;
        assert!((result.total_time - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let topo = mesh4();
        let mut sim = NetworkSim::new(&topo);
        let r1 = topo.route(
            topo.device_at_xy(0, 0).unwrap(),
            topo.device_at_xy(1, 0).unwrap(),
        );
        let r2 = topo.route(
            topo.device_at_xy(0, 3).unwrap(),
            topo.device_at_xy(1, 3).unwrap(),
        );
        let solo = sim.run_concurrent(&[FlowSpec::new(r1.clone(), 1.0e9)]);
        let both = sim.run_concurrent(&[FlowSpec::new(r1, 1.0e9), FlowSpec::new(r2, 1.0e9)]);
        assert!((solo.total_time - both.total_time).abs() < 1e-12);
    }

    #[test]
    fn local_flow_is_instant() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[FlowSpec::new(topo.route(a, a), 1.0e12)]);
        assert_eq!(result.total_time, 0.0);
    }

    #[test]
    fn staggered_start_times() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let route = topo.route(a, b);
        let mut sim = NetworkSim::new(&topo);
        // Second flow starts after the first finishes: no sharing.
        let first_time = 50e-9 + 4.0e9 / 4.0e12;
        let result = sim.run_at(&[
            (0.0, FlowSpec::new(route.clone(), 4.0e9)),
            (first_time, FlowSpec::new(route.clone(), 4.0e9)),
        ]);
        let expect = first_time * 2.0;
        assert!((result.total_time - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn completion_times_reported_per_flow() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(2, 0).unwrap();
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[
            FlowSpec::new(topo.route(a, b), 4.0e9),
            FlowSpec::new(topo.route(a, c), 4.0e9),
        ]);
        // Flow 0 shares its single link with flow 1, so both drain that link
        // at 2 TB/s initially; flow 0 finishes, then flow 1 continues alone.
        assert!(result.completion_times[0] < result.completion_times[1]);
        assert_eq!(result.total_time, result.completion_times[1]);
    }

    proptest! {
        /// Differential contract, the oracle for any rewrite of the event
        /// loop: the incremental loop reproduces the full-recompute
        /// reference loop on random flow sets (mixed hop counts, staggered
        /// starts, zero-byte and local flows), for the makespan and every
        /// flow's completion time, at 1e-9 relative.
        #[test]
        fn incremental_matches_reference_allocator(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = mesh4();
            let n = topo.num_devices() as u32;
            let num_flows = rng.gen_range(1usize..32);
            let flows: Vec<(f64, FlowSpec)> = (0..num_flows)
                .map(|_| {
                    let src = DeviceId(rng.gen_range(0..n));
                    let dst = if rng.gen_range(0..6) == 0 {
                        src
                    } else {
                        DeviceId(rng.gen_range(0..n))
                    };
                    let bytes = if rng.gen_range(0..6) == 0 {
                        0.0
                    } else {
                        rng.gen_range(1.0e3..1.0e8)
                    };
                    let start = if rng.gen_range(0..2) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0..2.0e-4)
                    };
                    (start, FlowSpec::new(topo.route(src, dst), bytes))
                })
                .collect();
            let fast = NetworkSim::new(&topo).run_at(&flows);
            let slow = NetworkSim::new(&topo)
                .use_reference_allocator(true)
                .run_at(&flows);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
            prop_assert!(
                close(fast.total_time, slow.total_time),
                "seed {seed}: incremental {} vs reference {}",
                fast.total_time,
                slow.total_time
            );
            for (f, (&x, &y)) in fast
                .completion_times
                .iter()
                .zip(&slow.completion_times)
                .enumerate()
            {
                prop_assert!(close(x, y), "seed {seed}, flow {f}: {x} vs {y}");
            }
        }
    }
}
