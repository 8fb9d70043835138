//! The discrete-event flow simulator.

use wsc_topology::{LinkId, Topology};

use crate::fairshare::{max_min_rates, IncrementalMaxMin};
use crate::flow::FlowSpec;

/// Bytes below which a flow is considered fully drained (guards against
/// floating-point residue).
const EPS_BYTES: f64 = 1e-6;
/// Seconds below which two event times are considered simultaneous.
const EPS_TIME: f64 = 1e-15;

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
/// allocator's flat CSR store — no per-event route cloning. The same event
/// loop runs [`RouteSetSim`](crate::RouteSetSim).
///
/// [`NetworkSim::use_reference_allocator`] switches to the full-recompute
/// loop — [`max_min_rates`] over freshly cloned routes, a full drain and
/// horizon scan on every event — kept for differential tests and
/// before/after benchmarks.
///
/// See the [crate-level documentation](crate) for the modelling rationale.
#[derive(Debug)]
pub struct NetworkSim<'a> {
    topo: &'a Topology,
    reference: bool,
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
        let topo = self.topo;
        let mut bytes = Vec::new();
        let mut flows = EventLoop::new(
            topo,
            flows.into_iter().map(|(start, payload, links)| {
                assert!(
                    start.is_finite() && start >= 0.0,
                    "submission time must be non-negative, got {start}"
                );
                bytes.push(payload);
                (start + topo.path_latency(links), links)
            }),
        );
        if self.reference {
            return flows.run_reference(&bytes);
        }
        let mut completion_times = vec![0.0_f64; bytes.len()];
        let total_time = flows.run(|f| Some(bytes[f]), |f, at| completion_times[f] = at);
        RunResult {
            total_time,
            completion_times,
        }
    }
}

/// A set of flows registered for the incremental event loop, with the
/// loop's per-flow buffers: the one body that runs both
/// [`NetworkSim::run_paths`] and [`RouteSetSim`](crate::RouteSetSim).
///
/// Construction registers every route in one [`IncrementalMaxMin`] and
/// sorts the activation order once; [`EventLoop::run`] reuses both and
/// every buffer, so a caller that runs the same flows again with other
/// byte counts allocates nothing.
#[derive(Debug)]
pub(crate) struct EventLoop {
    alloc: IncrementalMaxMin,
    /// Per flow: its submission time plus its route's latency.
    activation: Vec<f64>,
    /// Every flow, by activation time, ties by flow index.
    pending: Vec<u32>,
    // Per-run state, kept for its buffers.
    /// The flows `pending` lists that take part in the run, in its order.
    order: Vec<u32>,
    bytes: Vec<f64>,
    remaining: Vec<f64>,
    cur_rate: Vec<f64>,
    last_update: Vec<f64>,
    /// Predicted finish time of each active flow, exact while its rate is
    /// unchanged.
    finish: Vec<f64>,
    /// The active flows.
    active: Vec<u32>,
}

impl EventLoop {
    /// Registers `flows`, each `(activation time, route links)`, over
    /// `topo`'s links.
    ///
    /// # Panics
    ///
    /// Panics if a route has a link outside `topo` or an activation time
    /// is NaN.
    pub(crate) fn new<'r>(
        topo: &Topology,
        flows: impl IntoIterator<Item = (f64, &'r [LinkId])>,
    ) -> Self {
        let mut alloc = IncrementalMaxMin::new(topo.links().iter().map(|l| l.bandwidth).collect());
        let mut activation = Vec::new();
        let mut links = Vec::new();
        for (at, route) in flows {
            links.clear();
            links.extend(route.iter().map(|l| l.0));
            alloc.register(&links);
            activation.push(at);
        }
        let mut pending: Vec<u32> = (0..activation.len() as u32).collect();
        pending.sort_by(|&a, &b| {
            activation[a as usize]
                .partial_cmp(&activation[b as usize])
                .expect("activation times are not NaN")
                .then(a.cmp(&b))
        });
        let n = activation.len();
        EventLoop {
            alloc,
            activation,
            pending,
            order: Vec::with_capacity(n),
            bytes: vec![0.0; n],
            remaining: vec![0.0; n],
            cur_rate: vec![0.0; n],
            last_update: vec![0.0; n],
            finish: vec![f64::INFINITY; n],
            active: Vec::with_capacity(n),
        }
    }

    /// Runs the flows to which `bytes_of` gives a byte count (the others
    /// take no part), passes each one's completion time to
    /// `completed(flow, time)`, and returns the makespan.
    ///
    /// Rate repricing and drain settling touch only the repriced
    /// component; the next event comes from a linear minimum scan over the
    /// per-flow predicted finish times (branch-free and allocation-free —
    /// cheaper in practice than maintaining a heap that large components
    /// would flood with stale entries).
    pub(crate) fn run(
        &mut self,
        mut bytes_of: impl FnMut(usize) -> Option<f64>,
        mut completed: impl FnMut(usize, f64),
    ) -> f64 {
        let EventLoop {
            alloc,
            activation,
            pending,
            order,
            bytes,
            remaining,
            cur_rate,
            last_update,
            finish,
            active,
        } = self;
        order.clear();
        for &idx in pending.iter() {
            if let Some(b) = bytes_of(idx as usize) {
                bytes[idx as usize] = b;
                order.push(idx);
            }
        }
        active.clear();
        let mut next_pending = 0;
        let mut last_completion = 0.0_f64;

        loop {
            // Next event: the earliest predicted finish or activation.
            let mut horizon = f64::INFINITY;
            for &f in active.iter() {
                horizon = horizon.min(finish[f as usize]);
            }
            let now = match order.get(next_pending) {
                Some(&idx) => horizon.min(activation[idx as usize]),
                None if horizon.is_finite() => horizon,
                None => break,
            };
            let mut changed = false;

            // Activations due at or before `now`.
            while let Some(&idx) = order.get(next_pending) {
                let f = idx as usize;
                let at = activation[f];
                if at > now + EPS_TIME {
                    break;
                }
                next_pending += 1;
                if alloc.route_links_of(idx).is_empty() || bytes[f] <= EPS_BYTES {
                    // Local copies and empty flows complete instantly.
                    let done = at.max(now);
                    completed(f, done);
                    last_completion = last_completion.max(done);
                } else {
                    alloc.activate(idx);
                    remaining[f] = bytes[f];
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
                completed(f, now);
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

            if active.is_empty() && next_pending >= order.len() {
                break;
            }
        }
        last_completion
    }

    /// The full-recompute reference loop over every flow, with byte counts
    /// `bytes`: full water-filling over freshly cloned routes, a full
    /// horizon scan, and a full per-event drain.
    fn run_reference(&self, bytes: &[f64]) -> RunResult {
        let EventLoop {
            alloc,
            activation,
            pending,
            ..
        } = self;
        let mut completion_times = vec![0.0_f64; bytes.len()];
        let mut next_pending = 0usize;
        let capacities = alloc.capacities();

        let mut active: Vec<u32> = Vec::new();
        let mut remaining = bytes.to_vec();
        let mut now = 0.0_f64;
        let mut last_completion = 0.0_f64;

        loop {
            while next_pending < pending.len()
                && activation[pending[next_pending] as usize] <= now + EPS_TIME
            {
                let idx = pending[next_pending];
                next_pending += 1;
                let f = idx as usize;
                let at = activation[f];
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
                now = activation[pending[next_pending] as usize];
                continue;
            }

            // Full recompute over per-event route clones.
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
            let rates = max_min_rates(&routes, capacities);

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
                horizon = horizon.min(activation[pending[next_pending] as usize]);
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
