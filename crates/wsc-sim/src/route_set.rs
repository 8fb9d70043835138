//! The flow-level DES of one route set, built once and run per call.

use wsc_topology::Topology;

use crate::fairshare::IncrementalMaxMin;
use crate::flow::RoutedTransfer;
use crate::network::{EPS_BYTES, EPS_TIME};

/// The discrete-event simulation of one route set (see [`RoutedTransfer`]),
/// kept across calls that price it with different volumes.
///
/// A caller that prices the same routes many times (the engine prices the
/// dispatch and combine route sets of its layout on every stride layer)
/// pays for what does not change only once: the routes are registered in
/// one [`IncrementalMaxMin`], the activation order is sorted from
/// [`RoutedTransfer::latency`], and every per-flow buffer is kept. A call
/// takes only the volumes and returns only the makespan.
///
/// [`RouteSetSim::run`] gives the `total_time` of
/// [`NetworkSim::run_paths`](crate::NetworkSim::run_paths) over the same
/// transfers (those with a positive volume and a positive byte count, in
/// route-set order, all submitted at time zero), bit for bit: it runs the
/// same events in the same order with the same arithmetic.
///
/// # Example
///
/// ```
/// use wsc_topology::{Mesh, PlatformParams, RouteTable};
/// use wsc_sim::{NetworkSim, RouteSetSim, RoutedTransfer};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let table = RouteTable::build(&topo);
/// let (a, b) = (topo.device_at_xy(0, 0).unwrap(), topo.device_at_xy(1, 0).unwrap());
/// let routes = [
///     RoutedTransfer::new(&topo, 0, 1.0, table.route(a, b).links()),
///     RoutedTransfer::new(&topo, 1, 0.5, table.route(a, b).links()),
/// ];
/// let mut sim = RouteSetSim::new(&topo, &routes);
/// let reference = NetworkSim::new(&topo).run_paths([
///     (0.0, 4.0e9, routes[0].links),
///     (0.0, 0.5 * 2.0e9, routes[1].links),
/// ]);
/// assert_eq!(sim.run(&[4.0e9, 2.0e9]).to_bits(), reference.total_time.to_bits());
/// ```
#[derive(Debug)]
pub struct RouteSetSim {
    alloc: IncrementalMaxMin,
    /// Per flow: the index of its volume and its share of it.
    index: Vec<usize>,
    fraction: Vec<f64>,
    /// Per flow: its activation time, `0.0 + latency`.
    activation: Vec<f64>,
    /// Every flow, by activation time, ties by route-set index.
    pending: Vec<u32>,
    // Per-call state, kept for its buffers.
    /// The flows `pending` lists that take part in the call, in its order.
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

impl RouteSetSim {
    /// Registers `routes` over `topo`'s links.
    ///
    /// # Panics
    ///
    /// Panics if a route has a link outside `topo`.
    pub fn new(topo: &Topology, routes: &[RoutedTransfer<'_>]) -> Self {
        let mut alloc = IncrementalMaxMin::new(topo.links().iter().map(|l| l.bandwidth).collect());
        let mut links = Vec::new();
        for r in routes {
            links.clear();
            links.extend(r.links.iter().map(|l| l.0));
            alloc.register(&links);
        }
        // `NetworkSim` activates a flow at its submission time (zero) plus
        // `Topology::path_latency`, which on a non-empty route is
        // bit-equal to `latency`; on an empty one both sums give zero.
        let activation: Vec<f64> = routes.iter().map(|r| 0.0 + r.latency).collect();
        let mut pending: Vec<u32> = (0..routes.len() as u32).collect();
        pending.sort_by(|&a, &b| {
            activation[a as usize]
                .partial_cmp(&activation[b as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        let n = routes.len();
        RouteSetSim {
            alloc,
            index: routes.iter().map(|r| r.index).collect(),
            fraction: routes.iter().map(|r| r.fraction).collect(),
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

    /// Number of transfers in the route set.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the route set has no transfer.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The makespan of the route set's transfers with byte counts
    /// `volume[index] × fraction`, skipping those whose volume or byte
    /// count is not positive. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a transfer's `index` is out of `volume`'s bounds.
    pub fn run(&mut self, volume: &[f64]) -> f64 {
        let RouteSetSim {
            alloc,
            index,
            fraction,
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
            let f = idx as usize;
            let v = volume[index[f]];
            let b = v * fraction[f];
            if v > 0.0 && b > 0.0 {
                bytes[f] = b;
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
                    last_completion = last_completion.max(at.max(now));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkSim;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wsc_topology::{DeviceId, Mesh, PlatformParams, RouteTable};

    /// `NetworkSim::run_paths` over the transfers a route-set call prices.
    fn reference(topo: &Topology, routes: &[RoutedTransfer<'_>], volume: &[f64]) -> f64 {
        NetworkSim::new(topo)
            .run_paths(routes.iter().filter_map(|r| {
                let v = volume[r.index];
                let bytes = v * r.fraction;
                (v > 0.0 && bytes > 0.0).then_some((0.0, bytes, r.links))
            }))
            .total_time
    }

    proptest! {
        /// One simulator per random route set (mixed hop counts, local
        /// transfers, shared volumes) on a 4×4 or 6×6 mesh, called on
        /// several volume vectors in turn, matches a fresh `NetworkSim` on
        /// every call to the bit. The volumes hold zeros, negatives, values
        /// whose product with a tiny fraction underflows to zero, and
        /// byte counts below the drain epsilon.
        #[test]
        fn matches_network_sim_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = Mesh::new(if rng.gen() { 4 } else { 6 }, PlatformParams::dojo_like()).build();
            let table = RouteTable::build(&topo);
            let n = topo.num_devices() as u32;
            let num_volumes = rng.gen_range(1usize..24);
            let routes: Vec<RoutedTransfer<'_>> = (0..rng.gen_range(0usize..64))
                .map(|_| {
                    let src = DeviceId(rng.gen_range(0..n));
                    let dst = if rng.gen_range(0..8) == 0 { src } else { DeviceId(rng.gen_range(0..n)) };
                    let fraction = match rng.gen_range(0..6) {
                        0 => 1.0e-320,
                        1 => 1.0,
                        _ => rng.gen_range(0.05..1.0),
                    };
                    let index = rng.gen_range(0..num_volumes);
                    RoutedTransfer::new(&topo, index, fraction, table.route(src, dst).links())
                })
                .collect();
            let mut sim = RouteSetSim::new(&topo, &routes);
            prop_assert_eq!(sim.len(), routes.len());
            for call in 0..4 {
                let volume: Vec<f64> = (0..num_volumes)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -1.0e6,
                        2 => 1.0e-4,
                        3 => 1.0e-7,
                        _ => rng.gen_range(1.0e3..1.0e8),
                    })
                    .collect();
                let (got, want) = (sim.run(&volume), reference(&topo, &routes, &volume));
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {}, call {}: route set {} vs network {}",
                    seed,
                    call,
                    got,
                    want
                );
            }
        }
    }
}
