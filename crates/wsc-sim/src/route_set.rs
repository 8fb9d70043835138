//! The flow-level DES of one route set, built once and run per call.

use wsc_topology::Topology;

use crate::flow::RoutedTransfer;
use crate::network::EventLoop;

/// The discrete-event simulation of one route set (see [`RoutedTransfer`]),
/// kept across calls that price it with different volumes.
///
/// A caller that prices the same routes many times (the engine prices the
/// dispatch and combine route sets of its layout on every stride layer)
/// pays for what does not change only once: the routes are registered in
/// one allocator, the activation order is sorted from
/// [`RoutedTransfer::latency`], and every per-flow buffer is kept. A call
/// takes only the volumes and returns only the makespan.
///
/// [`RouteSetSim::run`] runs the event loop of
/// [`NetworkSim::run_paths`](crate::NetworkSim::run_paths), so it gives the
/// latter's `total_time` over the same transfers (those with a positive
/// volume and a positive byte count, in route-set order, all submitted at
/// time zero) bit for bit.
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
    flows: EventLoop,
    /// Per flow: the index of its volume and its share of it.
    index: Vec<usize>,
    fraction: Vec<f64>,
}

impl RouteSetSim {
    /// Registers `routes` over `topo`'s links.
    ///
    /// # Panics
    ///
    /// Panics if a route has a link outside `topo`.
    pub fn new(topo: &Topology, routes: &[RoutedTransfer<'_>]) -> Self {
        // `NetworkSim` activates a flow at its submission time (zero) plus
        // `Topology::path_latency`, which on a non-empty route is
        // bit-equal to `latency`; on an empty one both sums give zero.
        RouteSetSim {
            flows: EventLoop::new(topo, routes.iter().map(|r| (0.0 + r.latency, r.links))),
            index: routes.iter().map(|r| r.index).collect(),
            fraction: routes.iter().map(|r| r.fraction).collect(),
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
            flows,
            index,
            fraction,
        } = self;
        flows.run(
            |f| {
                let v = volume[index[f]];
                let b = v * fraction[f];
                (v > 0.0 && b > 0.0).then_some(b)
            },
            |_, _| {},
        )
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

    /// The `NetworkSim::run_paths` makespan of the transfers a route-set
    /// call prices, on the incremental loop or on the full-recompute
    /// reference loop.
    fn network_time(
        topo: &Topology,
        routes: &[RoutedTransfer<'_>],
        volume: &[f64],
        reference: bool,
    ) -> f64 {
        NetworkSim::new(topo)
            .use_reference_allocator(reference)
            .run_paths(routes.iter().filter_map(|r| {
                let v = volume[r.index];
                let bytes = v * r.fraction;
                (v > 0.0 && bytes > 0.0).then_some((0.0, bytes, r.links))
            }))
            .total_time
    }

    /// A transfer with a positive volume whose byte count underflows to
    /// zero is skipped like one of zero volume. It rides the set's
    /// longest-latency route, so running it would stretch the makespan to
    /// that route's latency.
    #[test]
    fn skips_a_transfer_whose_bytes_underflow() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let at = |x, y| topo.device_at_xy(x, y).unwrap();
        let short = table.route(at(0, 0), at(1, 0)).links();
        let routes = [
            RoutedTransfer::new(&topo, 0, 1.0, short),
            RoutedTransfer::new(&topo, 1, 1.0e-320, table.route(at(0, 0), at(3, 3)).links()),
        ];
        let volume = [1.0e3, 1.0e-4];
        assert!(volume[1] > 0.0 && volume[1] * routes[1].fraction == 0.0);
        let makespan = RouteSetSim::new(&topo, &routes).run(&volume);
        let alone = NetworkSim::new(&topo)
            .run_paths([(0.0, volume[0], short)])
            .total_time;
        assert_eq!(makespan.to_bits(), alone.to_bits());
        assert!(
            makespan < routes[1].latency,
            "{makespan} s against the long route's {} s",
            routes[1].latency
        );
    }

    proptest! {
        /// One simulator per random route set (mixed hop counts, local
        /// transfers, shared volumes) on a 4×4 or 6×6 mesh, called on
        /// several volume vectors in turn, matches a fresh `NetworkSim` on
        /// every call to the bit, and the full-recompute reference loop at
        /// 1e-9 relative. The volumes hold zeros, negatives, values whose
        /// product with a tiny fraction underflows to zero, and byte counts
        /// below the drain epsilon.
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
                let got = sim.run(&volume);
                let want = network_time(&topo, &routes, &volume, false);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {}, call {}: route set {} vs network {}",
                    seed,
                    call,
                    got,
                    want
                );
                let oracle = network_time(&topo, &routes, &volume, true);
                prop_assert!(
                    (got - oracle).abs() <= 1e-9 * got.abs().max(oracle.abs()),
                    "seed {}, call {}: route set {} vs reference loop {}",
                    seed,
                    call,
                    got,
                    oracle
                );
            }
        }
    }
}
