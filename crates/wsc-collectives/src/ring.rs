//! Ring collectives over arbitrary ordered device rings.

use serde::{Deserialize, Serialize};
use wsc_sim::{FlowSchedule, FlowSpec};
use wsc_topology::{DeviceId, Topology};

/// An ordered ring of devices. Step `s` sends from `devices[i]` to
/// `devices[(i+1) % n]` (and the reverse for the counter-rotating half of a
/// bidirectional collective).
///
/// The physical distance between consecutive ring members is arbitrary: the
/// baseline mapping uses neighbouring dies (1-hop steps), ER-Mapping uses
/// stride-`a` "entwined" rings (multi-hop steps).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Ring {
    devices: Vec<DeviceId>,
}

impl Ring {
    /// Creates a ring from an ordered device list.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two devices are given or if a device repeats.
    pub fn new(devices: Vec<DeviceId>) -> Self {
        assert!(devices.len() >= 2, "a ring needs at least two devices");
        let mut sorted = devices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), devices.len(), "ring devices must be unique");
        Ring { devices }
    }

    /// The devices in ring order.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Number of ring members.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Rings are never empty; provided for clippy-completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The successor of position `i`.
    pub fn next(&self, i: usize) -> DeviceId {
        self.devices[(i + 1) % self.devices.len()]
    }
}

/// Builds one directional pass of `steps` ring steps, each sending
/// `chunk_bytes` from every member to its successor (or predecessor when
/// `reverse`).
fn ring_pass(
    topo: &Topology,
    ring: &Ring,
    chunk_bytes: f64,
    steps: usize,
    reverse: bool,
    label: &str,
    schedule: &mut FlowSchedule,
) {
    let n = ring.len();
    for step in 0..steps {
        let flows = (0..n)
            .map(|i| {
                let (src, dst) = if reverse {
                    (ring.devices[(i + 1) % n], ring.devices[i])
                } else {
                    (ring.devices[i], ring.devices[(i + 1) % n])
                };
                FlowSpec::new(topo.route(src, dst), chunk_bytes)
            })
            .collect();
        schedule.push_phase(format!("{label}-step{step}"), flows);
    }
}

/// Ring reduce-scatter: after `n-1` steps each member holds the fully
/// reduced `1/n` shard of the buffer.
///
/// `bytes_per_device` is the full buffer size on each member; each step
/// moves one `bytes/n` chunk per member. The collective is bidirectional
/// (paper Fig. 8d: "packages are sent bi-directionally"): each direction
/// carries half of every chunk, halving the per-step serialization time on
/// duplex links.
pub fn ring_reduce_scatter(topo: &Topology, ring: &Ring, bytes_per_device: f64) -> FlowSchedule {
    let n = ring.len();
    let mut schedule = FlowSchedule::new();
    if n == 2 {
        // Two members exchange their halves directly in one step.
        schedule.push_phase(
            "rs-step0",
            pair_exchange(topo, ring, bytes_per_device / 2.0),
        );
        return schedule;
    }
    let chunk = bytes_per_device / n as f64 / 2.0;
    for step in 0..n - 1 {
        let mut flows = Vec::with_capacity(2 * n);
        for i in 0..n {
            flows.push(FlowSpec::new(
                topo.route(ring.devices[i], ring.devices[(i + 1) % n]),
                chunk,
            ));
            flows.push(FlowSpec::new(
                topo.route(ring.devices[(i + 1) % n], ring.devices[i]),
                chunk,
            ));
        }
        schedule.push_phase(format!("rs-step{step}"), flows);
    }
    schedule
}

/// Ring all-gather: after `n-1` steps each member holds all `n` shards.
/// Bidirectional, like [`ring_reduce_scatter`].
pub fn ring_all_gather(topo: &Topology, ring: &Ring, bytes_per_device: f64) -> FlowSchedule {
    // Identical traffic pattern to reduce-scatter (chunks rotate instead of
    // reducing, but the flows are the same).
    let mut schedule = FlowSchedule::new();
    let n = ring.len();
    if n == 2 {
        schedule.push_phase(
            "ag-step0",
            pair_exchange(topo, ring, bytes_per_device / 2.0),
        );
        return schedule;
    }
    let chunk = bytes_per_device / n as f64 / 2.0;
    for step in 0..n - 1 {
        let mut flows = Vec::with_capacity(2 * n);
        for i in 0..n {
            flows.push(FlowSpec::new(
                topo.route(ring.devices[i], ring.devices[(i + 1) % n]),
                chunk,
            ));
            flows.push(FlowSpec::new(
                topo.route(ring.devices[(i + 1) % n], ring.devices[i]),
                chunk,
            ));
        }
        schedule.push_phase(format!("ag-step{step}"), flows);
    }
    schedule
}

/// The two flows of a 2-member exchange.
fn pair_exchange(topo: &Topology, ring: &Ring, bytes: f64) -> Vec<FlowSpec> {
    let (a, b) = (ring.devices[0], ring.devices[1]);
    vec![
        FlowSpec::new(topo.route(a, b), bytes),
        FlowSpec::new(topo.route(b, a), bytes),
    ]
}

/// Ring all-reduce: reduce-scatter followed by all-gather
/// (`2(n-1)` steps total).
pub fn ring_all_reduce(topo: &Topology, ring: &Ring, bytes_per_device: f64) -> FlowSchedule {
    let mut schedule = ring_reduce_scatter(topo, ring, bytes_per_device);
    for phase in ring_all_gather(topo, ring, bytes_per_device).phases() {
        schedule.push_phase(phase.label.clone(), phase.flows.clone());
    }
    schedule
}

/// Unidirectional single-pass ring (used by the inter-node stage of the
/// hierarchical all-reduce, where duplex sharing is handled differently).
pub fn ring_pass_unidirectional(
    topo: &Topology,
    ring: &Ring,
    chunk_bytes: f64,
    steps: usize,
    label: &str,
) -> FlowSchedule {
    let mut schedule = FlowSchedule::new();
    ring_pass(topo, ring, chunk_bytes, steps, false, label, &mut schedule);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_sim::{AnalyticModel, CongestionModel, FlowSimBackend};
    use wsc_topology::{Mesh, PlatformParams};

    /// A Hamiltonian cycle over an n×n mesh (n even): boustrophedon over
    /// columns 1..n, returning along column 0. Every ring hop is exactly one
    /// mesh link, so no two ring flows share a link.
    fn hamiltonian_ring(topo: &Topology, n: u16) -> Ring {
        let mut devices = vec![topo.device_at_xy(0, 0).unwrap()];
        for y in 0..n {
            let xs: Vec<u16> = if y % 2 == 0 {
                (1..n).collect()
            } else {
                (1..n).rev().collect()
            };
            for x in xs {
                devices.push(topo.device_at_xy(x, y).unwrap());
            }
        }
        for y in (1..n).rev() {
            devices.push(topo.device_at_xy(0, y).unwrap());
        }
        Ring::new(devices)
    }

    #[test]
    fn all_reduce_has_2n_minus_2_phases() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let ring = hamiltonian_ring(&topo, 4);
        let sched = ring_all_reduce(&topo, &ring, 1.0e6);
        assert_eq!(sched.num_phases(), 2 * (16 - 1));
    }

    #[test]
    fn total_bytes_matches_theory() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let ring = hamiltonian_ring(&topo, 2);
        let bytes = 1.0e6;
        let sched = ring_all_reduce(&topo, &ring, bytes);
        // Each member ships 2(n-1)/n × bytes in total.
        let n = 4.0;
        let expect = n * 2.0 * (n - 1.0) / n * bytes;
        assert!((sched.total_bytes() - expect).abs() < 1.0);
    }

    #[test]
    fn neighbour_ring_time_matches_alpha_beta() {
        // A 1-hop ring over duplex links: each step both directions carry
        // bytes/(2n), so step time = bytes/(2n)/bw + hop latency.
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let ring = hamiltonian_ring(&topo, 4);
        let bytes = 64.0e6;
        let sched = ring_all_reduce(&topo, &ring, bytes);
        let result = FlowSimBackend::new(&topo).price_schedule(&sched);
        let n = 16.0;
        let params = PlatformParams::dojo_like();
        let step = bytes / (2.0 * n) / params.on_wafer_bw + params.on_wafer_latency;
        let expect = 2.0 * (n - 1.0) * step;
        let err = (result.total_time - expect).abs() / expect;
        assert!(err < 1e-6, "{} vs {}", result.total_time, expect);
    }

    #[test]
    fn analytic_model_agrees_with_des_on_rings() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let ring = hamiltonian_ring(&topo, 4);
        let sched = ring_all_reduce(&topo, &ring, 8.0e6);
        let des = FlowSimBackend::new(&topo).price_schedule(&sched).total_time;
        let est = AnalyticModel::new(&topo).price_schedule(&sched).total_time;
        assert!((des - est).abs() / des < 1e-6, "{des} vs {est}");
    }

    #[test]
    #[should_panic(expected = "must be unique")]
    fn duplicate_ring_members_rejected() {
        let _ = Ring::new(vec![DeviceId(0), DeviceId(1), DeviceId(0)]);
    }

    #[test]
    fn ring_next_wraps() {
        let r = Ring::new(vec![DeviceId(3), DeviceId(5), DeviceId(9)]);
        assert_eq!(r.next(2), DeviceId(3));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }
}
