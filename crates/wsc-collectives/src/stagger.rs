//! Time-staggered entwined rings (paper §IV-B2, Fig. 8d).
//!
//! Under ER-Mapping each TP group's all-reduce ring takes multi-hop steps
//! whose routes pass *through* members of other rings, so two rings can
//! contend for the same physical link. The paper's resolution: transfers on
//! intersecting links are time-staggered — each logical ring step is split
//! into parity sub-phases, and rings only transmit in their assigned parity
//! sub-phase. With the parity chosen from each ring's coordinate offset, no
//! two rings ever share a link within a sub-phase, so "while two-hop doubles
//! the all-reduce latency, the intersection does not worsen the latency".

use serde::{Deserialize, Serialize};
use wsc_sim::{FlowSchedule, FlowSpec};
use wsc_topology::Topology;

use crate::ring::Ring;

/// A set of rings executing the same collective in lock-step, with a parity
/// schedule resolving their link intersections.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StaggeredRings {
    /// The rings (one per TP group under ER-Mapping).
    pub rings: Vec<Ring>,
    /// `parity[r]` — the sub-phase in `0..num_parities` in which ring `r`
    /// transmits. Derived from the ring's coordinate offset by the mapping
    /// layer.
    pub parity: Vec<usize>,
    /// Number of parity sub-phases per logical ring step.
    pub num_parities: usize,
}

impl StaggeredRings {
    /// Creates a staggered ring set.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty, lengths mismatch, rings differ in size,
    /// or a parity is out of range.
    pub fn new(rings: Vec<Ring>, parity: Vec<usize>, num_parities: usize) -> Self {
        assert!(!rings.is_empty(), "need at least one ring");
        assert_eq!(rings.len(), parity.len(), "one parity per ring");
        assert!(num_parities >= 1, "need at least one parity class");
        let n = rings[0].len();
        assert!(
            rings.iter().all(|r| r.len() == n),
            "all rings must have equal length"
        );
        assert!(
            parity.iter().all(|&p| p < num_parities),
            "parity out of range"
        );
        StaggeredRings {
            rings,
            parity,
            num_parities,
        }
    }

    /// Ring length (devices per ring).
    pub fn ring_len(&self) -> usize {
        self.rings[0].len()
    }
}

/// Builds the bidirectional staggered ring all-reduce schedule.
///
/// Each of the `2(n-1)` logical ring steps expands into `num_parities`
/// sub-phases; ring `r` places its step flows (both directions, half the
/// chunk each) in sub-phase `parity[r]`.
///
/// The resulting schedule has `2(n-1) × num_parities` phases. When the
/// parity assignment is correct (verified by
/// [`phases_are_link_disjoint`]), every sub-phase is contention-free, so the
/// collective completes in `num_parities ×` the single-ring time — the
/// "doubled but not congested" behaviour of the paper for
/// `num_parities == 2`.
pub fn staggered_ring_all_reduce(
    topo: &Topology,
    rings: &StaggeredRings,
    bytes_per_device: f64,
) -> FlowSchedule {
    staggered_pass(topo, rings, bytes_per_device, &["rs", "ag"])
}

/// The reduce-scatter half of [`staggered_ring_all_reduce`] alone — used by
/// the hierarchical (multi-wafer) all-reduce, which replaces the intra-wafer
/// all-gather with an inter-wafer one (paper §IV-B4).
pub fn staggered_ring_reduce_scatter(
    topo: &Topology,
    rings: &StaggeredRings,
    bytes_per_device: f64,
) -> FlowSchedule {
    staggered_pass(topo, rings, bytes_per_device, &["rs"])
}

fn staggered_pass(
    topo: &Topology,
    rings: &StaggeredRings,
    bytes_per_device: f64,
    halves: &[&str],
) -> FlowSchedule {
    let n = rings.ring_len();
    let chunk = bytes_per_device / n as f64 / 2.0;
    let mut schedule = FlowSchedule::new();
    // Reduce-scatter then all-gather: identical flow patterns.
    for half in halves {
        for step in 0..n - 1 {
            for p in 0..rings.num_parities {
                let mut flows = Vec::new();
                for (r, ring) in rings.rings.iter().enumerate() {
                    if rings.parity[r] != p {
                        continue;
                    }
                    let devices = ring.devices();
                    if n == 2 {
                        // Two members exchange their halves directly.
                        flows.push(FlowSpec::new(
                            topo.route(devices[0], devices[1]),
                            bytes_per_device / 2.0,
                        ));
                        flows.push(FlowSpec::new(
                            topo.route(devices[1], devices[0]),
                            bytes_per_device / 2.0,
                        ));
                        continue;
                    }
                    for i in 0..n {
                        flows.push(FlowSpec::new(
                            topo.route(devices[i], devices[(i + 1) % n]),
                            chunk,
                        ));
                        flows.push(FlowSpec::new(
                            topo.route(devices[(i + 1) % n], devices[i]),
                            chunk,
                        ));
                    }
                }
                schedule.push_phase(format!("{half}-step{step}-p{p}"), flows);
            }
        }
    }
    schedule
}

/// Checks that every phase of `schedule` is link-disjoint: no two flows in
/// the same phase traverse the same link. This is the no-conflict property
/// the paper claims for entwined rings (Fig. 8d).
pub fn phases_are_link_disjoint(schedule: &FlowSchedule, topo: &Topology) -> bool {
    let mut seen = vec![0u32; topo.num_links()];
    let mut generation = 0u32;
    for phase in schedule.phases() {
        generation += 1;
        for flow in &phase.flows {
            for &l in flow.route.links() {
                if seen[l.index()] == generation {
                    return false;
                }
                seen[l.index()] = generation;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_sim::{CongestionModel, FlowSimBackend};
    use wsc_topology::{DeviceId, Mesh, PlatformParams};

    /// The paper's 4×4 / TP=(2,2) example: four entwined rings with stride-2
    /// steps; rings whose x-offset is 0 get parity 0, x-offset 1 parity 1.
    fn er_rings(topo: &wsc_topology::Topology) -> StaggeredRings {
        let dev = |x: u16, y: u16| topo.device_at_xy(x, y).unwrap();
        let mut rings = Vec::new();
        let mut parity = Vec::new();
        for oy in 0..2u16 {
            for ox in 0..2u16 {
                rings.push(Ring::new(vec![
                    dev(ox, oy),
                    dev(ox + 2, oy),
                    dev(ox + 2, oy + 2),
                    dev(ox, oy + 2),
                ]));
                parity.push(((ox + oy) % 2) as usize);
            }
        }
        StaggeredRings::new(rings, parity, 2)
    }

    #[test]
    fn stagger_eliminates_link_conflicts() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let rings = er_rings(&topo);
        let sched = staggered_ring_all_reduce(&topo, &rings, 1.0e6);
        assert!(phases_are_link_disjoint(&sched, &topo));
    }

    #[test]
    fn unstaggered_rings_do_conflict() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let mut rings = er_rings(&topo);
        // Put everything in one parity class: conflicts appear.
        rings.parity = vec![0; rings.rings.len()];
        rings.num_parities = 1;
        let sched = staggered_ring_all_reduce(&topo, &rings, 1.0e6);
        assert!(!phases_are_link_disjoint(&sched, &topo));
    }

    #[test]
    fn two_hop_staggered_is_about_twice_single_ring() {
        // Paper §IV-B2: "two-hop doubles the all-reduce latency, [but] the
        // intersection does not worsen the latency".
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let bytes = 16.0e6;
        let staggered = staggered_ring_all_reduce(&topo, &er_rings(&topo), bytes);
        let des = FlowSimBackend::new(&topo);
        let t_staggered = des.price_schedule(&staggered).total_time;

        // A single contiguous 4-member 1-hop ring of the baseline mapping.
        let dev = |x: u16, y: u16| topo.device_at_xy(x, y).unwrap();
        let base = crate::ring::ring_all_reduce(
            &topo,
            &Ring::new(vec![dev(0, 0), dev(1, 0), dev(1, 1), dev(0, 1)]),
            bytes,
        );
        let t_base = des.price_schedule(&base).total_time;
        let ratio = t_staggered / t_base;
        assert!(
            (1.8..=2.3).contains(&ratio),
            "expected ≈2× slowdown, got {ratio}"
        );
    }

    #[test]
    fn phase_count() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let sched = staggered_ring_all_reduce(&topo, &er_rings(&topo), 1.0);
        // 2(n-1) logical steps × 2 parities, n=4.
        assert_eq!(sched.num_phases(), 2 * 3 * 2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_ring_lengths_rejected() {
        let r1 = Ring::new(vec![DeviceId(0), DeviceId(1)]);
        let r2 = Ring::new(vec![DeviceId(2), DeviceId(3), DeviceId(4)]);
        StaggeredRings::new(vec![r1, r2], vec![0, 1], 2);
    }
}
