//! Closed-form α-β reference costs for validating schedules, plus
//! backend-driven pricing of the schedules themselves.
//!
//! The closed forms are paper Eq. 1-style references; [`backend_disagreement`]
//! prices an actual [`FlowSchedule`] through two [`CongestionModel`]
//! backends ([`CongestionModel::price_schedule`]), so per-collective
//! experiments can spot-check the fast analytic estimate against the DES on
//! the same schedule. All
//! three fidelity tiers (analytic / cached DES / full DES — see
//! `wsc_sim::CongestionBackend`) plug in here; collective sweeps that price
//! the same schedule shape repeatedly should prefer the cached tier, whose
//! estimates are bit-identical to the full DES.

use wsc_sim::{CongestionModel, FlowSchedule};

/// Relative disagreement between two backends on one schedule:
/// `|t_a − t_b| / t_b` (with `t_b` from `reference`). Zero-time schedules
/// report zero disagreement.
///
/// This is the per-collective validation primitive behind the
/// `tests/analytic_vs_des.rs` contract and the Fig. spot-checks.
pub fn backend_disagreement(
    candidate: &dyn CongestionModel,
    reference: &dyn CongestionModel,
    schedule: &FlowSchedule,
) -> f64 {
    let t_ref = reference.price_schedule(schedule).total_time;
    if t_ref == 0.0 {
        return 0.0;
    }
    (candidate.price_schedule(schedule).total_time - t_ref).abs() / t_ref
}

/// Closed-form time of a bidirectional 1-hop ring all-reduce of `n` members
/// with `bytes` per member over duplex links of `bandwidth` (per direction)
/// and per-hop `latency`:
///
/// `2(n-1) × (bytes / (2n·bandwidth) + latency)`.
///
/// # Example
///
/// ```
/// let t = wsc_collectives::cost::ring_all_reduce_time(4, 8.0e6, 4.0e12, 50e-9);
/// assert!(t > 0.0);
/// ```
pub fn ring_all_reduce_time(n: usize, bytes: f64, bandwidth: f64, latency: f64) -> f64 {
    let n_f = n as f64;
    2.0 * (n_f - 1.0) * (bytes / (2.0 * n_f * bandwidth) + latency)
}

/// Closed-form time of a staggered multi-hop ring all-reduce:
/// `parities ×` the single-ring time with `hops`-hop steps.
pub fn staggered_all_reduce_time(
    n: usize,
    bytes: f64,
    bandwidth: f64,
    latency: f64,
    hops: usize,
    parities: usize,
) -> f64 {
    let n_f = n as f64;
    parities as f64 * 2.0 * (n_f - 1.0) * (bytes / (2.0 * n_f * bandwidth) + hops as f64 * latency)
}

/// Lower bound for an all-to-all where every device sends `bytes_per_pair`
/// to each of the `n-1` others through a per-device injection bandwidth
/// `bandwidth`: the egress-limited time.
pub fn all_to_all_injection_bound(n: usize, bytes_per_pair: f64, bandwidth: f64) -> f64 {
    (n as f64 - 1.0) * bytes_per_pair / bandwidth
}

/// Bisection-limited lower bound for uniform all-to-all on an `n×n` mesh:
/// half the traffic must cross the `n` center column links (per direction).
pub fn mesh_all_to_all_bisection_bound(n: usize, bytes_per_pair: f64, bandwidth: f64) -> f64 {
    let devices = (n * n) as f64;
    // Pairs crossing the bisection in one direction: (devices/2)^2.
    let crossing_bytes = (devices / 2.0) * (devices / 2.0) * bytes_per_pair;
    crossing_bytes / (n as f64 * bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::{all_to_all_concurrent, uniform_all_to_all_matrix};
    use crate::ring::{ring_all_reduce, Ring};
    use wsc_sim::{CongestionBackend, FlowSimBackend};
    use wsc_topology::{Mesh, PlatformParams};

    #[test]
    fn both_backends_match_closed_form_ring_all_reduce() {
        let params = PlatformParams::dojo_like();
        let topo = Mesh::new(2, params).build();
        // 1-hop Hamiltonian cycle, as the closed form assumes.
        let ring = Ring::new(vec![
            topo.device_at_xy(0, 0).unwrap(),
            topo.device_at_xy(1, 0).unwrap(),
            topo.device_at_xy(1, 1).unwrap(),
            topo.device_at_xy(0, 1).unwrap(),
        ]);
        let bytes = 8.0e6;
        let sched = ring_all_reduce(&topo, &ring, bytes);
        let reference = ring_all_reduce_time(4, bytes, params.on_wafer_bw, params.on_wafer_latency);
        for kind in CongestionBackend::all() {
            let t = kind.build(&topo).price_schedule(&sched).total_time;
            assert!(
                (t - reference).abs() / reference < 1e-6,
                "{kind}: {t} vs closed form {reference}"
            );
        }
    }

    #[test]
    fn backend_disagreement_is_zero_against_itself_and_bounded_on_a2a() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let sched = all_to_all_concurrent(&topo, &uniform_all_to_all_matrix(&topo, 1.0e6));
        let analytic = CongestionBackend::Analytic.build(&topo);
        let des = CongestionBackend::FlowSim.build(&topo);
        assert_eq!(
            backend_disagreement(analytic.as_ref(), analytic.as_ref(), &sched),
            0.0
        );
        let gap = backend_disagreement(analytic.as_ref(), des.as_ref(), &sched);
        assert!(
            gap < 1.0,
            "analytic vs DES diverged by {gap:.2} on uniform a2a"
        );
    }

    #[test]
    fn cached_des_prices_collectives_identically_to_des() {
        // The memoizing tier must be invisible fidelity-wise: zero
        // disagreement (bit-identical totals) with the full DES on the same
        // entwined all-to-all schedule, on first pricing and on replay.
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let sched = all_to_all_concurrent(&topo, &uniform_all_to_all_matrix(&topo, 1.0e6));
        let des = CongestionBackend::FlowSim.build(&topo);
        let cached = CongestionBackend::FlowSimCached.build(&topo);
        assert_eq!(
            backend_disagreement(cached.as_ref(), des.as_ref(), &sched),
            0.0
        );
        // Replay hits the cache and must return the very same number.
        assert_eq!(
            cached.price_schedule(&sched).total_time,
            des.price_schedule(&sched).total_time
        );
    }

    #[test]
    fn staggered_cost_is_parities_times_base_with_hop_latency() {
        let base = ring_all_reduce_time(4, 1e6, 1e12, 1e-7);
        let twice = staggered_all_reduce_time(4, 1e6, 1e12, 1e-7, 1, 2);
        assert!((twice - 2.0 * base).abs() < 1e-15);
    }

    #[test]
    fn mesh_a2a_respects_bisection_bound() {
        let params = PlatformParams::dojo_like();
        let topo = Mesh::new(4, params).build();
        let bytes = 1.0e6;
        let sched = all_to_all_concurrent(&topo, &uniform_all_to_all_matrix(&topo, bytes));
        let t = FlowSimBackend::new(&topo).price_schedule(&sched).total_time;
        let bound = mesh_all_to_all_bisection_bound(4, bytes, params.on_wafer_bw);
        assert!(t >= bound * 0.99, "{t} vs bound {bound}");
    }

    #[test]
    fn injection_bound_below_simulated() {
        let params = PlatformParams::dojo_like();
        let topo = Mesh::new(4, params).build();
        let bytes = 1.0e6;
        let sched = all_to_all_concurrent(&topo, &uniform_all_to_all_matrix(&topo, bytes));
        let t = FlowSimBackend::new(&topo).price_schedule(&sched).total_time;
        // Corner devices inject over 2 links.
        let bound = all_to_all_injection_bound(16, bytes, 2.0 * params.on_wafer_bw);
        assert!(t >= bound, "{t} vs {bound}");
    }
}
