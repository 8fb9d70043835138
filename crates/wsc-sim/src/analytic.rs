//! Closed-form congestion estimation.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};
use wsc_topology::{DeviceId, Route, RouteTable, Topology};

use crate::flow::FlowSpec;
use crate::schedule::FlowSchedule;

/// Closed-form estimate for a set of concurrent flows.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct AnalyticEstimate {
    /// Serialization time of the most-loaded link, seconds
    /// (`max_l volume_l / bandwidth_l`).
    pub serialization_time: f64,
    /// Largest summed route latency among the flows, seconds.
    pub latency_time: f64,
    /// `serialization_time + latency_time`.
    pub total_time: f64,
    /// Bytes accumulated per link (indexed by `LinkId::index`).
    pub link_volume: Vec<f64>,
    /// Total payload bytes.
    pub total_bytes: f64,
    /// Largest hop count among the flows.
    pub max_hops: usize,
}

impl AnalyticEstimate {
    fn empty(num_links: usize) -> Self {
        AnalyticEstimate {
            link_volume: vec![0.0; num_links],
            ..Default::default()
        }
    }

    /// Sequential composition: the other estimate happens after this one.
    pub fn then(mut self, other: &AnalyticEstimate) -> Self {
        self.serialization_time += other.serialization_time;
        self.latency_time += other.latency_time;
        self.total_time += other.total_time;
        for (a, b) in self.link_volume.iter_mut().zip(&other.link_volume) {
            *a += b;
        }
        self.total_bytes += other.total_bytes;
        self.max_hops = self.max_hops.max(other.max_hops);
        self
    }
}

/// Bottleneck-link analytical model: fast congestion-aware latency estimates
/// for large flow sets.
///
/// The estimate for a set of concurrent flows is
/// `max_l (Σ bytes over l) / bandwidth_l + max_f Σ latency(route_f)` —
/// i.e. the most congested link limits the phase, and the longest route's
/// link latency is paid once. This matches the flow-level simulator exactly
/// for uniform single-bottleneck patterns and is within a small factor for
/// mesh all-to-all (validated in the integration tests).
///
/// # Example
///
/// ```
/// use wsc_topology::{Mesh, PlatformParams};
/// use wsc_sim::{AnalyticModel, FlowSpec};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let a = topo.device_at_xy(0, 0).unwrap();
/// let b = topo.device_at_xy(1, 0).unwrap();
/// let model = AnalyticModel::new(&topo);
/// let est = model.estimate_flows(&[FlowSpec::new(topo.route(a, b), 4.0e12)]);
/// assert!((est.serialization_time - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct AnalyticModel<'a> {
    topo: &'a Topology,
    /// Reused buffers of [`AnalyticModel::pairs_total_time`].
    scratch: RefCell<LinkScratch>,
}

/// Per-link volumes (all zero between calls) and the links a call touched.
#[derive(Debug, Default)]
struct LinkScratch {
    volume: Vec<f64>,
    touched: Vec<usize>,
}

impl<'a> AnalyticModel<'a> {
    /// Creates a model over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        AnalyticModel {
            topo,
            scratch: RefCell::default(),
        }
    }

    /// The topology being modelled.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Estimates a set of concurrent flows.
    pub fn estimate_flows(&self, flows: &[FlowSpec]) -> AnalyticEstimate {
        self.estimate_iter(flows.iter().map(|f| (&f.route, f.bytes)))
    }

    /// Estimates concurrent transfers given as `(route, bytes)` pairs,
    /// avoiding `FlowSpec` allocation for hot paths.
    pub fn estimate_iter<'r>(
        &self,
        transfers: impl IntoIterator<Item = (&'r Route, f64)>,
    ) -> AnalyticEstimate {
        let mut est = AnalyticEstimate::empty(self.topo.num_links());
        for (route, bytes) in transfers {
            est.total_bytes += bytes;
            est.max_hops = est.max_hops.max(route.hops());
            let mut lat = 0.0;
            for &l in route.links() {
                est.link_volume[l.index()] += bytes;
                lat += self.topo.link(l).latency;
            }
            est.latency_time = est.latency_time.max(lat);
        }
        est.serialization_time = est
            .link_volume
            .iter()
            .zip(self.topo.links())
            .map(|(&v, l)| v / l.bandwidth)
            .fold(0.0, f64::max);
        est.total_time = est.serialization_time + est.latency_time;
        est
    }

    /// Estimates point-to-point transfers between devices using a
    /// precomputed route table.
    pub fn estimate_pairs(
        &self,
        table: &RouteTable,
        pairs: impl IntoIterator<Item = (DeviceId, DeviceId, f64)>,
    ) -> AnalyticEstimate {
        let mut est = AnalyticEstimate::empty(self.topo.num_links());
        for (src, dst, bytes) in pairs {
            if bytes <= 0.0 {
                continue;
            }
            let route = table.route(src, dst);
            est.total_bytes += bytes;
            est.max_hops = est.max_hops.max(route.hops());
            let mut lat = 0.0;
            for &l in route.links() {
                est.link_volume[l.index()] += bytes;
                lat += self.topo.link(l).latency;
            }
            est.latency_time = est.latency_time.max(lat);
        }
        est.serialization_time = est
            .link_volume
            .iter()
            .zip(self.topo.links())
            .map(|(&v, l)| v / l.bandwidth)
            .fold(0.0, f64::max);
        est.total_time = est.serialization_time + est.latency_time;
        est
    }

    /// The `total_time` of [`AnalyticModel::estimate_pairs`], bit for bit,
    /// without building an estimate: link volumes accumulate in a reused
    /// buffer and the bottleneck fold visits only the links the pairs touch
    /// (an untouched link adds exactly 0 to a max that starts at 0).
    pub(crate) fn pairs_total_time(
        &self,
        table: &RouteTable,
        pairs: &[(DeviceId, DeviceId, f64)],
    ) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        let LinkScratch { volume, touched } = &mut *scratch;
        volume.resize(self.topo.num_links(), 0.0);
        let mut latency_time = 0.0_f64;
        for &(src, dst, bytes) in pairs {
            if bytes <= 0.0 {
                continue;
            }
            let route = table.route(src, dst);
            let mut lat = 0.0;
            for &l in route.links() {
                let v = &mut volume[l.index()];
                if *v == 0.0 {
                    touched.push(l.index());
                }
                *v += bytes;
                lat += self.topo.link(l).latency;
            }
            latency_time = latency_time.max(lat);
        }
        let links = self.topo.links();
        let mut serialization_time = 0.0_f64;
        for &l in touched.iter() {
            serialization_time = serialization_time.max(volume[l] / links[l].bandwidth);
            volume[l] = 0.0;
        }
        touched.clear();
        serialization_time + latency_time
    }

    /// Estimates a phased schedule: phases are sequential, so their
    /// estimates add.
    pub fn estimate_schedule(&self, schedule: &FlowSchedule) -> AnalyticEstimate {
        let mut total = AnalyticEstimate::empty(self.topo.num_links());
        for phase in schedule.phases() {
            let phase_est = self.estimate_flows(&phase.flows);
            total = total.then(&phase_est);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkSim;
    use wsc_topology::{Mesh, PlatformParams};

    #[test]
    fn matches_des_for_single_bottleneck() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let flows = vec![
            FlowSpec::new(topo.route(a, b), 4.0e9),
            FlowSpec::new(topo.route(a, b), 4.0e9),
        ];
        let est = AnalyticModel::new(&topo).estimate_flows(&flows);
        let des = NetworkSim::new(&topo).run_concurrent(&flows);
        assert!((est.total_time - des.total_time).abs() / des.total_time < 1e-9);
    }

    #[test]
    fn sequential_composition_adds() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let model = AnalyticModel::new(&topo);
        let one = model.estimate_flows(&[FlowSpec::new(topo.route(a, b), 1e9)]);
        let two = one.clone().then(&one);
        assert!((two.total_time - 2.0 * one.total_time).abs() < 1e-15);
        assert_eq!(two.total_bytes, 2e9);
    }

    #[test]
    fn schedule_estimate_sums_phases() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let mut sched = FlowSchedule::new();
        sched.push_phase("p0", vec![FlowSpec::new(topo.route(a, b), 1e9)]);
        sched.push_phase("p1", vec![FlowSpec::new(topo.route(b, a), 1e9)]);
        let model = AnalyticModel::new(&topo);
        let est = model.estimate_schedule(&sched);
        let single = model.estimate_flows(&[FlowSpec::new(topo.route(a, b), 1e9)]);
        assert!((est.total_time - 2.0 * single.total_time).abs() < 1e-15);
    }

    #[test]
    fn pairs_api_skips_zero_volume() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let model = AnalyticModel::new(&topo);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let est = model.estimate_pairs(&table, [(a, b, 0.0), (a, b, 1e9)]);
        assert_eq!(est.total_bytes, 1e9);
    }
}
