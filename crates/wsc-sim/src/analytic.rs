//! Closed-form congestion estimation.

use std::borrow::Borrow;
use std::cell::RefCell;

use serde::{Deserialize, Serialize};
use wsc_topology::{LinkId, Topology};

use crate::flow::RoutedTransfer;

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
    pub(crate) fn empty(num_links: usize) -> Self {
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
/// use wsc_sim::{AnalyticModel, CongestionModel, FlowSpec};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let a = topo.device_at_xy(0, 0).unwrap();
/// let b = topo.device_at_xy(1, 0).unwrap();
/// let model = AnalyticModel::new(&topo);
/// let est = model.price_flows(&[FlowSpec::new(topo.route(a, b), 4.0e12)]);
/// assert!((est.serialization_time - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct AnalyticModel<'a> {
    topo: &'a Topology,
    /// Reused buffers of the time-only walk.
    scratch: RefCell<LinkScratch>,
}

/// Per-link volumes (all zero between calls) and the links a call touched.
#[derive(Debug, Default)]
struct LinkScratch {
    volume: Vec<f64>,
    touched: Vec<usize>,
}

impl LinkScratch {
    /// Adds `bytes` to every link of `links` (`volume` must already
    /// cover every link).
    fn add(&mut self, links: &[LinkId], bytes: f64) {
        for &l in links {
            let v = &mut self.volume[l.index()];
            if *v == 0.0 {
                self.touched.push(l.index());
            }
            *v += bytes;
        }
    }

    /// The bottleneck serialization time of the volumes added since the
    /// last call, `max_l volume_l / bandwidth_l`, zeroing them.
    fn take_serialization_time(&mut self, topo: &Topology) -> f64 {
        let links = topo.links();
        let mut serialization_time = 0.0_f64;
        for &l in &self.touched {
            serialization_time = serialization_time.max(self.volume[l] / links[l].bandwidth);
            self.volume[l] = 0.0;
        }
        self.touched.clear();
        serialization_time
    }
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

    /// The time-only walk: the `total_time` of [`estimate_paths`] over the
    /// positive-byte transfers, bit for bit, taking each route's latency
    /// precomputed (see [`RoutedTransfer`]). Link volumes accumulate in a
    /// reused buffer and the bottleneck fold visits only the links the
    /// transfers touch (an untouched link adds exactly 0 to a max that
    /// starts at 0).
    pub(crate) fn routes_total_time<'r, T: Borrow<RoutedTransfer<'r>>>(
        &self,
        transfers: impl Iterator<Item = (f64, T)>,
    ) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        scratch.volume.resize(self.topo.num_links(), 0.0);
        let mut latency_time = 0.0_f64;
        for (bytes, transfer) in transfers {
            if bytes <= 0.0 {
                continue;
            }
            let transfer = transfer.borrow();
            scratch.add(transfer.links, bytes);
            latency_time = latency_time.max(transfer.latency);
        }
        scratch.take_serialization_time(self.topo) + latency_time
    }
}

/// The full-estimate walk: the [`AnalyticEstimate`] of concurrent transfers
/// given as `(bytes, route links)` over `topo`. Every tier's full estimate
/// takes its latency, bytes, hops and link volumes from here.
pub(crate) fn estimate_paths<'r>(
    topo: &Topology,
    paths: impl IntoIterator<Item = (f64, &'r [LinkId])>,
) -> AnalyticEstimate {
    let mut est = AnalyticEstimate::empty(topo.num_links());
    for (bytes, links) in paths {
        est.total_bytes += bytes;
        est.max_hops = est.max_hops.max(links.len());
        let mut lat = 0.0;
        for &l in links {
            est.link_volume[l.index()] += bytes;
            lat += topo.link(l).latency;
        }
        est.latency_time = est.latency_time.max(lat);
    }
    est.serialization_time = est
        .link_volume
        .iter()
        .zip(topo.links())
        .map(|(&v, l)| v / l.bandwidth)
        .fold(0.0, f64::max);
    est.total_time = est.serialization_time + est.latency_time;
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CongestionModel;
    use crate::flow::FlowSpec;
    use crate::network::NetworkSim;
    use crate::schedule::FlowSchedule;
    use wsc_topology::{Mesh, PlatformParams, RouteTable};

    #[test]
    fn matches_des_for_single_bottleneck() {
        let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let flows = vec![
            FlowSpec::new(topo.route(a, b), 4.0e9),
            FlowSpec::new(topo.route(a, b), 4.0e9),
        ];
        let est = AnalyticModel::new(&topo).price_flows(&flows);
        let des = NetworkSim::new(&topo).run_concurrent(&flows);
        assert!((est.total_time - des.total_time).abs() / des.total_time < 1e-9);
    }

    #[test]
    fn sequential_composition_adds() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let model = AnalyticModel::new(&topo);
        let one = model.price_flows(&[FlowSpec::new(topo.route(a, b), 1e9)]);
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
        let est = model.price_schedule(&sched);
        let single = model.price_flows(&[FlowSpec::new(topo.route(a, b), 1e9)]);
        assert!((est.total_time - 2.0 * single.total_time).abs() < 1e-15);
    }

    #[test]
    fn pairs_api_skips_zero_volume() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let table = RouteTable::build(&topo);
        let model = AnalyticModel::new(&topo);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let est = model.price_pairs(&table, &[(a, b, 0.0), (a, b, 1e9)]);
        assert_eq!(est.total_bytes, 1e9);
    }
}
