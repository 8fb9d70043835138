//! Flow descriptions.

use serde::{Deserialize, Serialize};
use wsc_topology::{LinkId, Route, Topology};

/// Identifier of a flow within a single simulation run (dense index, in
/// submission order).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl FlowId {
    /// Returns the flow id as a `usize` suitable for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A point-to-point transfer: a number of bytes pushed along a fixed route.
///
/// A flow with an empty route models a device-local copy and completes
/// instantaneously.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FlowSpec {
    /// The route the flow traverses.
    pub route: Route,
    /// Payload size in bytes.
    pub bytes: f64,
}

impl FlowSpec {
    /// Creates a flow of `bytes` bytes over `route`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    pub fn new(route: Route, bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be a non-negative finite byte count, got {bytes}"
        );
        FlowSpec { route, bytes }
    }

    /// Whether this flow is a device-local no-op.
    pub fn is_local(&self) -> bool {
        self.route.is_empty()
    }
}

/// One transfer of a precomputed route set: `volume[index] × fraction`
/// bytes over `links`, for the time-only
/// [`CongestionModel::price_routes_time`](crate::CongestionModel::price_routes_time).
///
/// A route set is a transfer list whose routes are resolved once (the
/// links are borrowed from a [`RouteTable`](wsc_topology::RouteTable))
/// while its byte counts come from a volume vector that changes per call.
/// It stands for the pair list `(src, dst, volume[index] × fraction)` of
/// the same transfers in the same order, minus the entries with a
/// non-positive volume.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RoutedTransfer<'r> {
    /// Index of the transfer's volume in the priced volume vector.
    pub index: usize,
    /// Share of that volume this transfer carries.
    pub fraction: f64,
    /// The route's links, in order.
    pub links: &'r [LinkId],
    /// The route's summed link latency, added in link order (as the
    /// analytic pair pricing sums it).
    pub latency: f64,
}

impl<'r> RoutedTransfer<'r> {
    /// A transfer of `fraction` of `volume[index]` over `links` of `topo`.
    pub fn new(topo: &Topology, index: usize, fraction: f64, links: &'r [LinkId]) -> Self {
        let mut latency = 0.0;
        for &l in links {
            latency += topo.link(l).latency;
        }
        RoutedTransfer {
            index,
            fraction,
            links,
            latency,
        }
    }
}

/// The transfers of `routes` with their byte counts,
/// `(volume[index] × fraction, transfer)`, skipping those whose volume is
/// `<= 0` (as the flat all-to-all expansion skips an unloaded
/// destination). A product that is not positive is still yielded; each
/// backend skips it by its own pair rule.
pub(crate) fn routed_bytes<'s, 'r>(
    routes: &'s [RoutedTransfer<'r>],
    volume: &'s [f64],
) -> impl Iterator<Item = (f64, &'s RoutedTransfer<'r>)> {
    routes.iter().filter_map(|r| {
        let v = volume[r.index];
        if v <= 0.0 {
            None
        } else {
            Some((v * r.fraction, r))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_flow_detection() {
        assert!(FlowSpec::new(Route::default(), 100.0).is_local());
        let r = Route::new(vec![LinkId(0)]);
        assert!(!FlowSpec::new(r, 100.0).is_local());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bytes_rejected() {
        let _ = FlowSpec::new(Route::default(), -1.0);
    }

    #[test]
    fn zero_byte_flow_allowed() {
        let f = FlowSpec::new(Route::default(), 0.0);
        assert_eq!(f.bytes, 0.0);
    }
}
