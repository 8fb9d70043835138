//! Platform and mapping specifications.

use moentwine_core::comm::ClusterLayout;
use moentwine_core::mapping::{BaselineMapping, ErMapping, HierarchicalErMapping};
use moentwine_core::ConfigError;
use wsc_topology::{
    DgxCluster, FlatSwitch, Mesh, MultiWafer, PlatformParams, RouteTable, Topology,
};

use crate::scenario::Layout;

/// The most devices a platform spec may describe: 8× the largest shipped
/// platform (multi-wsc 2×2 of 8×8, 256 devices). The all-pairs route
/// table grows with the square of the count (a 65,535-device flat switch
/// needs 17 GB), so a larger platform is rejected as
/// [`ConfigError::TooManyDevices`] at parse and before any topology is
/// built.
pub const MAX_PLATFORM_DEVICES: u64 = 2048;

/// Which interconnect a scenario runs on (the paper's §VI-A1 platforms).
///
/// Bandwidth/latency parameters are the paper's fixed per-kind presets
/// ([`PlatformParams::dojo_like`] and friends); the spec selects the
/// *shape*, which is what the evaluation space sweeps.
#[derive(Clone, PartialEq, Debug)]
pub enum PlatformSpec {
    /// Single wafer, `n × n` dies.
    Wsc {
        /// Mesh side length.
        n: u16,
    },
    /// Multi-wafer grid of `wafers_x × wafers_y` wafers, each `n × n`.
    MultiWsc {
        /// Wafers along x.
        wafers_x: u16,
        /// Wafers along y.
        wafers_y: u16,
        /// Per-wafer mesh side length.
        n: u16,
    },
    /// DGX cluster of `nodes` 8-GPU boxes.
    Dgx {
        /// Number of nodes.
        nodes: u16,
    },
    /// NVL72 supernode (72 devices behind one switch fabric).
    Nvl72,
    /// Flat supernode of `devices` devices behind one switch.
    Flat {
        /// Device count.
        devices: u16,
    },
}

impl PlatformSpec {
    /// Single wafer `n × n` (builder shorthand).
    pub fn wsc(n: u16) -> Self {
        PlatformSpec::Wsc { n }
    }

    /// Multi-wafer grid (builder shorthand).
    pub fn multi_wsc(wafers_x: u16, wafers_y: u16, n: u16) -> Self {
        PlatformSpec::MultiWsc {
            wafers_x,
            wafers_y,
            n,
        }
    }

    /// DGX cluster (builder shorthand).
    pub fn dgx(nodes: u16) -> Self {
        PlatformSpec::Dgx { nodes }
    }

    /// Stable lowercase kind tag used by the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            PlatformSpec::Wsc { .. } => "wsc",
            PlatformSpec::MultiWsc { .. } => "multi-wsc",
            PlatformSpec::Dgx { .. } => "dgx",
            PlatformSpec::Nvl72 => "nvl72",
            PlatformSpec::Flat { .. } => "flat",
        }
    }

    /// Devices the platform would have, computed without building it
    /// (a DGX node holds 8 GPUs).
    pub fn num_devices(&self) -> u64 {
        let square = |n: u16| u64::from(n) * u64::from(n);
        match *self {
            PlatformSpec::Wsc { n } => square(n),
            PlatformSpec::MultiWsc {
                wafers_x,
                wafers_y,
                n,
            } => u64::from(wafers_x) * u64::from(wafers_y) * square(n),
            PlatformSpec::Dgx { nodes } => u64::from(nodes) * 8,
            PlatformSpec::Nvl72 => 72,
            PlatformSpec::Flat { devices } => u64::from(devices),
        }
    }

    /// Checks the device count against [`MAX_PLATFORM_DEVICES`] without
    /// building anything.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TooManyDevices`] when the platform is larger.
    pub(crate) fn check_size(&self) -> Result<(), ConfigError> {
        let devices = self.num_devices();
        if devices > MAX_PLATFORM_DEVICES {
            return Err(ConfigError::TooManyDevices {
                devices,
                max: MAX_PLATFORM_DEVICES,
            });
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns a spec error for degenerate shapes (zero extents), and
    /// [`ConfigError::TooManyDevices`] past [`MAX_PLATFORM_DEVICES`].
    pub fn build_topology(&self) -> Result<Topology, ConfigError> {
        self.check_size()?;
        let nonzero = |value: u16, field: &str| {
            if value == 0 {
                Err(ConfigError::spec(
                    format!("platform.{field}"),
                    "must be ≥ 1",
                ))
            } else {
                Ok(value)
            }
        };
        Ok(match *self {
            PlatformSpec::Wsc { n } => {
                Mesh::new(nonzero(n, "n")?, PlatformParams::dojo_like()).build()
            }
            PlatformSpec::MultiWsc {
                wafers_x,
                wafers_y,
                n,
            } => MultiWafer::grid(
                nonzero(wafers_x, "wafers_x")?,
                nonzero(wafers_y, "wafers_y")?,
                nonzero(n, "n")?,
                PlatformParams::dojo_like(),
            )
            .build(),
            PlatformSpec::Dgx { nodes } => {
                DgxCluster::new(nonzero(nodes, "nodes")?, PlatformParams::dgx_b200()).build()
            }
            PlatformSpec::Nvl72 => FlatSwitch::nvl72(PlatformParams::nvl72()).build(),
            PlatformSpec::Flat { devices } => {
                FlatSwitch::new(nonzero(devices, "devices")?, PlatformParams::nvl72()).build()
            }
        })
    }

    /// Builds the topology plus its all-pairs route table.
    ///
    /// # Errors
    ///
    /// Returns a spec error for degenerate shapes (zero extents).
    pub fn materialize(&self) -> Result<(Topology, RouteTable), ConfigError> {
        let topo = self.build_topology()?;
        let table = RouteTable::build(&topo);
        Ok((topo, table))
    }
}

/// How tensor-parallel groups tile the platform: one of the paper's WSC
/// mappings, or contiguous switch-cluster groups for GPU platforms.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MappingSpec {
    /// Corner-block baseline mapping (WSC platforms).
    Baseline {
        /// Total TP degree.
        tp: usize,
    },
    /// Entwined Ring Mapping (WSC platforms).
    Er {
        /// Total TP degree.
        tp: usize,
    },
    /// Hierarchical ER mapping (multi-wafer platforms).
    Her {
        /// Per-wafer TP degree.
        tp: usize,
    },
    /// Contiguous TP groups on a switch-based cluster (DGX / NVL72 / flat).
    Cluster {
        /// TP degree (must divide the device count).
        tp: usize,
    },
}

impl MappingSpec {
    /// ER mapping with total TP degree `tp` (builder shorthand).
    pub fn er(tp: usize) -> Self {
        MappingSpec::Er { tp }
    }

    /// Hierarchical ER mapping (builder shorthand).
    pub fn her(tp: usize) -> Self {
        MappingSpec::Her { tp }
    }

    /// Cluster layout with TP degree `tp` (builder shorthand).
    pub fn cluster(tp: usize) -> Self {
        MappingSpec::Cluster { tp }
    }

    /// Stable lowercase kind tag used by the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            MappingSpec::Baseline { .. } => "baseline",
            MappingSpec::Er { .. } => "er",
            MappingSpec::Her { .. } => "her",
            MappingSpec::Cluster { .. } => "cluster",
        }
    }

    /// The TP degree carried by the spec.
    pub fn tp(&self) -> usize {
        match *self {
            MappingSpec::Baseline { tp }
            | MappingSpec::Er { tp }
            | MappingSpec::Her { tp }
            | MappingSpec::Cluster { tp } => tp,
        }
    }

    /// Materializes the layout over `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Mapping`] when the TP degree does not tile
    /// the platform, and a spec error when a WSC mapping is requested on a
    /// switch platform (no mesh dimensions) or a cluster layout's TP degree
    /// does not divide the device count.
    pub fn layout(&self, topo: &Topology) -> Result<Layout, ConfigError> {
        let mesh_dims = || {
            topo.mesh_dims().ok_or_else(|| {
                ConfigError::spec(
                    "mapping.kind",
                    format!(
                        "{:?} mapping needs a mesh platform (wsc / multi-wsc)",
                        self.kind()
                    ),
                )
            })
        };
        Ok(match *self {
            MappingSpec::Baseline { tp } => {
                Layout::Plan(BaselineMapping::with_tp_degree(mesh_dims()?, tp)?.plan())
            }
            MappingSpec::Er { tp } => {
                Layout::Plan(ErMapping::with_tp_degree(mesh_dims()?, tp)?.plan())
            }
            MappingSpec::Her { tp } => {
                Layout::Plan(HierarchicalErMapping::with_tp_degree(mesh_dims()?, tp)?.plan())
            }
            MappingSpec::Cluster { tp } => {
                if tp == 0 || !topo.num_devices().is_multiple_of(tp) {
                    return Err(ConfigError::spec(
                        "mapping.tp",
                        format!(
                            "TP={tp} must divide the {} cluster devices",
                            topo.num_devices()
                        ),
                    ));
                }
                Layout::Cluster(ClusterLayout::new(topo, tp))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_materialize() {
        let (topo, table) = PlatformSpec::wsc(4).materialize().unwrap();
        assert_eq!(topo.num_devices(), 16);
        assert!(table.hops(wsc_topology::DeviceId(0), wsc_topology::DeviceId(15)) > 0);
        let (topo, _) = PlatformSpec::multi_wsc(2, 1, 4).materialize().unwrap();
        assert_eq!(topo.num_devices(), 32);
        let (topo, _) = PlatformSpec::dgx(2).materialize().unwrap();
        assert!(topo.num_devices() >= 16);
        let (topo, _) = PlatformSpec::Nvl72.materialize().unwrap();
        assert_eq!(topo.num_devices(), 72);
    }

    /// `num_devices` predicts what `build_topology` builds, so the size
    /// ceiling is checked on the count a platform really has.
    #[test]
    fn device_counts_match_the_built_topologies() {
        for spec in [
            PlatformSpec::wsc(4),
            PlatformSpec::multi_wsc(2, 2, 8),
            PlatformSpec::dgx(2),
            PlatformSpec::Nvl72,
            PlatformSpec::Flat { devices: 24 },
        ] {
            let built = spec.build_topology().unwrap().num_devices() as u64;
            assert_eq!(spec.num_devices(), built, "{spec:?}");
        }
    }

    #[test]
    fn degenerate_shapes_are_spec_errors() {
        let err = PlatformSpec::wsc(0).materialize().unwrap_err();
        assert!(matches!(err, ConfigError::Spec { .. }), "{err}");
        // Oversized shapes fail before anything is built.
        let err = PlatformSpec::Flat { devices: 65_535 }
            .materialize()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyDevices {
                devices: 65_535,
                max: MAX_PLATFORM_DEVICES,
            }
        );
    }

    #[test]
    fn mappings_materialize_and_mismatches_are_typed() {
        let (topo, _) = PlatformSpec::wsc(4).materialize().unwrap();
        assert!(matches!(
            MappingSpec::er(4).layout(&topo).unwrap(),
            Layout::Plan(_)
        ));
        // A TP degree that cannot tile the wafer is a mapping error.
        assert!(matches!(
            MappingSpec::er(5).layout(&topo).unwrap_err(),
            ConfigError::Mapping(_)
        ));
        // WSC mappings need mesh dims; NVL72 has none.
        let (nvl, _) = PlatformSpec::Nvl72.materialize().unwrap();
        assert!(matches!(
            MappingSpec::er(4).layout(&nvl).unwrap_err(),
            ConfigError::Spec { .. }
        ));
        assert!(matches!(
            MappingSpec::cluster(8).layout(&nvl).unwrap(),
            Layout::Cluster(_)
        ));
        assert!(matches!(
            MappingSpec::cluster(7).layout(&nvl).unwrap_err(),
            ConfigError::Spec { .. }
        ));
    }
}
