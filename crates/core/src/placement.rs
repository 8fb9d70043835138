//! Per-layer expert placement with shadow slots.

use serde::{Deserialize, Serialize};
use wsc_topology::DeviceId;

/// Index of an expert within one MoE layer.
pub type ExpertId = usize;

/// Where every expert of one MoE layer lives: a fixed *primary* device per
/// expert, plus dynamic *shadow replicas* occupying reserved slots on other
/// devices (the shadow-expert strategy of paper Fig. 7a).
///
/// Tokens routed to an expert are split evenly across its replicas (the
/// `Load_e / Num_e` sharing of Algorithm 1).
///
/// # Example
///
/// ```
/// use moentwine_core::placement::ExpertPlacement;
/// use wsc_topology::DeviceId;
///
/// let mut p = ExpertPlacement::balanced(8, 4, 1);
/// assert_eq!(p.primary_device(0), DeviceId(0));
/// assert_eq!(p.num_replicas(0), 1);
/// p.add_replica(0, DeviceId(3)).unwrap();
/// assert_eq!(p.num_replicas(0), 2);
/// ```
#[derive(PartialEq, Debug, Serialize, Deserialize)]
pub struct ExpertPlacement {
    num_experts: usize,
    num_devices: usize,
    slots_per_device: usize,
    /// `replicas[e]` — devices hosting expert `e`; the primary is first.
    replicas: Vec<Vec<DeviceId>>,
    /// `shadow[d]` — experts occupying shadow slots on device `d`.
    shadow: Vec<Vec<ExpertId>>,
    /// `primary[d]` — experts whose primary home is device `d`.
    primary: Vec<Vec<ExpertId>>,
}

/// Errors from placement mutation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlacementError {
    /// The target device has no free shadow slot.
    NoFreeSlot {
        /// The saturated device.
        device: DeviceId,
    },
    /// The device already hosts this expert.
    AlreadyHosted {
        /// The expert in question.
        expert: ExpertId,
        /// The hosting device.
        device: DeviceId,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoFreeSlot { device } => {
                write!(f, "device {device} has no free shadow slot")
            }
            PlacementError::AlreadyHosted { expert, device } => {
                write!(f, "expert {expert} is already hosted on {device}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

impl Clone for ExpertPlacement {
    fn clone(&self) -> Self {
        ExpertPlacement {
            num_experts: self.num_experts,
            num_devices: self.num_devices,
            slots_per_device: self.slots_per_device,
            replicas: self.replicas.clone(),
            shadow: self.shadow.clone(),
            primary: self.primary.clone(),
        }
    }

    /// Field by field, so refilling a placement of the same shape reuses
    /// every per-expert and per-device list instead of allocating new ones.
    fn clone_from(&mut self, source: &Self) {
        self.num_experts = source.num_experts;
        self.num_devices = source.num_devices;
        self.slots_per_device = source.slots_per_device;
        self.replicas.clone_from(&source.replicas);
        self.shadow.clone_from(&source.shadow);
        self.primary.clone_from(&source.primary);
    }
}

impl ExpertPlacement {
    /// The canonical initial layout: expert `e`'s primary home is device
    /// `e·D/E` (contiguous blocks when `E ≥ D`, strided spread when
    /// `E < D`), with `slots_per_device` empty shadow slots everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `num_experts` or `num_devices` is zero.
    pub fn balanced(num_experts: usize, num_devices: usize, slots_per_device: usize) -> Self {
        assert!(num_experts > 0, "need at least one expert");
        assert!(num_devices > 0, "need at least one device");
        let mut replicas = Vec::with_capacity(num_experts);
        let mut primary = vec![Vec::new(); num_devices];
        for e in 0..num_experts {
            let d = DeviceId((e * num_devices / num_experts) as u32);
            replicas.push(vec![d]);
            primary[d.index()].push(e);
        }
        ExpertPlacement {
            num_experts,
            num_devices,
            slots_per_device,
            replicas,
            shadow: vec![Vec::new(); num_devices],
            primary,
        }
    }

    /// Number of experts in the layer.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Shadow slots per device.
    pub fn slots_per_device(&self) -> usize {
        self.slots_per_device
    }

    /// Devices hosting expert `e` (primary first).
    pub fn replicas(&self, e: ExpertId) -> &[DeviceId] {
        &self.replicas[e]
    }

    /// Number of devices hosting expert `e` (the `Num_e` of Algorithm 1).
    pub fn num_replicas(&self, e: ExpertId) -> usize {
        self.replicas[e].len()
    }

    /// The fixed primary home of expert `e`.
    pub fn primary_device(&self, e: ExpertId) -> DeviceId {
        self.replicas[e][0]
    }

    /// Experts whose primary home is `d`.
    pub fn primary_experts(&self, d: DeviceId) -> &[ExpertId] {
        &self.primary[d.index()]
    }

    /// Experts occupying shadow slots on `d`.
    pub fn shadow_experts(&self, d: DeviceId) -> &[ExpertId] {
        &self.shadow[d.index()]
    }

    /// Whether `d` hosts expert `e` (as primary or shadow).
    pub fn hosts(&self, d: DeviceId, e: ExpertId) -> bool {
        self.replicas[e].contains(&d)
    }

    /// Whether `d` has at least one unoccupied shadow slot.
    pub fn has_free_slot(&self, d: DeviceId) -> bool {
        self.shadow[d.index()].len() < self.slots_per_device
    }

    /// Installs a shadow replica of `e` on `d`.
    ///
    /// # Errors
    ///
    /// Fails if `d` already hosts `e` or has no free slot.
    pub fn add_replica(&mut self, e: ExpertId, d: DeviceId) -> Result<(), PlacementError> {
        if self.hosts(d, e) {
            return Err(PlacementError::AlreadyHosted {
                expert: e,
                device: d,
            });
        }
        if !self.has_free_slot(d) {
            return Err(PlacementError::NoFreeSlot { device: d });
        }
        self.shadow[d.index()].push(e);
        self.replicas[e].push(d);
        Ok(())
    }

    /// Removes the shadow replica of `e` on `d`, freeing its slot. Returns
    /// `false` if `d` held no shadow replica of `e` (primaries are never
    /// removed).
    pub fn remove_replica(&mut self, e: ExpertId, d: DeviceId) -> bool {
        let Some(pos) = self.shadow[d.index()].iter().position(|&x| x == e) else {
            return false;
        };
        self.shadow[d.index()].remove(pos);
        let rpos = self.replicas[e]
            .iter()
            .position(|&x| x == d)
            .expect("replica list consistent with shadow list");
        debug_assert!(rpos > 0, "primary replicas are not removable");
        self.replicas[e].remove(rpos);
        true
    }

    /// Per-device expected token load given per-expert loads, with each
    /// expert's load split evenly across its replicas. Returns a vector
    /// indexed by device.
    pub fn device_loads(&self, expert_loads: &[f64]) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_devices];
        self.device_loads_into(expert_loads, &mut loads);
        loads
    }

    /// [`ExpertPlacement::device_loads`] written into `loads`, which it
    /// overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len()` is not the device count.
    pub fn device_loads_into(&self, expert_loads: &[f64], loads: &mut [f64]) {
        assert_eq!(loads.len(), self.num_devices, "one load slot per device");
        loads.fill(0.0);
        for (e, replicas) in self.replicas.iter().enumerate() {
            let share = expert_loads[e] / replicas.len() as f64;
            for &d in replicas {
                loads[d.index()] += share;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_spreads_experts() {
        // E > D: contiguous blocks.
        let p = ExpertPlacement::balanced(8, 4, 1);
        assert_eq!(p.primary_experts(DeviceId(0)), &[0, 1]);
        assert_eq!(p.primary_experts(DeviceId(3)), &[6, 7]);
        // E < D: strided spread, some devices empty.
        let p = ExpertPlacement::balanced(4, 8, 1);
        assert_eq!(p.primary_device(1), DeviceId(2));
        assert!(p.primary_experts(DeviceId(1)).is_empty());
    }

    #[test]
    fn add_remove_replica_roundtrip() {
        let mut p = ExpertPlacement::balanced(4, 4, 1);
        p.add_replica(2, DeviceId(0)).unwrap();
        assert!(p.hosts(DeviceId(0), 2));
        assert!(!p.has_free_slot(DeviceId(0)));
        assert!(p.remove_replica(2, DeviceId(0)));
        assert!(p.has_free_slot(DeviceId(0)));
        assert!(!p.remove_replica(2, DeviceId(0)));
    }

    #[test]
    fn slot_exhaustion_errors() {
        let mut p = ExpertPlacement::balanced(8, 2, 1);
        p.add_replica(4, DeviceId(0)).unwrap();
        let err = p.add_replica(5, DeviceId(0)).unwrap_err();
        assert_eq!(
            err,
            PlacementError::NoFreeSlot {
                device: DeviceId(0)
            }
        );
    }

    #[test]
    fn duplicate_host_rejected() {
        let mut p = ExpertPlacement::balanced(4, 4, 2);
        let err = p.add_replica(0, DeviceId(0)).unwrap_err();
        assert!(matches!(err, PlacementError::AlreadyHosted { .. }));
    }

    #[test]
    fn device_loads_split_across_replicas() {
        let mut p = ExpertPlacement::balanced(2, 2, 1);
        // expert 0 on device 0, expert 1 on device 1.
        let loads = p.device_loads(&[10.0, 2.0]);
        assert_eq!(loads, vec![10.0, 2.0]);
        p.add_replica(0, DeviceId(1)).unwrap();
        let loads = p.device_loads(&[10.0, 2.0]);
        assert_eq!(loads, vec![5.0, 7.0]);
        // The in-place form overwrites whatever the buffer held.
        let mut reused = [f64::NAN; 2];
        p.device_loads_into(&[10.0, 2.0], &mut reused);
        assert_eq!(reused, [5.0, 7.0]);
    }

    #[test]
    fn clone_from_refills_to_an_equal_placement() {
        let mut source = ExpertPlacement::balanced(8, 4, 2);
        source.add_replica(0, DeviceId(3)).unwrap();
        let mut scratch = ExpertPlacement::balanced(8, 4, 2);
        scratch.add_replica(5, DeviceId(0)).unwrap();
        scratch.add_replica(6, DeviceId(0)).unwrap();
        scratch.clone_from(&source);
        assert_eq!(scratch, source);
        // A different shape is refilled too.
        scratch.clone_from(&ExpertPlacement::balanced(3, 2, 1));
        assert_eq!(scratch, ExpertPlacement::balanced(3, 2, 1));
    }

    #[test]
    fn primaries_not_removable() {
        let mut p = ExpertPlacement::balanced(2, 2, 1);
        assert!(!p.remove_replica(0, DeviceId(0)));
        assert!(p.hosts(DeviceId(0), 0));
    }
}
