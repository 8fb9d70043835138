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
    /// List `e` — devices hosting expert `e`; the primary is first.
    replicas: Lists<DeviceId>,
    /// List `d` — experts occupying shadow slots on device `d`.
    shadow: Lists<ExpertId>,
    /// List `d` — experts whose primary home is device `d`.
    primary: Lists<ExpertId>,
}

/// One list per key, stored back to back: list `i` is
/// `items[starts[i]..starts[i + 1]]`. Reading a list touches two
/// contiguous buffers, and refilling a copy of the same shape with
/// `clone_from` is two copies into kept buffers, where a vector per list
/// would be one allocation and one copy per list. Adding to or removing
/// from a list shifts the lists after it; a placement changes only when a
/// replica is added or dropped.
#[derive(PartialEq, Debug)]
struct Lists<T> {
    starts: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + PartialEq> Lists<T> {
    /// The lists with `items[starts[i]..starts[i + 1]]` as list `i`.
    fn from_parts(starts: Vec<usize>, items: Vec<T>) -> Self {
        debug_assert_eq!(starts.last(), Some(&items.len()));
        Lists { starts, items }
    }

    fn get(&self, i: usize) -> &[T] {
        &self.items[self.starts[i]..self.starts[i + 1]]
    }

    fn len(&self, i: usize) -> usize {
        self.starts[i + 1] - self.starts[i]
    }

    /// Every list, in key order.
    fn iter(&self) -> impl Iterator<Item = &[T]> {
        self.starts.windows(2).map(|w| &self.items[w[0]..w[1]])
    }

    /// Appends `item` to list `i`.
    fn push(&mut self, i: usize, item: T) {
        self.items.insert(self.starts[i + 1], item);
        for start in &mut self.starts[i + 1..] {
            *start += 1;
        }
    }

    /// Removes the first `item` of list `i`, keeping the order of the
    /// rest; returns whether list `i` held it.
    fn remove(&mut self, i: usize, item: T) -> bool {
        let Some(pos) = self.get(i).iter().position(|&x| x == item) else {
            return false;
        };
        self.items.remove(self.starts[i] + pos);
        for start in &mut self.starts[i + 1..] {
            *start -= 1;
        }
        true
    }
}

impl<T: Clone> Clone for Lists<T> {
    fn clone(&self) -> Self {
        Lists {
            starts: self.starts.clone(),
            items: self.items.clone(),
        }
    }

    /// Reuses both buffers, so refilling a placement of the same shape
    /// allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.starts.clone_from(&source.starts);
        self.items.clone_from(&source.items);
    }
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
    /// every buffer instead of allocating new ones.
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
        let home = |e: usize| e * num_devices / num_experts;
        let replicas = (0..num_experts).map(|e| DeviceId(home(e) as u32)).collect();
        // Homes never decrease with `e`, so each device's primaries are one
        // run of expert ids, in ascending order.
        let mut primary_starts = vec![0; num_devices + 1];
        for e in 0..num_experts {
            primary_starts[home(e) + 1] += 1;
        }
        for d in 0..num_devices {
            primary_starts[d + 1] += primary_starts[d];
        }
        ExpertPlacement {
            num_experts,
            num_devices,
            slots_per_device,
            replicas: Lists::from_parts((0..=num_experts).collect(), replicas),
            shadow: Lists::from_parts(vec![0; num_devices + 1], Vec::new()),
            primary: Lists::from_parts(primary_starts, (0..num_experts).collect()),
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
        self.replicas.get(e)
    }

    /// Number of devices hosting expert `e` (the `Num_e` of Algorithm 1).
    pub fn num_replicas(&self, e: ExpertId) -> usize {
        self.replicas.len(e)
    }

    /// The fixed primary home of expert `e`.
    pub fn primary_device(&self, e: ExpertId) -> DeviceId {
        self.replicas(e)[0]
    }

    /// Experts whose primary home is `d`.
    pub fn primary_experts(&self, d: DeviceId) -> &[ExpertId] {
        self.primary.get(d.index())
    }

    /// Experts occupying shadow slots on `d`.
    pub fn shadow_experts(&self, d: DeviceId) -> &[ExpertId] {
        self.shadow.get(d.index())
    }

    /// Whether `d` hosts expert `e` (as primary or shadow).
    pub fn hosts(&self, d: DeviceId, e: ExpertId) -> bool {
        self.replicas(e).contains(&d)
    }

    /// Whether `d` has at least one unoccupied shadow slot.
    pub fn has_free_slot(&self, d: DeviceId) -> bool {
        self.shadow.len(d.index()) < self.slots_per_device
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
        self.shadow.push(d.index(), e);
        self.replicas.push(e, d);
        Ok(())
    }

    /// Removes the shadow replica of `e` on `d`, freeing its slot. Returns
    /// `false` if `d` held no shadow replica of `e` (primaries are never
    /// removed).
    pub fn remove_replica(&mut self, e: ExpertId, d: DeviceId) -> bool {
        if !self.shadow.remove(d.index(), e) {
            return false;
        }
        debug_assert_ne!(
            self.primary_device(e),
            d,
            "primary replicas are not removable"
        );
        let removed = self.replicas.remove(e, d);
        debug_assert!(removed, "replica list consistent with shadow list");
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

    /// Device `d`'s slot of [`ExpertPlacement::device_loads_into`], bit for
    /// bit: the shares of the experts `d` hosts, added in ascending expert
    /// order. `hosted` is scratch space for that order; its contents are
    /// overwritten.
    pub(crate) fn device_load(
        &self,
        expert_loads: &[f64],
        d: DeviceId,
        hosted: &mut Vec<ExpertId>,
    ) -> f64 {
        hosted.clear();
        hosted.extend_from_slice(self.primary_experts(d));
        hosted.extend_from_slice(self.shadow_experts(d));
        hosted.sort_unstable();
        hosted.iter().fold(0.0, |load, &e| {
            load + expert_loads[e] / self.num_replicas(e) as f64
        })
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
