//! Phased flow schedules: how collectives are expressed to the simulator.

use serde::{Deserialize, Serialize};

use crate::flow::FlowSpec;

/// One step of a step-synchronous collective: a set of flows that start
/// together and must all finish before the next phase begins.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Phase {
    /// Human-readable label (e.g. `"rs-step-3"`).
    pub label: String,
    /// The flows of this phase.
    pub flows: Vec<FlowSpec>,
}

impl Phase {
    /// Creates a labelled phase.
    pub fn new(label: impl Into<String>, flows: Vec<FlowSpec>) -> Self {
        Phase {
            label: label.into(),
            flows,
        }
    }

    /// Total payload bytes across the phase's flows.
    pub fn total_bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }
}

/// A sequence of phases with a barrier between consecutive phases.
///
/// Collective builders (`wsc-collectives`) emit these; any tier prices one
/// through [`CongestionModel::price_schedule`](crate::CongestionModel::price_schedule),
/// which prices each phase as a concurrent flow set and adds the phases.
///
/// # Example
///
/// ```
/// use wsc_topology::{Mesh, PlatformParams};
/// use wsc_sim::{CongestionModel, FlowSchedule, FlowSimBackend, FlowSpec};
///
/// let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
/// let a = topo.device_at_xy(0, 0).unwrap();
/// let b = topo.device_at_xy(1, 0).unwrap();
/// let mut sched = FlowSchedule::new();
/// sched.push_phase("step0", vec![FlowSpec::new(topo.route(a, b), 1e9)]);
/// sched.push_phase("step1", vec![FlowSpec::new(topo.route(b, a), 1e9)]);
/// let des = FlowSimBackend::new(&topo);
/// let one = des.price_flows(&sched.phases()[0].flows).total_time;
/// let both = des.price_schedule(&sched).total_time;
/// assert_eq!(both, one + des.price_flows(&sched.phases()[1].flows).total_time);
/// ```
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct FlowSchedule {
    phases: Vec<Phase>,
}

impl FlowSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase.
    pub fn push_phase(&mut self, label: impl Into<String>, flows: Vec<FlowSpec>) {
        self.phases.push(Phase::new(label, flows));
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Whether the schedule contains no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Total payload bytes across all phases.
    pub fn total_bytes(&self) -> f64 {
        self.phases.iter().map(Phase::total_bytes).sum()
    }

    /// Merges several schedules that proceed in lock-step: phase `k` of the
    /// result contains the union of every input's phase `k`.
    ///
    /// This models concurrent collectives that share the fabric — e.g. the
    /// entwined rings of ER-Mapping, where all rings execute step `k`
    /// simultaneously.
    pub fn merge_lockstep<'a>(schedules: impl IntoIterator<Item = &'a FlowSchedule>) -> Self {
        let mut merged = FlowSchedule::new();
        for sched in schedules {
            for (i, phase) in sched.phases.iter().enumerate() {
                if merged.phases.len() <= i {
                    merged
                        .phases
                        .push(Phase::new(phase.label.clone(), Vec::new()));
                }
                merged.phases[i].flows.extend(phase.flows.iter().cloned());
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CongestionModel, FlowSimBackend, ScheduleShape};
    use wsc_topology::{Mesh, PlatformParams};

    #[test]
    fn phases_are_sequential() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let des = FlowSimBackend::new(&topo);
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let one = {
            let mut s = FlowSchedule::new();
            s.push_phase("p", vec![FlowSpec::new(topo.route(a, b), 4.0e9)]);
            des.price_schedule(&s).total_time
        };
        let mut two = FlowSchedule::new();
        two.push_phase("p0", vec![FlowSpec::new(topo.route(a, b), 4.0e9)]);
        two.push_phase("p1", vec![FlowSpec::new(topo.route(a, b), 4.0e9)]);
        let total = des.price_schedule(&two).total_time;
        assert!((total - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn merge_lockstep_unions_phases() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(0, 1).unwrap();
        let mut s1 = FlowSchedule::new();
        s1.push_phase("s", vec![FlowSpec::new(topo.route(a, b), 1.0)]);
        let mut s2 = FlowSchedule::new();
        s2.push_phase("s", vec![FlowSpec::new(topo.route(a, c), 1.0)]);
        s2.push_phase("extra", vec![FlowSpec::new(topo.route(c, a), 1.0)]);
        let merged = FlowSchedule::merge_lockstep([&s1, &s2]);
        assert_eq!(merged.num_phases(), 2);
        assert_eq!(merged.phases()[0].flows.len(), 2);
        assert_eq!(merged.phases()[1].flows.len(), 1);
        assert_eq!(merged.total_bytes(), 3.0);
    }

    #[test]
    fn shape_ignores_labels_and_flow_order() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(0, 1).unwrap();
        let f1 = FlowSpec::new(topo.route(a, b), 1.0);
        let f2 = FlowSpec::new(topo.route(a, c), 2.0);
        let mut s1 = FlowSchedule::new();
        s1.push_phase("x", vec![f1.clone(), f2.clone()]);
        let mut s2 = FlowSchedule::new();
        s2.push_phase("completely different label", vec![f2, f1]);
        assert_eq!(
            ScheduleShape::of_schedule(&s1),
            ScheduleShape::of_schedule(&s2)
        );
    }

    #[test]
    fn empty_schedule_runs_to_zero() {
        let topo = Mesh::new(2, PlatformParams::dojo_like()).build();
        let s = FlowSchedule::new();
        let total = FlowSimBackend::new(&topo).price_schedule(&s).total_time;
        assert_eq!(total, 0.0);
        assert!(s.is_empty());
    }
}
