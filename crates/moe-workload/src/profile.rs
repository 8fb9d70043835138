//! First-class workload profiles: arrival sources and tenant classes.
//!
//! The paper evaluates large-scale EP serving against production-shaped
//! traffic; before this module the simulator only offered one synthetic
//! arrival process — a diurnal Poisson with hard-coded constants, built
//! twice (engine and fleet). A [`WorkloadProfile`] promotes the workload to
//! data:
//!
//! * **Arrival sources** ([`ArrivalSpec`]): the parameterised diurnal
//!   Poisson (the old constants are now [`DEFAULT_DIURNAL_AMPLITUDE`] /
//!   [`DEFAULT_DIURNAL_PERIOD_SECS`]), piecewise-constant phase lists
//!   (bursts, spikes, ramps — the spec layer expands its shape generators
//!   into these), and replay of timestamped request traces.
//! * **Tenant classes** ([`ClassSpec`]): each request carries a
//!   [`RequestClass`] (interactive vs. batch) with its own SLO targets and
//!   an optional admission deadline; the serving queue schedules
//!   interactive ahead of batch and sheds requests whose deadline passed.
//!
//! Everything validates through the typed [`WorkloadError`] (the
//! `try_new`/panicking-wrapper convention shared with `ConfigError`), and
//! the default profile reproduces the pre-profile arrival stream
//! bit-for-bit.

use serde::{Deserialize, Serialize};

use crate::scenario::Scenario;

/// Diurnal amplitude of the default arrival process (±30 % swing), the
/// value the engine previously hard-coded.
pub const DEFAULT_DIURNAL_AMPLITUDE: f64 = 0.3;

/// Diurnal period of the default arrival process: 10 simulated minutes,
/// compressed from the 24 h Azure cycle so sweeps see full cycles.
pub const DEFAULT_DIURNAL_PERIOD_SECS: f64 = 600.0;

/// Why a workload profile (arrival source, phase list, trace, or tenant
/// class set) cannot be materialized.
#[derive(Clone, PartialEq, Debug)]
pub enum WorkloadError {
    /// The base arrival rate must be positive.
    NonPositiveRate {
        /// The rejected value.
        value: f64,
    },
    /// The diurnal period must be positive.
    NonPositivePeriod {
        /// The rejected value.
        value: f64,
    },
    /// The diurnal amplitude must be in `[0, 1)` (the instantaneous rate
    /// must stay positive).
    AmplitudeOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// The scenario blend must be non-empty with a positive weight total.
    NoScenarioWeights,
    /// A phase list needs at least one phase.
    EmptyPhases,
    /// Every phase duration must be positive and finite.
    BadPhaseDuration {
        /// Position of the offending phase.
        index: usize,
        /// The rejected duration.
        value: f64,
    },
    /// Every phase rate factor must be finite and non-negative.
    BadPhaseFactor {
        /// Position of the offending phase.
        index: usize,
        /// The rejected factor.
        value: f64,
    },
    /// At least one phase must have a positive rate factor (an all-zero
    /// cycle never produces an arrival).
    AllPhasesSilent,
    /// A trace needs at least one request.
    EmptyTrace,
    /// Trace arrivals must be finite, non-negative, and non-decreasing;
    /// `index` is the first row out of order.
    TraceUnsorted {
        /// Position of the offending row.
        index: usize,
    },
    /// Trace token lengths must be ≥ 1.
    TraceZeroLength {
        /// Position of the offending row.
        index: usize,
    },
    /// A profile needs at least one tenant class.
    NoClasses,
    /// Each tenant class may appear at most once.
    DuplicateClass {
        /// The repeated class.
        class: RequestClass,
    },
    /// Class weights must be finite and non-negative, with a positive
    /// total.
    BadClassWeight {
        /// The offending class.
        class: RequestClass,
        /// The rejected weight.
        value: f64,
    },
    /// SLO targets (TTFT / TPOT) must be positive and finite.
    BadSloTarget {
        /// The offending class.
        class: RequestClass,
        /// The rejected target.
        value: f64,
    },
    /// An admission deadline (`shed_after`) must be positive and finite.
    BadShedDeadline {
        /// The offending class.
        class: RequestClass,
        /// The rejected deadline.
        value: f64,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The first four texts are pinned by pre-existing
            // `should_panic` contracts on the panicking wrappers.
            WorkloadError::NonPositiveRate { value } => {
                write!(f, "rate must be positive, got {value}")
            }
            WorkloadError::NonPositivePeriod { value } => {
                write!(f, "period must be positive, got {value}")
            }
            WorkloadError::AmplitudeOutOfRange { value } => {
                write!(f, "amplitude must be in [0,1), got {value}")
            }
            WorkloadError::NoScenarioWeights => {
                write!(f, "need positive scenario weights")
            }
            WorkloadError::EmptyPhases => write!(f, "phase list must be non-empty"),
            WorkloadError::BadPhaseDuration { index, value } => {
                write!(f, "phase {index}: duration must be positive, got {value}")
            }
            WorkloadError::BadPhaseFactor { index, value } => {
                write!(
                    f,
                    "phase {index}: rate factor must be finite and ≥ 0, got {value}"
                )
            }
            WorkloadError::AllPhasesSilent => {
                write!(f, "at least one phase needs a positive rate factor")
            }
            WorkloadError::EmptyTrace => write!(f, "trace must contain at least one request"),
            WorkloadError::TraceUnsorted { index } => {
                write!(
                    f,
                    "trace row {index}: arrivals must be finite, non-negative, and non-decreasing"
                )
            }
            WorkloadError::TraceZeroLength { index } => {
                write!(f, "trace row {index}: token lengths must be ≥ 1")
            }
            WorkloadError::NoClasses => write!(f, "need at least one tenant class"),
            WorkloadError::DuplicateClass { class } => {
                write!(f, "class {class:?} listed more than once")
            }
            WorkloadError::BadClassWeight { class, value } => {
                write!(f, "class {class:?}: weight must be ≥ 0, got {value}")
            }
            WorkloadError::BadSloTarget { class, value } => {
                write!(
                    f,
                    "class {class:?}: SLO target must be positive, got {value}"
                )
            }
            WorkloadError::BadShedDeadline { class, value } => {
                write!(
                    f,
                    "class {class:?}: shed_after must be positive, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Tenant class of a request: the SLO tier it is served under.
///
/// Interactive traffic is scheduled ahead of batch at every admission
/// barrier and is the default class everywhere (the single-class profile
/// reproduces pre-class behavior bit-for-bit).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum RequestClass {
    /// Latency-sensitive traffic (chatbots, IDE completions).
    #[default]
    Interactive,
    /// Throughput-oriented background traffic (evals, batch summarization).
    Batch,
}

impl RequestClass {
    /// All classes, in scheduling-priority order.
    pub fn all() -> [RequestClass; 2] {
        [RequestClass::Interactive, RequestClass::Batch]
    }

    /// Stable lowercase name (`"interactive"` / `"batch"`), matching the
    /// `FromStr` spelling and the JSON encodings.
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Batch => "batch",
        }
    }

    /// Dense index (priority order), for per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            RequestClass::Interactive => 0,
            RequestClass::Batch => 1,
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RequestClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interactive" => Ok(RequestClass::Interactive),
            "batch" => Ok(RequestClass::Batch),
            other => Err(format!(
                "unknown request class {other:?} (expected \"interactive\" or \"batch\")"
            )),
        }
    }
}

/// One tenant class in a workload: its share of generated traffic, its SLO
/// targets (for attainment reporting), and an optional admission deadline
/// (for load shedding).
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ClassSpec {
    /// The class this entry configures.
    pub class: RequestClass,
    /// Relative share of generated requests (normalised internally).
    pub weight: f64,
    /// Time-to-first-token target, seconds (attainment = fraction of
    /// completed requests with TTFT ≤ this).
    pub ttft_slo: f64,
    /// Time-per-output-token target, seconds.
    pub tpot_slo: f64,
    /// If set, requests still waiting this many seconds after arrival are
    /// shed at the next admission barrier (counted as a typed reject).
    pub shed_after: Option<f64>,
}

impl ClassSpec {
    /// The default interactive class: weight 1, 200 ms TTFT / 50 ms TPOT
    /// targets, no shedding.
    pub fn interactive() -> Self {
        ClassSpec {
            class: RequestClass::Interactive,
            weight: 1.0,
            ttft_slo: 0.2,
            tpot_slo: 0.05,
            shed_after: None,
        }
    }

    /// The default batch class: weight 1, relaxed 2 s TTFT / 500 ms TPOT
    /// targets, no shedding.
    pub fn batch() -> Self {
        ClassSpec {
            class: RequestClass::Batch,
            weight: 1.0,
            ttft_slo: 2.0,
            tpot_slo: 0.5,
            shed_after: None,
        }
    }

    /// Builder: replaces the traffic weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Builder: replaces the SLO targets.
    pub fn with_slo(mut self, ttft_slo: f64, tpot_slo: f64) -> Self {
        self.ttft_slo = ttft_slo;
        self.tpot_slo = tpot_slo;
        self
    }

    /// Builder: sets the admission deadline.
    pub fn with_shed_after(mut self, deadline: f64) -> Self {
        self.shed_after = Some(deadline);
        self
    }
}

/// One piecewise-constant rate segment: for `duration` seconds the
/// instantaneous arrival rate is `rate_factor × base_rate`.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Phase {
    /// Segment length, seconds.
    pub duration: f64,
    /// Multiplier applied to the base request rate during this segment.
    pub rate_factor: f64,
}

/// One timestamped request row of a replay trace.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Arrival time, seconds since trace start (non-decreasing).
    pub arrival: f64,
    /// Scenario of the request (selects expert-affinity behavior).
    pub scenario: Scenario,
    /// Prompt length, tokens.
    pub input_len: u32,
    /// Output length, tokens.
    pub output_len: u32,
    /// Tenant class of the request.
    pub class: RequestClass,
}

/// Where arrivals come from: the sampled diurnal Poisson, a sampled
/// piecewise phase schedule, or replay of a recorded trace.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Time-varying Poisson with rate
    /// `base_rate × (1 + amplitude·sin(2πt/period))`.
    Diurnal {
        /// Diurnal amplitude in `[0, 1)`.
        amplitude: f64,
        /// Cycle period, seconds.
        period: f64,
    },
    /// Piecewise-constant Poisson: the phase list cycles, each phase
    /// multiplying the base rate by its factor.
    Phases(Vec<Phase>),
    /// Replay the exact rows of a recorded trace (ignores the base rate;
    /// the rows carry their own arrivals, lengths, and classes).
    Trace(Vec<TraceRequest>),
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        ArrivalSpec::Diurnal {
            amplitude: DEFAULT_DIURNAL_AMPLITUDE,
            period: DEFAULT_DIURNAL_PERIOD_SECS,
        }
    }
}

impl ArrivalSpec {
    /// Validates the source's own constraints (everything except the base
    /// rate, which belongs to the engine/fleet knob that owns it).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            ArrivalSpec::Diurnal { amplitude, period } => {
                if *period <= 0.0 || !period.is_finite() {
                    return Err(WorkloadError::NonPositivePeriod { value: *period });
                }
                if !(0.0..1.0).contains(amplitude) {
                    return Err(WorkloadError::AmplitudeOutOfRange { value: *amplitude });
                }
                Ok(())
            }
            ArrivalSpec::Phases(phases) => validate_phases(phases),
            ArrivalSpec::Trace(rows) => validate_trace(rows),
        }
    }
}

/// Validates a phase list: non-empty, positive finite durations, finite
/// non-negative factors, at least one factor positive.
pub fn validate_phases(phases: &[Phase]) -> Result<(), WorkloadError> {
    if phases.is_empty() {
        return Err(WorkloadError::EmptyPhases);
    }
    for (index, p) in phases.iter().enumerate() {
        if p.duration <= 0.0 || !p.duration.is_finite() {
            return Err(WorkloadError::BadPhaseDuration {
                index,
                value: p.duration,
            });
        }
        if p.rate_factor < 0.0 || !p.rate_factor.is_finite() {
            return Err(WorkloadError::BadPhaseFactor {
                index,
                value: p.rate_factor,
            });
        }
    }
    if !phases.iter().any(|p| p.rate_factor > 0.0) {
        return Err(WorkloadError::AllPhasesSilent);
    }
    Ok(())
}

/// Validates a trace: non-empty, arrivals finite / non-negative /
/// non-decreasing, token lengths ≥ 1.
pub fn validate_trace(rows: &[TraceRequest]) -> Result<(), WorkloadError> {
    if rows.is_empty() {
        return Err(WorkloadError::EmptyTrace);
    }
    let mut last = 0.0f64;
    for (index, row) in rows.iter().enumerate() {
        if !row.arrival.is_finite() || row.arrival < last {
            return Err(WorkloadError::TraceUnsorted { index });
        }
        if row.input_len == 0 || row.output_len == 0 {
            return Err(WorkloadError::TraceZeroLength { index });
        }
        last = row.arrival;
    }
    Ok(())
}

/// Validates a class list: non-empty, no duplicates, finite non-negative
/// weights with a positive total, positive SLO targets and deadlines.
pub fn validate_classes(classes: &[ClassSpec]) -> Result<(), WorkloadError> {
    if classes.is_empty() {
        return Err(WorkloadError::NoClasses);
    }
    let mut seen = [false; 2];
    let mut total = 0.0;
    for c in classes {
        if seen[c.class.index()] {
            return Err(WorkloadError::DuplicateClass { class: c.class });
        }
        seen[c.class.index()] = true;
        if c.weight < 0.0 || !c.weight.is_finite() {
            return Err(WorkloadError::BadClassWeight {
                class: c.class,
                value: c.weight,
            });
        }
        total += c.weight;
        for slo in [c.ttft_slo, c.tpot_slo] {
            if slo <= 0.0 || !slo.is_finite() {
                return Err(WorkloadError::BadSloTarget {
                    class: c.class,
                    value: slo,
                });
            }
        }
        if let Some(deadline) = c.shed_after {
            if deadline <= 0.0 || !deadline.is_finite() {
                return Err(WorkloadError::BadShedDeadline {
                    class: c.class,
                    value: deadline,
                });
            }
        }
    }
    if total <= 0.0 {
        return Err(WorkloadError::BadClassWeight {
            class: classes[0].class,
            value: total,
        });
    }
    Ok(())
}

/// A complete workload description: where arrivals come from and which
/// tenant classes they belong to.
///
/// The default profile — the diurnal source with the legacy constants and
/// a single interactive class — is what every engine/fleet uses when no
/// workload is configured, and reproduces the pre-profile request stream
/// bit-for-bit (class assignment consumes no RNG draws when only one class
/// has positive weight).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// The arrival source.
    pub arrivals: ArrivalSpec,
    /// The tenant classes (traffic shares, SLO targets, shed deadlines).
    pub classes: Vec<ClassSpec>,
}

impl Default for WorkloadProfile {
    fn default() -> Self {
        WorkloadProfile {
            arrivals: ArrivalSpec::default(),
            classes: vec![ClassSpec::interactive()],
        }
    }
}

impl WorkloadProfile {
    /// Validates the arrival source and the class list.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.arrivals.validate()?;
        validate_classes(&self.classes)
    }

    /// Whether this is the default profile (used by byte-stability gates:
    /// workload-free scenarios must not grow new manifest sections).
    pub fn is_default(&self) -> bool {
        *self == WorkloadProfile::default()
    }

    /// The classes a serving summary reports a section for: none for the
    /// default profile, so workload-free summaries keep their pre-class
    /// layout, otherwise the configured classes in order.
    pub fn reported_classes(&self) -> &[ClassSpec] {
        if self.is_default() {
            &[]
        } else {
            &self.classes
        }
    }

    /// The configured spec for `class`, if present.
    pub fn class_spec(&self, class: RequestClass) -> Option<&ClassSpec> {
        self.classes.iter().find(|c| c.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_valid_and_single_interactive() {
        let p = WorkloadProfile::default();
        p.validate().unwrap();
        assert!(p.is_default());
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].class, RequestClass::Interactive);
        assert_eq!(
            p.arrivals,
            ArrivalSpec::Diurnal {
                amplitude: DEFAULT_DIURNAL_AMPLITUDE,
                period: DEFAULT_DIURNAL_PERIOD_SECS,
            }
        );
    }

    #[test]
    fn class_names_round_trip() {
        for class in RequestClass::all() {
            assert_eq!(class.name().parse::<RequestClass>().unwrap(), class);
        }
        assert!("premium".parse::<RequestClass>().is_err());
        assert_eq!(RequestClass::default(), RequestClass::Interactive);
    }

    #[test]
    fn phase_validation_rejects_exact_variants() {
        assert_eq!(validate_phases(&[]), Err(WorkloadError::EmptyPhases));
        let bad_duration = [Phase {
            duration: 0.0,
            rate_factor: 1.0,
        }];
        assert_eq!(
            validate_phases(&bad_duration),
            Err(WorkloadError::BadPhaseDuration {
                index: 0,
                value: 0.0
            })
        );
        let bad_factor = [
            Phase {
                duration: 1.0,
                rate_factor: 1.0,
            },
            Phase {
                duration: 1.0,
                rate_factor: -2.0,
            },
        ];
        assert_eq!(
            validate_phases(&bad_factor),
            Err(WorkloadError::BadPhaseFactor {
                index: 1,
                value: -2.0
            })
        );
        let silent = [Phase {
            duration: 1.0,
            rate_factor: 0.0,
        }];
        assert_eq!(
            validate_phases(&silent),
            Err(WorkloadError::AllPhasesSilent)
        );
        validate_phases(&[
            Phase {
                duration: 5.0,
                rate_factor: 0.0,
            },
            Phase {
                duration: 1.0,
                rate_factor: 8.0,
            },
        ])
        .unwrap();
    }

    #[test]
    fn trace_validation_rejects_exact_variants() {
        assert_eq!(validate_trace(&[]), Err(WorkloadError::EmptyTrace));
        let row = |arrival: f64| TraceRequest {
            arrival,
            scenario: Scenario::Chat,
            input_len: 8,
            output_len: 4,
            class: RequestClass::Interactive,
        };
        assert_eq!(
            validate_trace(&[row(1.0), row(0.5)]),
            Err(WorkloadError::TraceUnsorted { index: 1 })
        );
        assert_eq!(
            validate_trace(&[row(-1.0)]),
            Err(WorkloadError::TraceUnsorted { index: 0 })
        );
        let mut zero = row(0.0);
        zero.input_len = 0;
        assert_eq!(
            validate_trace(&[zero]),
            Err(WorkloadError::TraceZeroLength { index: 0 })
        );
        validate_trace(&[row(0.0), row(0.0), row(2.5)]).unwrap();
    }

    #[test]
    fn class_validation_rejects_exact_variants() {
        assert_eq!(validate_classes(&[]), Err(WorkloadError::NoClasses));
        assert_eq!(
            validate_classes(&[ClassSpec::interactive(), ClassSpec::interactive()]),
            Err(WorkloadError::DuplicateClass {
                class: RequestClass::Interactive
            })
        );
        assert_eq!(
            validate_classes(&[ClassSpec::interactive().with_weight(-1.0)]),
            Err(WorkloadError::BadClassWeight {
                class: RequestClass::Interactive,
                value: -1.0
            })
        );
        assert_eq!(
            validate_classes(&[ClassSpec::batch().with_weight(0.0)]),
            Err(WorkloadError::BadClassWeight {
                class: RequestClass::Batch,
                value: 0.0
            })
        );
        assert_eq!(
            validate_classes(&[ClassSpec::batch().with_slo(0.0, 1.0)]),
            Err(WorkloadError::BadSloTarget {
                class: RequestClass::Batch,
                value: 0.0
            })
        );
        assert_eq!(
            validate_classes(&[ClassSpec::interactive().with_shed_after(f64::INFINITY)]),
            Err(WorkloadError::BadShedDeadline {
                class: RequestClass::Interactive,
                value: f64::INFINITY
            })
        );
        validate_classes(&[
            ClassSpec::interactive().with_weight(3.0),
            ClassSpec::batch().with_shed_after(2.0),
        ])
        .unwrap();
    }

    #[test]
    fn error_displays_are_stable() {
        // The panicking wrappers surface these texts; the first three are
        // pinned by pre-existing `should_panic` contracts.
        assert!(WorkloadError::NonPositiveRate { value: 0.0 }
            .to_string()
            .contains("rate must be positive"));
        assert!(WorkloadError::NonPositivePeriod { value: -1.0 }
            .to_string()
            .contains("period must be positive"));
        assert!(WorkloadError::AmplitudeOutOfRange { value: 1.5 }
            .to_string()
            .contains("amplitude must be in [0,1)"));
        assert!(WorkloadError::NoScenarioWeights
            .to_string()
            .contains("need positive scenario weights"));
        assert!(WorkloadError::TraceUnsorted { index: 3 }
            .to_string()
            .contains("trace row 3"));
        assert!(WorkloadError::BadPhaseFactor {
            index: 2,
            value: -1.0
        }
        .to_string()
        .contains("phase 2"));
    }
}
