//! Fleet specifications: replicas behind a front-end router.

use moe_workload::RouterPolicy;
use moentwine_core::engine::EngineConfig;
use moentwine_core::fleet::{validate_fleet_shape, FleetConfig, FleetEvent, ReplicaRole};
use moentwine_core::ConfigError;
use wsc_sim::CongestionBackend;

use crate::platform::{MappingSpec, PlatformSpec};

/// Scale-out shape: N replica engines dispatched by a router policy under
/// a global arrival stream (the spec mirror of [`FleetConfig`]).
///
/// The JSON codec still accepts a `"scheduler"` member whose only valid
/// value is `"event-heap"` (the fleet has one event loop), so documents
/// written when the drive was selectable keep parsing; it is never
/// emitted. The member goes with ROADMAP item 1's benchmark revision, once
/// the benchmark's fleet specs stop carrying it.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetSpec {
    /// Number of replica engines.
    pub replicas: usize,
    /// Front-end dispatch policy.
    pub policy: RouterPolicy,
    /// Global arrival rate (requests/second across the whole fleet).
    pub request_rate: f64,
    /// Per-replica congestion-backend overrides (empty uses the engine
    /// template's backend everywhere; otherwise replica `i` gets
    /// `overrides[i % len]`).
    pub backend_overrides: Vec<CongestionBackend>,
    /// Elasticity/failure timeline, sorted by time (empty = the immortal
    /// fixed fleet). Validated against `replicas` and `roles` by
    /// [`validate_fleet_events_for_roles`](moentwine_core::fleet::validate_fleet_events_for_roles)
    /// both at parse time and when the fleet is built.
    pub events: Vec<FleetEvent>,
    /// Per-replica roles for disaggregated serving (empty = every replica
    /// [`ReplicaRole::Colocated`], the classic homogeneous fleet; otherwise
    /// must match `replicas` in length). Validated at parse time and by
    /// [`Fleet::try_new_disaggregated`](moentwine_core::fleet::Fleet::try_new_disaggregated).
    pub roles: Vec<ReplicaRole>,
    /// Platform for [`ReplicaRole::Decode`] replicas (`None` puts every
    /// role on the scenario's primary platform). Only meaningful when
    /// `roles` contains a decode replica.
    pub decode_platform: Option<PlatformSpec>,
    /// Mapping for the decode platform (required when `decode_platform`
    /// is set; ignored otherwise).
    pub decode_mapping: Option<MappingSpec>,
}

impl FleetSpec {
    /// A fleet of `replicas` engines dispatched by `policy` at
    /// `request_rate` requests/second.
    pub fn new(replicas: usize, policy: RouterPolicy, request_rate: f64) -> Self {
        FleetSpec {
            replicas,
            policy,
            request_rate,
            backend_overrides: Vec::new(),
            events: Vec::new(),
            roles: Vec::new(),
            decode_platform: None,
            decode_mapping: None,
        }
    }

    /// Sets per-replica backend overrides (builder style).
    pub fn with_backend_overrides(mut self, overrides: Vec<CongestionBackend>) -> Self {
        self.backend_overrides = overrides;
        self
    }

    /// Sets the elasticity/failure timeline (builder style).
    pub fn with_events(mut self, events: Vec<FleetEvent>) -> Self {
        self.events = events;
        self
    }

    /// Sets per-replica roles for disaggregated serving (builder style).
    pub fn with_roles(mut self, roles: Vec<ReplicaRole>) -> Self {
        self.roles = roles;
        self
    }

    /// Sets the decode-tier platform and mapping (builder style).
    pub fn with_decode_platform(mut self, platform: PlatformSpec, mapping: MappingSpec) -> Self {
        self.decode_platform = Some(platform);
        self.decode_mapping = Some(mapping);
        self
    }

    /// Validates the fleet shape: the decode-platform/mapping pairing, then
    /// [`validate_fleet_shape`] — the same typed errors, in the same order,
    /// that [`Fleet::try_new_disaggregated`](moentwine_core::fleet::Fleet::try_new_disaggregated)
    /// raises, so bad specs fail at parse/build time instead of at run
    /// time.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] violated by the shape.
    pub fn validate_shape(&self) -> Result<(), ConfigError> {
        if self.decode_platform.is_some() != self.decode_mapping.is_some() {
            return Err(ConfigError::spec(
                "fleet.decode_platform",
                "decode_platform and decode_mapping must be set together",
            ));
        }
        validate_fleet_shape(
            self.replicas,
            self.policy,
            &self.roles,
            &self.events,
            self.decode_platform.is_some(),
        )
        .map(drop)
    }

    /// Combines the fleet shape with a replica engine template into the
    /// core [`FleetConfig`] (validation happens in
    /// [`Fleet::try_new`](moentwine_core::fleet::Fleet::try_new)).
    pub fn fleet_config(&self, engine: EngineConfig) -> FleetConfig {
        FleetConfig::new(self.replicas, self.policy, self.request_rate, engine)
            .with_backend_overrides(self.backend_overrides.clone())
            .with_events(self.events.clone())
            .with_roles(self.roles.clone())
    }
}
