//! Lossless JSON encoding of the scenario tree (schema
//! `moentwine/scenario/v1`).
//!
//! The workspace builds offline against a no-op `serde` shim, so the codec
//! is hand-rolled over [`moentwine_json::Value`]: every enum encodes as an
//! object with a `"kind"` tag, every knob is emitted explicitly (no
//! defaulting on output), and parsing accepts missing optional sections
//! (`fleet`, `sweep`) but requires every engine knob it emits — which is
//! what makes `from_json(to_json(spec)) == spec` an identity
//! (`tests/roundtrip.rs` pins it under proptest).
//!
//! Integers (seeds, counts) ride in JSON numbers, which are `f64`: exact
//! up to 2^53. The `u64`-typed knobs (seed, trigger_beta) above 2^53 are
//! emitted as decimal strings instead — and accepted back — so the full
//! `u64` domain round-trips losslessly even for programmatically chosen
//! seeds. Unknown members of objects with optional keys (the scenario
//! root, `fleet`, `sweep`) are rejected, so a typo'd section name is a
//! typed error, not a silent semantic change.

use moe_model::{InferencePhase, ModelConfig};
use moe_workload::{RouterPolicy, Scenario as WorkloadScenario, WorkloadMix};
use moentwine_core::ConfigError;
use moentwine_json::Value;
use wsc_sim::CongestionBackend;

use crate::engine::{BatchSpec, EngineSpec, ServingSpec};
use crate::fleet::FleetSpec;
use crate::model::ModelSpec;
use crate::platform::{MappingSpec, PlatformSpec};
use crate::scenario::ScenarioSpec;
use crate::sweep::SweepSpec;
use crate::workload::{ArrivalSourceSpec, WorkloadSpec};
use crate::SCHEMA;
use moe_workload::{ClassSpec, Phase, RequestClass};
use moentwine_core::engine::SummaryMode;
use moentwine_core::fleet::{FleetEvent, FleetEventKind, ReplicaRole};

// ---------------------------------------------------------------------------
// Small field accessors (all failures become typed `ConfigError::Spec`s).

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn get<'a>(value: &'a Value, ctx: &str, key: &str) -> Result<&'a Value, ConfigError> {
    value
        .get(key)
        .ok_or_else(|| ConfigError::spec(format!("{ctx}.{key}"), "missing field"))
}

fn get_str<'a>(value: &'a Value, ctx: &str, key: &str) -> Result<&'a str, ConfigError> {
    get(value, ctx, key)?
        .as_str()
        .ok_or_else(|| ConfigError::spec(format!("{ctx}.{key}"), "expected a string"))
}

fn get_f64(value: &Value, ctx: &str, key: &str) -> Result<f64, ConfigError> {
    get(value, ctx, key)?
        .as_f64()
        .ok_or_else(|| ConfigError::spec(format!("{ctx}.{key}"), "expected a number"))
}

fn get_bool(value: &Value, ctx: &str, key: &str) -> Result<bool, ConfigError> {
    match get(value, ctx, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(ConfigError::spec(
            format!("{ctx}.{key}"),
            "expected a boolean",
        )),
    }
}

/// A non-negative integer field (counts, seeds, dimensions). Values above
/// 2^53 (the f64 mantissa) ride as decimal strings — see [`uint_value`] —
/// so the full `u64` domain round-trips losslessly.
fn get_uint(value: &Value, ctx: &str, key: &str) -> Result<u64, ConfigError> {
    if let Some(text) = get(value, ctx, key)?.as_str() {
        return text.parse::<u64>().map_err(|_| {
            ConfigError::spec(
                format!("{ctx}.{key}"),
                format!("expected a non-negative integer, got {text:?}"),
            )
        });
    }
    let n = get_f64(value, ctx, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(ConfigError::spec(
            format!("{ctx}.{key}"),
            format!("expected a non-negative integer, got {n}"),
        ));
    }
    Ok(n as u64)
}

/// Emits a `u64` exactly: a JSON number up to 2^53, a decimal string
/// above (f64 numbers would silently round there, breaking the lossless
/// round-trip for programmatically chosen seeds).
fn uint_value(n: u64) -> Value {
    if n <= 1u64 << 53 {
        Value::Num(n as f64)
    } else {
        Value::Str(n.to_string())
    }
}

/// Rejects unknown members of an object whose non-required keys could
/// otherwise make a typo a silent semantic change (a misspelled `fleet`
/// or `sweep` section, a misspelled sweep axis).
fn reject_unknown(value: &Value, ctx: &str, allowed: &[&str]) -> Result<(), ConfigError> {
    if let Value::Obj(members) = value {
        for (key, _) in members {
            if !allowed.contains(&key.as_str()) {
                return Err(ConfigError::spec(
                    format!("{ctx}.{key}"),
                    format!("unknown field (expected one of {allowed:?})"),
                ));
            }
        }
    }
    Ok(())
}

fn get_u16(value: &Value, ctx: &str, key: &str) -> Result<u16, ConfigError> {
    let n = get_uint(value, ctx, key)?;
    u16::try_from(n)
        .map_err(|_| ConfigError::spec(format!("{ctx}.{key}"), format!("{n} exceeds u16")))
}

fn get_u32(value: &Value, ctx: &str, key: &str) -> Result<u32, ConfigError> {
    let n = get_uint(value, ctx, key)?;
    u32::try_from(n)
        .map_err(|_| ConfigError::spec(format!("{ctx}.{key}"), format!("{n} exceeds u32")))
}

fn get_usize(value: &Value, ctx: &str, key: &str) -> Result<usize, ConfigError> {
    Ok(get_uint(value, ctx, key)? as usize)
}

fn parse_tag<T: std::str::FromStr<Err = String>>(text: &str, ctx: &str) -> Result<T, ConfigError> {
    text.parse::<T>()
        .map_err(|e| ConfigError::spec(ctx.to_string(), e))
}

// ---------------------------------------------------------------------------
// Platform / mapping.

impl PlatformSpec {
    fn to_json_value(&self) -> Value {
        match *self {
            PlatformSpec::Wsc { n } => obj(vec![
                ("kind", Value::Str("wsc".into())),
                ("n", num(n as f64)),
            ]),
            PlatformSpec::MultiWsc {
                wafers_x,
                wafers_y,
                n,
            } => obj(vec![
                ("kind", Value::Str("multi-wsc".into())),
                ("wafers_x", num(wafers_x as f64)),
                ("wafers_y", num(wafers_y as f64)),
                ("n", num(n as f64)),
            ]),
            PlatformSpec::Dgx { nodes } => obj(vec![
                ("kind", Value::Str("dgx".into())),
                ("nodes", num(nodes as f64)),
            ]),
            PlatformSpec::Nvl72 => obj(vec![("kind", Value::Str("nvl72".into()))]),
            PlatformSpec::Flat { devices } => obj(vec![
                ("kind", Value::Str("flat".into())),
                ("devices", num(devices as f64)),
            ]),
        }
    }

    fn from_json_value(value: &Value) -> Result<Self, ConfigError> {
        let ctx = "platform";
        let spec = match get_str(value, ctx, "kind")? {
            "wsc" => PlatformSpec::Wsc {
                n: get_u16(value, ctx, "n")?,
            },
            "multi-wsc" => PlatformSpec::MultiWsc {
                wafers_x: get_u16(value, ctx, "wafers_x")?,
                wafers_y: get_u16(value, ctx, "wafers_y")?,
                n: get_u16(value, ctx, "n")?,
            },
            "dgx" => PlatformSpec::Dgx {
                nodes: get_u16(value, ctx, "nodes")?,
            },
            "nvl72" => PlatformSpec::Nvl72,
            "flat" => PlatformSpec::Flat {
                devices: get_u16(value, ctx, "devices")?,
            },
            other => {
                return Err(ConfigError::spec(
                    "platform.kind",
                    format!(
                        "unknown kind {other:?} (expected \"wsc\", \"multi-wsc\", \
                         \"dgx\", \"nvl72\", or \"flat\")"
                    ),
                ))
            }
        };
        spec.check_size()?;
        Ok(spec)
    }
}

impl MappingSpec {
    fn to_json_value(self) -> Value {
        obj(vec![
            ("kind", Value::Str(self.kind().into())),
            ("tp", num(self.tp() as f64)),
        ])
    }

    fn from_json_value(value: &Value) -> Result<Self, ConfigError> {
        let ctx = "mapping";
        let tp = get_usize(value, ctx, "tp")?;
        Ok(match get_str(value, ctx, "kind")? {
            "baseline" => MappingSpec::Baseline { tp },
            "er" => MappingSpec::Er { tp },
            "her" => MappingSpec::Her { tp },
            "cluster" => MappingSpec::Cluster { tp },
            other => {
                return Err(ConfigError::spec(
                    "mapping.kind",
                    format!(
                        "unknown kind {other:?} (expected \"baseline\", \"er\", \
                         \"her\", or \"cluster\")"
                    ),
                ))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Model.

fn model_config_to_json(m: &ModelConfig) -> Value {
    obj(vec![
        ("name", Value::Str(m.name.clone())),
        ("total_params_b", num(m.total_params_b)),
        ("num_layers", num(m.num_layers as f64)),
        ("num_sparse_layers", num(m.num_sparse_layers as f64)),
        ("hidden_size", num(m.hidden_size as f64)),
        ("moe_intermediate_size", num(m.moe_intermediate_size as f64)),
        ("num_experts", num(m.num_experts as f64)),
        ("experts_per_token", num(m.experts_per_token as f64)),
        ("num_shared_experts", num(m.num_shared_experts as f64)),
        ("num_attention_heads", num(m.num_attention_heads as f64)),
        ("num_kv_heads", num(m.num_kv_heads as f64)),
        ("head_dim", num(m.head_dim as f64)),
    ])
}

fn model_config_from_json(value: &Value) -> Result<ModelConfig, ConfigError> {
    let ctx = "model.custom";
    Ok(ModelConfig {
        name: get_str(value, ctx, "name")?.to_string(),
        total_params_b: get_f64(value, ctx, "total_params_b")?,
        num_layers: get_u32(value, ctx, "num_layers")?,
        num_sparse_layers: get_u32(value, ctx, "num_sparse_layers")?,
        hidden_size: get_u32(value, ctx, "hidden_size")?,
        moe_intermediate_size: get_u32(value, ctx, "moe_intermediate_size")?,
        num_experts: get_u32(value, ctx, "num_experts")?,
        experts_per_token: get_u32(value, ctx, "experts_per_token")?,
        num_shared_experts: get_u32(value, ctx, "num_shared_experts")?,
        num_attention_heads: get_u32(value, ctx, "num_attention_heads")?,
        num_kv_heads: get_u32(value, ctx, "num_kv_heads")?,
        head_dim: get_u32(value, ctx, "head_dim")?,
    })
}

impl ModelSpec {
    fn to_json_value(&self) -> Value {
        match self {
            ModelSpec::Preset(name) => obj(vec![("preset", Value::Str(name.clone()))]),
            ModelSpec::Custom(config) => obj(vec![("custom", model_config_to_json(config))]),
        }
    }

    fn from_json_value(value: &Value) -> Result<Self, ConfigError> {
        if let Some(preset) = value.get("preset") {
            let name = preset
                .as_str()
                .ok_or_else(|| ConfigError::spec("model.preset", "expected a string"))?;
            return Ok(ModelSpec::Preset(name.to_string()));
        }
        if let Some(custom) = value.get("custom") {
            return Ok(ModelSpec::Custom(model_config_from_json(custom)?));
        }
        Err(ConfigError::spec(
            "model",
            "expected a {\"preset\": ...} or {\"custom\": {...}} object",
        ))
    }
}

// ---------------------------------------------------------------------------
// Workload / batch / engine.

fn scenario_tag(s: WorkloadScenario) -> Value {
    Value::Str(s.name().into())
}

fn scenario_from(value: &Value, ctx: &str) -> Result<WorkloadScenario, ConfigError> {
    let text = value
        .as_str()
        .ok_or_else(|| ConfigError::spec(ctx.to_string(), "expected a scenario name string"))?;
    parse_tag(text, ctx)
}

fn workload_to_json(mix: &WorkloadMix) -> Value {
    match mix {
        WorkloadMix::Fixed(s) => obj(vec![
            ("kind", Value::Str("fixed".into())),
            ("scenario", scenario_tag(*s)),
        ]),
        WorkloadMix::Cycling { period, scenarios } => obj(vec![
            ("kind", Value::Str("cycling".into())),
            ("period", num(*period)),
            (
                "scenarios",
                Value::Arr(scenarios.iter().map(|&s| scenario_tag(s)).collect()),
            ),
        ]),
        WorkloadMix::Blend(weights) => obj(vec![
            ("kind", Value::Str("blend".into())),
            (
                "weights",
                Value::Arr(
                    weights
                        .iter()
                        .map(|&(s, w)| Value::Arr(vec![scenario_tag(s), num(w)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

fn workload_from_json(value: &Value) -> Result<WorkloadMix, ConfigError> {
    let ctx = "engine.workload";
    Ok(match get_str(value, ctx, "kind")? {
        "fixed" => WorkloadMix::Fixed(scenario_from(
            get(value, ctx, "scenario")?,
            "engine.workload.scenario",
        )?),
        "cycling" => {
            let scenarios = get(value, ctx, "scenarios")?
                .as_array()
                .ok_or_else(|| ConfigError::spec("engine.workload.scenarios", "expected an array"))?
                .iter()
                .map(|v| scenario_from(v, "engine.workload.scenarios"))
                .collect::<Result<Vec<_>, _>>()?;
            WorkloadMix::Cycling {
                period: get_f64(value, ctx, "period")?,
                scenarios,
            }
        }
        "blend" => {
            let weights = get(value, ctx, "weights")?
                .as_array()
                .ok_or_else(|| ConfigError::spec("engine.workload.weights", "expected an array"))?
                .iter()
                .map(|pair| {
                    let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        ConfigError::spec(
                            "engine.workload.weights",
                            "expected [scenario, weight] pairs",
                        )
                    })?;
                    let scenario = scenario_from(&items[0], "engine.workload.weights")?;
                    let weight = items[1].as_f64().ok_or_else(|| {
                        ConfigError::spec("engine.workload.weights", "weight must be a number")
                    })?;
                    Ok((scenario, weight))
                })
                .collect::<Result<Vec<_>, ConfigError>>()?;
            WorkloadMix::Blend(weights)
        }
        other => {
            return Err(ConfigError::spec(
                "engine.workload.kind",
                format!("unknown kind {other:?} (expected \"fixed\", \"cycling\", or \"blend\")"),
            ))
        }
    })
}

fn arrivals_to_json(arrivals: &ArrivalSourceSpec) -> Value {
    match arrivals {
        ArrivalSourceSpec::Diurnal { amplitude, period } => obj(vec![
            ("kind", Value::Str("diurnal".into())),
            ("amplitude", num(*amplitude)),
            ("period", num(*period)),
        ]),
        ArrivalSourceSpec::Burst {
            period,
            burst_duration,
            quiet_factor,
            burst_factor,
        } => obj(vec![
            ("kind", Value::Str("burst".into())),
            ("period", num(*period)),
            ("burst_duration", num(*burst_duration)),
            ("quiet_factor", num(*quiet_factor)),
            ("burst_factor", num(*burst_factor)),
        ]),
        ArrivalSourceSpec::Spike {
            quiet_duration,
            spike_duration,
            spike_factor,
        } => obj(vec![
            ("kind", Value::Str("spike".into())),
            ("quiet_duration", num(*quiet_duration)),
            ("spike_duration", num(*spike_duration)),
            ("spike_factor", num(*spike_factor)),
        ]),
        ArrivalSourceSpec::Ramp {
            steps,
            step_duration,
            start_factor,
            end_factor,
        } => obj(vec![
            ("kind", Value::Str("ramp".into())),
            ("steps", num(*steps as f64)),
            ("step_duration", num(*step_duration)),
            ("start_factor", num(*start_factor)),
            ("end_factor", num(*end_factor)),
        ]),
        ArrivalSourceSpec::Phases(phases) => obj(vec![
            ("kind", Value::Str("phases".into())),
            (
                "phases",
                Value::Arr(
                    phases
                        .iter()
                        .map(|p| Value::Arr(vec![num(p.duration), num(p.rate_factor)]))
                        .collect(),
                ),
            ),
        ]),
        ArrivalSourceSpec::Trace { path } => obj(vec![
            ("kind", Value::Str("trace".into())),
            ("path", Value::Str(path.clone())),
        ]),
    }
}

fn arrivals_from_json(value: &Value) -> Result<ArrivalSourceSpec, ConfigError> {
    let ctx = "engine.batch.workload.arrivals";
    let arrivals = match get_str(value, ctx, "kind")? {
        "diurnal" => {
            reject_unknown(value, ctx, &["kind", "amplitude", "period"])?;
            ArrivalSourceSpec::Diurnal {
                amplitude: get_f64(value, ctx, "amplitude")?,
                period: get_f64(value, ctx, "period")?,
            }
        }
        "burst" => {
            reject_unknown(
                value,
                ctx,
                &[
                    "kind",
                    "period",
                    "burst_duration",
                    "quiet_factor",
                    "burst_factor",
                ],
            )?;
            ArrivalSourceSpec::Burst {
                period: get_f64(value, ctx, "period")?,
                burst_duration: get_f64(value, ctx, "burst_duration")?,
                quiet_factor: get_f64(value, ctx, "quiet_factor")?,
                burst_factor: get_f64(value, ctx, "burst_factor")?,
            }
        }
        "spike" => {
            reject_unknown(
                value,
                ctx,
                &["kind", "quiet_duration", "spike_duration", "spike_factor"],
            )?;
            ArrivalSourceSpec::Spike {
                quiet_duration: get_f64(value, ctx, "quiet_duration")?,
                spike_duration: get_f64(value, ctx, "spike_duration")?,
                spike_factor: get_f64(value, ctx, "spike_factor")?,
            }
        }
        "ramp" => {
            reject_unknown(
                value,
                ctx,
                &[
                    "kind",
                    "steps",
                    "step_duration",
                    "start_factor",
                    "end_factor",
                ],
            )?;
            ArrivalSourceSpec::Ramp {
                steps: get_usize(value, ctx, "steps")?,
                step_duration: get_f64(value, ctx, "step_duration")?,
                start_factor: get_f64(value, ctx, "start_factor")?,
                end_factor: get_f64(value, ctx, "end_factor")?,
            }
        }
        "phases" => {
            reject_unknown(value, ctx, &["kind", "phases"])?;
            let phases = get(value, ctx, "phases")?
                .as_array()
                .ok_or_else(|| ConfigError::spec(format!("{ctx}.phases"), "expected an array"))?
                .iter()
                .map(|pair| {
                    let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        ConfigError::spec(
                            format!("{ctx}.phases"),
                            "expected [duration, rate_factor] pairs",
                        )
                    })?;
                    let field = |v: &Value, what: &str| {
                        v.as_f64().ok_or_else(|| {
                            ConfigError::spec(
                                format!("{ctx}.phases"),
                                format!("{what} must be a number"),
                            )
                        })
                    };
                    Ok(Phase {
                        duration: field(&items[0], "duration")?,
                        rate_factor: field(&items[1], "rate_factor")?,
                    })
                })
                .collect::<Result<Vec<_>, ConfigError>>()?;
            ArrivalSourceSpec::Phases(phases)
        }
        "trace" => {
            reject_unknown(value, ctx, &["kind", "path"])?;
            ArrivalSourceSpec::Trace {
                path: get_str(value, ctx, "path")?.to_string(),
            }
        }
        other => {
            return Err(ConfigError::spec(
                format!("{ctx}.kind"),
                format!(
                    "unknown kind {other:?} (expected \"diurnal\", \"burst\", \"spike\", \
                     \"ramp\", \"phases\", or \"trace\")"
                ),
            ))
        }
    };
    Ok(arrivals)
}

fn class_to_json(c: &ClassSpec) -> Value {
    let mut fields = vec![
        ("class", Value::Str(c.class.name().into())),
        ("weight", num(c.weight)),
        ("ttft_slo", num(c.ttft_slo)),
        ("tpot_slo", num(c.tpot_slo)),
    ];
    // Omitted when unset so class lists stay byte-stable.
    if let Some(deadline) = c.shed_after {
        fields.push(("shed_after", num(deadline)));
    }
    obj(fields)
}

fn class_from_json(value: &Value) -> Result<ClassSpec, ConfigError> {
    let ctx = "engine.batch.workload.classes";
    reject_unknown(
        value,
        ctx,
        &["class", "weight", "ttft_slo", "tpot_slo", "shed_after"],
    )?;
    let class = parse_tag::<RequestClass>(get_str(value, ctx, "class")?, ctx)?;
    let shed_after =
        match value.get("shed_after") {
            None => None,
            Some(v) => Some(v.as_f64().ok_or_else(|| {
                ConfigError::spec(format!("{ctx}.shed_after"), "expected a number")
            })?),
        };
    Ok(ClassSpec {
        class,
        weight: get_f64(value, ctx, "weight")?,
        ttft_slo: get_f64(value, ctx, "ttft_slo")?,
        tpot_slo: get_f64(value, ctx, "tpot_slo")?,
        shed_after,
    })
}

fn workload_spec_to_json(workload: &WorkloadSpec) -> Value {
    let mut fields = vec![("arrivals", arrivals_to_json(&workload.arrivals))];
    if !workload.classes.is_empty() {
        fields.push((
            "classes",
            Value::Arr(workload.classes.iter().map(class_to_json).collect()),
        ));
    }
    obj(fields)
}

fn workload_spec_from_json(value: &Value) -> Result<WorkloadSpec, ConfigError> {
    let ctx = "engine.batch.workload";
    reject_unknown(value, ctx, &["arrivals", "classes"])?;
    let classes = match value.get("classes") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| ConfigError::spec(format!("{ctx}.classes"), "expected an array"))?
            .iter()
            .map(class_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let workload = WorkloadSpec {
        arrivals: arrivals_from_json(get(value, ctx, "arrivals")?)?,
        classes,
    };
    // Numeric validation only — trace files are read when the scenario
    // builds, never at parse time.
    workload.validate()?;
    Ok(workload)
}

fn phase_name(phase: InferencePhase) -> &'static str {
    match phase {
        InferencePhase::Prefill => "prefill",
        InferencePhase::Decode => "decode",
    }
}

fn phase_from(text: &str, ctx: &str) -> Result<InferencePhase, ConfigError> {
    match text {
        "prefill" => Ok(InferencePhase::Prefill),
        "decode" => Ok(InferencePhase::Decode),
        other => Err(ConfigError::spec(
            ctx.to_string(),
            format!("unknown phase {other:?} (expected \"prefill\" or \"decode\")"),
        )),
    }
}

fn batch_to_json(batch: &BatchSpec) -> Value {
    match batch {
        BatchSpec::Fixed {
            tokens_per_group,
            avg_context,
            phase,
        } => obj(vec![
            ("kind", Value::Str("fixed".into())),
            ("tokens_per_group", num(*tokens_per_group as f64)),
            ("avg_context", num(*avg_context)),
            ("phase", Value::Str(phase_name(*phase).into())),
        ]),
        BatchSpec::Serving(s) => {
            let mut fields = vec![
                ("kind", Value::Str("serving".into())),
                ("mode", Value::Str(s.mode.name().into())),
                ("max_batch_tokens", num(s.max_batch_tokens as f64)),
                ("max_active", num(s.max_active as f64)),
                ("request_rate", num(s.request_rate)),
                ("iteration_period", num(s.iteration_period)),
                ("summary", Value::Str(s.summary.name().into())),
            ];
            // Omitted when absent so workload-free scenario documents stay
            // byte-identical to their pre-workload encodings.
            if let Some(workload) = &s.workload {
                fields.push(("workload", workload_spec_to_json(workload)));
            }
            obj(fields)
        }
    }
}

fn batch_from_json(value: &Value) -> Result<BatchSpec, ConfigError> {
    let ctx = "engine.batch";
    Ok(match get_str(value, ctx, "kind")? {
        "fixed" => BatchSpec::Fixed {
            tokens_per_group: get_u32(value, ctx, "tokens_per_group")?,
            avg_context: get_f64(value, ctx, "avg_context")?,
            phase: phase_from(get_str(value, ctx, "phase")?, "engine.batch.phase")?,
        },
        "serving" => {
            // `summary` is optional (older specs predate it), so a typo
            // would silently fall back to exact mode; reject unknown
            // members.
            reject_unknown(
                value,
                ctx,
                &[
                    "kind",
                    "mode",
                    "max_batch_tokens",
                    "max_active",
                    "request_rate",
                    "iteration_period",
                    "summary",
                    "workload",
                ],
            )?;
            let summary = match value.get("summary") {
                None => SummaryMode::Exact,
                Some(v) => {
                    let text = v.as_str().ok_or_else(|| {
                        ConfigError::spec("engine.batch.summary", "expected a string")
                    })?;
                    parse_tag::<SummaryMode>(text, "engine.batch.summary")?
                }
            };
            let workload = match value.get("workload") {
                None => None,
                Some(v) => Some(workload_spec_from_json(v)?),
            };
            BatchSpec::Serving(ServingSpec {
                mode: parse_tag(get_str(value, ctx, "mode")?, "engine.batch.mode")?,
                max_batch_tokens: get_u32(value, ctx, "max_batch_tokens")?,
                max_active: get_usize(value, ctx, "max_active")?,
                request_rate: get_f64(value, ctx, "request_rate")?,
                iteration_period: get_f64(value, ctx, "iteration_period")?,
                summary,
                workload,
            })
        }
        other => {
            return Err(ConfigError::spec(
                "engine.batch.kind",
                format!("unknown kind {other:?} (expected \"fixed\" or \"serving\")"),
            ))
        }
    })
}

impl EngineSpec {
    fn to_json_value(&self) -> Value {
        obj(vec![
            ("seed", uint_value(self.seed)),
            ("backend", Value::Str(self.backend.name().into())),
            ("balancer", Value::Str(self.balancer.name().into())),
            ("workload", workload_to_json(&self.workload)),
            ("batch", batch_to_json(&self.batch)),
            ("trigger_alpha_per_layer", num(self.trigger_alpha_per_layer)),
            ("trigger_beta", uint_value(self.trigger_beta)),
            ("slots_per_device", num(self.slots_per_device as f64)),
            (
                "max_actions_per_layer",
                num(self.max_actions_per_layer as f64),
            ),
            ("comm_layer_stride", num(self.comm_layer_stride as f64)),
            (
                "pipeline_microbatches",
                num(self.pipeline_microbatches as f64),
            ),
            ("uniform_gating", Value::Bool(self.uniform_gating)),
            ("cold_bandwidth", num(self.cold_bandwidth)),
            ("load_ema", num(self.load_ema)),
            ("kv_hbm_fraction", num(self.kv_hbm_fraction)),
            ("cache_entries", num(self.cache_entries as f64)),
        ])
    }

    fn from_json_value(value: &Value) -> Result<Self, ConfigError> {
        let ctx = "engine";
        Ok(EngineSpec {
            seed: get_uint(value, ctx, "seed")?,
            backend: parse_tag(get_str(value, ctx, "backend")?, "engine.backend")?,
            balancer: parse_tag(get_str(value, ctx, "balancer")?, "engine.balancer")?,
            workload: workload_from_json(get(value, ctx, "workload")?)?,
            batch: batch_from_json(get(value, ctx, "batch")?)?,
            trigger_alpha_per_layer: get_f64(value, ctx, "trigger_alpha_per_layer")?,
            trigger_beta: get_uint(value, ctx, "trigger_beta")?,
            slots_per_device: get_usize(value, ctx, "slots_per_device")?,
            max_actions_per_layer: get_usize(value, ctx, "max_actions_per_layer")?,
            comm_layer_stride: get_usize(value, ctx, "comm_layer_stride")?,
            pipeline_microbatches: get_usize(value, ctx, "pipeline_microbatches")?,
            uniform_gating: get_bool(value, ctx, "uniform_gating")?,
            cold_bandwidth: get_f64(value, ctx, "cold_bandwidth")?,
            load_ema: get_f64(value, ctx, "load_ema")?,
            kv_hbm_fraction: get_f64(value, ctx, "kv_hbm_fraction")?,
            cache_entries: get_usize(value, ctx, "cache_entries")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Fleet / sweep.

/// One timeline event: `{"kind": ..., "time": ...}` plus the kind's own
/// operand (`count` for scale-ups, `replica` otherwise).
fn fleet_event_to_json(event: &FleetEvent) -> Value {
    let mut fields = vec![
        ("kind", Value::Str(event.kind.name().into())),
        ("time", num(event.time)),
    ];
    match event.kind {
        FleetEventKind::ScaleUp { count } => fields.push(("count", num(count as f64))),
        FleetEventKind::Drain { replica }
        | FleetEventKind::Crash { replica }
        | FleetEventKind::Recover { replica } => fields.push(("replica", num(replica as f64))),
    }
    obj(fields)
}

fn fleet_event_from_json(value: &Value, index: usize) -> Result<FleetEvent, ConfigError> {
    let ctx = format!("fleet.events[{index}]");
    let kind = match get_str(value, &ctx, "kind")? {
        "scale-up" => {
            reject_unknown(value, &ctx, &["kind", "time", "count"])?;
            FleetEventKind::ScaleUp {
                count: get_usize(value, &ctx, "count")?,
            }
        }
        "drain" => {
            reject_unknown(value, &ctx, &["kind", "time", "replica"])?;
            FleetEventKind::Drain {
                replica: get_usize(value, &ctx, "replica")?,
            }
        }
        "crash" => {
            reject_unknown(value, &ctx, &["kind", "time", "replica"])?;
            FleetEventKind::Crash {
                replica: get_usize(value, &ctx, "replica")?,
            }
        }
        "recover" => {
            reject_unknown(value, &ctx, &["kind", "time", "replica"])?;
            FleetEventKind::Recover {
                replica: get_usize(value, &ctx, "replica")?,
            }
        }
        other => {
            return Err(ConfigError::spec(
                format!("{ctx}.kind"),
                format!(
                    "unknown kind {other:?} (expected \"scale-up\", \"drain\", \
                     \"crash\", or \"recover\")"
                ),
            ))
        }
    };
    Ok(FleetEvent {
        time: get_f64(value, &ctx, "time")?,
        kind,
    })
}

impl FleetSpec {
    fn to_json_value(&self) -> Value {
        let mut fields = vec![
            ("replicas", num(self.replicas as f64)),
            ("policy", Value::Str(self.policy.name())),
            ("request_rate", num(self.request_rate)),
            (
                "backend_overrides",
                Value::strings(self.backend_overrides.iter().map(|b| b.name())),
            ),
        ];
        // Only emitted when non-empty, so event-free documents stay
        // byte-identical to the pre-timeline schema.
        if !self.events.is_empty() {
            fields.push((
                "events",
                Value::Arr(self.events.iter().map(fleet_event_to_json).collect()),
            ));
        }
        // Same contract for the disaggregation members: colocated fleets
        // stay byte-identical to the pre-role schema.
        if !self.roles.is_empty() {
            fields.push(("roles", Value::strings(self.roles.iter().map(|r| r.name()))));
        }
        if let Some(platform) = &self.decode_platform {
            fields.push(("decode_platform", platform.to_json_value()));
        }
        if let Some(mapping) = self.decode_mapping {
            fields.push(("decode_mapping", mapping.to_json_value()));
        }
        obj(fields)
    }

    fn from_json_value(value: &Value) -> Result<Self, ConfigError> {
        let ctx = "fleet";
        // `backend_overrides`, `scheduler`, and `events` are optional, so
        // a typo would silently drop them; reject unknown members.
        reject_unknown(
            value,
            ctx,
            &[
                "replicas",
                "policy",
                "request_rate",
                "backend_overrides",
                "scheduler",
                "events",
                "roles",
                "decode_platform",
                "decode_mapping",
            ],
        )?;
        let overrides = match value.get("backend_overrides") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| {
                    ConfigError::spec("fleet.backend_overrides", "expected an array of names")
                })?
                .iter()
                .map(|b| {
                    let text = b.as_str().ok_or_else(|| {
                        ConfigError::spec("fleet.backend_overrides", "expected backend names")
                    })?;
                    parse_tag::<CongestionBackend>(text, "fleet.backend_overrides")
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Parse-only: the fleet has one event loop, so the one accepted
        // value changes nothing and is never emitted.
        if let Some(v) = value.get("scheduler") {
            if v.as_str() != Some("event-heap") {
                return Err(ConfigError::spec(
                    "fleet.scheduler",
                    "expected \"event-heap\" (the only fleet drive; the member is optional)",
                ));
            }
        }
        let events = match value.get("events") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ConfigError::spec("fleet.events", "expected an array of events"))?
                .iter()
                .enumerate()
                .map(|(i, e)| fleet_event_from_json(e, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let roles = match value.get("roles") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ConfigError::spec("fleet.roles", "expected an array of role names"))?
                .iter()
                .map(|r| {
                    let text = r
                        .as_str()
                        .ok_or_else(|| ConfigError::spec("fleet.roles", "expected role names"))?;
                    parse_tag::<ReplicaRole>(text, "fleet.roles")
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let decode_platform = match value.get("decode_platform") {
            None => None,
            Some(v) => Some(PlatformSpec::from_json_value(v)?),
        };
        let decode_mapping = match value.get("decode_mapping") {
            None => None,
            Some(v) => Some(MappingSpec::from_json_value(v)?),
        };
        let spec = FleetSpec {
            replicas: get_usize(value, ctx, "replicas")?,
            policy: parse_tag(get_str(value, ctx, "policy")?, "fleet.policy")?,
            request_rate: get_f64(value, ctx, "request_rate")?,
            backend_overrides: overrides,
            events,
            roles,
            decode_platform,
            decode_mapping,
        };
        // Reject bad role sets and bad timelines (unsorted times,
        // out-of-range replicas, no-op transitions, role sets with no
        // prefill/decode capacity) at parse time with the same typed
        // errors the fleet constructor raises — not as a silent drop or a
        // later panic.
        spec.validate_shape()?;
        Ok(spec)
    }
}

impl SweepSpec {
    fn to_json_value(&self) -> Value {
        obj(vec![
            (
                "rates",
                Value::Arr(self.rates.iter().map(|&r| num(r)).collect()),
            ),
            (
                "backends",
                Value::strings(self.backends.iter().map(|b| b.name())),
            ),
            (
                "policies",
                Value::strings(self.policies.iter().map(|p| p.name())),
            ),
            (
                "replicas",
                Value::Arr(self.replicas.iter().map(|&n| num(n as f64)).collect()),
            ),
        ])
    }

    fn from_json_value(value: &Value) -> Result<Self, ConfigError> {
        // Every axis is optional, so a typo ("rate") would silently leave
        // the axis empty; reject unknown members.
        reject_unknown(
            value,
            "sweep",
            &["rates", "backends", "policies", "replicas"],
        )?;
        let list = |key: &str| -> Result<Vec<Value>, ConfigError> {
            match value.get(key) {
                None => Ok(Vec::new()),
                Some(v) => v
                    .as_array()
                    .map(<[Value]>::to_vec)
                    .ok_or_else(|| ConfigError::spec(format!("sweep.{key}"), "expected an array")),
            }
        };
        let rates = list("rates")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| ConfigError::spec("sweep.rates", "expected numbers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let backends = list("backends")?
            .iter()
            .map(|v| {
                let text = v
                    .as_str()
                    .ok_or_else(|| ConfigError::spec("sweep.backends", "expected names"))?;
                parse_tag::<CongestionBackend>(text, "sweep.backends")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let policies = list("policies")?
            .iter()
            .map(|v| {
                let text = v
                    .as_str()
                    .ok_or_else(|| ConfigError::spec("sweep.policies", "expected names"))?;
                parse_tag::<RouterPolicy>(text, "sweep.policies")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let replicas = list("replicas")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .map(|n| n as usize)
                    .ok_or_else(|| ConfigError::spec("sweep.replicas", "expected integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepSpec {
            rates,
            backends,
            policies,
            replicas,
        })
    }
}

// ---------------------------------------------------------------------------
// The root.

impl ScenarioSpec {
    /// Serializes the scenario to its JSON document (schema
    /// [`SCHEMA`](crate::SCHEMA)). Every knob is emitted explicitly, so
    /// the document is self-describing and the round-trip is lossless.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("name", Value::Str(self.name.clone())),
            ("platform", self.platform.to_json_value()),
            ("mapping", self.mapping.to_json_value()),
            ("model", self.model.to_json_value()),
            ("iterations", num(self.iterations as f64)),
            ("engine", self.engine.to_json_value()),
        ];
        if let Some(fleet) = &self.fleet {
            fields.push(("fleet", fleet.to_json_value()));
        }
        if let Some(sweep) = &self.sweep {
            fields.push(("sweep", sweep.to_json_value()));
        }
        obj(fields)
    }

    /// Parses a scenario from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::SchemaMismatch`] for a wrong/missing schema
    /// tag and a field-naming [`ConfigError::Spec`] for anything malformed
    /// below it.
    pub fn from_json(value: &Value) -> Result<Self, ConfigError> {
        let found = value
            .get("schema")
            .and_then(Value::as_str)
            .unwrap_or_default();
        if found != SCHEMA {
            return Err(ConfigError::SchemaMismatch {
                found: found.to_string(),
                expected: SCHEMA.to_string(),
            });
        }
        let ctx = "scenario";
        // The optional sections make top-level typos dangerous ("flete"
        // would otherwise silently run a fleet scenario as a single
        // engine); reject anything outside the schema.
        reject_unknown(
            value,
            ctx,
            &[
                "schema",
                "name",
                "platform",
                "mapping",
                "model",
                "iterations",
                "engine",
                "fleet",
                "sweep",
            ],
        )?;
        let fleet = match value.get("fleet") {
            None | Some(Value::Null) => None,
            Some(v) => Some(FleetSpec::from_json_value(v)?),
        };
        let sweep = match value.get("sweep") {
            None | Some(Value::Null) => None,
            Some(v) => Some(SweepSpec::from_json_value(v)?),
        };
        Ok(ScenarioSpec {
            name: get_str(value, ctx, "name")?.to_string(),
            platform: PlatformSpec::from_json_value(get(value, ctx, "platform")?)?,
            mapping: MappingSpec::from_json_value(get(value, ctx, "mapping")?)?,
            model: ModelSpec::from_json_value(get(value, ctx, "model")?)?,
            engine: EngineSpec::from_json_value(get(value, ctx, "engine")?)?,
            iterations: get_usize(value, ctx, "iterations")?,
            fleet,
            sweep,
        })
    }

    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Json`] for malformed JSON and whatever
    /// [`ScenarioSpec::from_json`] rejects about a well-formed document.
    pub fn from_json_text(text: &str) -> Result<Self, ConfigError> {
        Self::from_json(&Value::parse(text)?)
    }

    /// Serializes to pretty-printed JSON text (what the example scenario
    /// files under `examples/scenarios/` contain).
    pub fn to_json_text(&self) -> String {
        self.to_json().pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioSpec;
    use moentwine_core::balancer::BalancerKind;

    fn full_spec() -> ScenarioSpec {
        ScenarioSpec::new("full", PlatformSpec::multi_wsc(2, 1, 4))
            .with_mapping(MappingSpec::her(4))
            .with_model(ModelSpec::Custom(ModelConfig::tiny()))
            .with_engine(
                EngineSpec::default()
                    .with_seed(99)
                    .with_backend(CongestionBackend::FlowSimCached)
                    .with_balancer(BalancerKind::NonInvasive)
                    .with_workload(WorkloadMix::Blend(vec![
                        (WorkloadScenario::Chat, 2.0),
                        (WorkloadScenario::Math, 1.0),
                    ]))
                    .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 5.0e3))),
            )
            .with_fleet(
                FleetSpec::new(3, RouterPolicy::PowerOfTwoChoices, 9.0e3)
                    .with_backend_overrides(vec![
                        CongestionBackend::Analytic,
                        CongestionBackend::FlowSim,
                    ])
                    .with_events(vec![
                        FleetEvent {
                            time: 1.0e-3,
                            kind: FleetEventKind::Crash { replica: 1 },
                        },
                        FleetEvent {
                            time: 2.0e-3,
                            kind: FleetEventKind::ScaleUp { count: 2 },
                        },
                        FleetEvent {
                            time: 3.0e-3,
                            kind: FleetEventKind::Recover { replica: 1 },
                        },
                        FleetEvent {
                            time: 4.0e-3,
                            kind: FleetEventKind::Drain { replica: 4 },
                        },
                    ]),
            )
            .with_sweep(
                SweepSpec::default()
                    .with_rates(vec![1.0e3, 4.0e3])
                    .with_replicas(vec![1, 2, 4]),
            )
            .with_iterations(250)
    }

    #[test]
    fn roundtrip_identity_on_a_fully_populated_tree() {
        let spec = full_spec();
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
        // And through the actual text layer.
        let text = spec.to_json_text();
        assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);
    }

    #[test]
    fn roundtrip_identity_on_every_workload_and_batch_kind() {
        for workload in [
            WorkloadMix::Fixed(WorkloadScenario::Privacy),
            WorkloadMix::mixed(123.0),
            WorkloadMix::Blend(vec![(WorkloadScenario::Coding, 0.25)]),
        ] {
            for batch in [
                BatchSpec::Fixed {
                    tokens_per_group: 64,
                    avg_context: 1234.5,
                    phase: InferencePhase::Prefill,
                },
                BatchSpec::Serving(ServingSpec::hybrid(512, 32, 7.5e2)),
            ] {
                let spec = ScenarioSpec::new("kinds", PlatformSpec::wsc(4)).with_engine(
                    EngineSpec::default()
                        .with_workload(workload.clone())
                        .with_batch(batch.clone()),
                );
                let json = spec.to_json();
                assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
            }
        }
    }

    #[test]
    fn workload_members_roundtrip_and_reject_typos() {
        let workload = WorkloadSpec::new(ArrivalSourceSpec::Burst {
            period: 60.0,
            burst_duration: 5.0,
            quiet_factor: 0.2,
            burst_factor: 4.0,
        })
        .with_classes(vec![
            ClassSpec::interactive()
                .with_weight(3.0)
                .with_shed_after(0.4),
            ClassSpec::batch(),
        ]);
        let spec = ScenarioSpec::new("workload", PlatformSpec::wsc(4)).with_engine(
            EngineSpec::default().with_batch(BatchSpec::Serving(
                ServingSpec::hybrid(1024, 64, 2.0e3).with_workload(workload),
            )),
        );
        let text = spec.to_json_text();
        assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);
        // `shed_after` is omitted when unset (byte-stability of class lists).
        assert_eq!(text.matches("shed_after").count(), 1, "{text}");

        // A typo'd arrival knob is a typed error, not a silent default.
        let mut json = spec.to_json();
        let arrivals = ["engine", "batch", "workload", "arrivals", "kind"];
        with_member(&mut json, &arrivals, |m| {
            m.push(("burst_factr".into(), num(9.0)));
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("burst_factr"), "{err}");

        // Out-of-range knobs are caught at parse time, before any build.
        let mut json = spec.to_json();
        with_member(&mut json, &arrivals, |m| {
            for (k, v) in m.iter_mut() {
                if k == "burst_duration" {
                    *v = num(600.0); // longer than the period
                }
            }
        });
        assert!(ScenarioSpec::from_json(&json).is_err());
    }

    #[test]
    fn big_u64_knobs_roundtrip_exactly() {
        // Above 2^53 an f64 JSON number would round; the codec switches to
        // decimal strings so the round-trip stays an identity.
        let spec = ScenarioSpec::new("big-seed", PlatformSpec::wsc(4))
            .with_engine(EngineSpec::default().with_seed(u64::MAX - 1));
        let text = spec.to_json_text();
        assert!(text.contains(&format!("\"{}\"", u64::MAX - 1)), "{text}");
        assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);
    }

    #[test]
    fn unknown_optional_sections_are_rejected_not_ignored() {
        // A typo'd "fleet" must not silently run a single-engine scenario.
        let mut json = ScenarioSpec::new("typo", PlatformSpec::wsc(4)).to_json();
        if let Value::Obj(members) = &mut json {
            members.push(("flete".into(), obj(vec![("replicas", num(4.0))])));
        }
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("flete"), "{err}");

        // Same for a typo'd sweep axis and a typo'd fleet member.
        let mut spec = full_spec();
        spec.sweep = None;
        let mut json = spec.to_json();
        if let Value::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "fleet" {
                    if let Value::Obj(fields) = v {
                        fields.push(("backend_override".into(), Value::Arr(vec![])));
                    }
                }
            }
        }
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("backend_override"), "{err}");
    }

    #[test]
    fn disaggregated_fleet_members_roundtrip_and_bad_shapes_are_typed() {
        let spec = ScenarioSpec::new("disagg", PlatformSpec::wsc(4))
            .with_engine(
                EngineSpec::default()
                    .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 4.0e3))),
            )
            .with_fleet(
                FleetSpec::new(4, RouterPolicy::LeastQueueDepth, 8.0e3)
                    .with_roles(vec![
                        ReplicaRole::Prefill,
                        ReplicaRole::Prefill,
                        ReplicaRole::Decode,
                        ReplicaRole::Decode,
                    ])
                    .with_decode_platform(PlatformSpec::dgx(1), MappingSpec::cluster(8)),
            );
        let text = spec.to_json_text();
        assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);

        // Colocated fleets never emit the disaggregation members, so every
        // pre-role document stays byte-identical.
        let colocated = ScenarioSpec::new("colo", PlatformSpec::wsc(4))
            .with_engine(
                EngineSpec::default()
                    .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 4.0e3))),
            )
            .with_fleet(FleetSpec::new(2, RouterPolicy::RoundRobin, 1.0e3));
        let text = colocated.to_json_text();
        assert!(!text.contains("roles"), "{text}");
        assert!(!text.contains("decode_platform"), "{text}");

        // A misspelled role is a typed parse error naming the spelling.
        let mut json = spec.to_json();
        with_member(&mut json, &["fleet", "roles"], |fields| {
            fields.iter_mut().find(|(k, _)| k == "roles").unwrap().1 =
                Value::strings(["prefill", "prefill", "decode", "decoed"]);
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("decoed"), "{err}");

        // A role list that does not match the replica count.
        let mut json = spec.to_json();
        with_member(&mut json, &["fleet", "roles"], |fields| {
            fields.iter_mut().find(|(k, _)| k == "roles").unwrap().1 =
                Value::strings(["prefill", "decode"]);
        });
        assert_eq!(
            ScenarioSpec::from_json(&json).unwrap_err(),
            ConfigError::FleetRolesLengthMismatch {
                roles: 2,
                replicas: 4
            }
        );

        // All-prefill and all-decode role sets are capacity errors.
        let mut json = spec.to_json();
        with_member(&mut json, &["fleet", "roles"], |fields| {
            fields.iter_mut().find(|(k, _)| k == "roles").unwrap().1 =
                Value::strings(["prefill"; 4]);
        });
        assert_eq!(
            ScenarioSpec::from_json(&json).unwrap_err(),
            ConfigError::FleetNoDecodeCapacity
        );
        let mut json = spec.to_json();
        with_member(&mut json, &["fleet", "roles"], |fields| {
            fields.iter_mut().find(|(k, _)| k == "roles").unwrap().1 =
                Value::strings(["decode"; 4]);
        });
        assert_eq!(
            ScenarioSpec::from_json(&json).unwrap_err(),
            ConfigError::FleetNoPrefillCapacity
        );

        // decode_platform without decode_mapping (and vice versa).
        let mut json = spec.to_json();
        with_member(&mut json, &["fleet", "decode_mapping"], |fields| {
            fields.retain(|(k, _)| k != "decode_mapping");
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("set together"), "{err}");

        // A decode platform on an all-colocated fleet is dead config.
        let mut json = spec.to_json();
        with_member(&mut json, &["fleet", "roles"], |fields| {
            fields.retain(|(k, _)| k != "roles");
        });
        assert_eq!(
            ScenarioSpec::from_json(&json).unwrap_err(),
            ConfigError::FleetDecodePlatformUnused
        );
    }

    #[test]
    fn routing_policy_spellings_roundtrip_and_reject_typos() {
        // Every canonical and extended routing-policy spelling — including
        // the feedback policies and parameterized speculative dispatch —
        // survives the text layer as an identity.
        let with_policy = |policy: RouterPolicy, replicas: usize| {
            ScenarioSpec::new("policies", PlatformSpec::wsc(4))
                .with_engine(
                    EngineSpec::default()
                        .with_batch(BatchSpec::Serving(ServingSpec::hybrid(1024, 64, 2.0e3))),
                )
                .with_fleet(FleetSpec::new(replicas, policy, 1.0e3))
        };
        for policy in RouterPolicy::extended() {
            let spec = with_policy(policy, 2);
            let text = spec.to_json_text();
            assert!(text.contains(&policy.name()), "{text}");
            assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);
        }
        // A wider fan-out keeps its copy count through the codec.
        let spec = with_policy(RouterPolicy::Speculative { k: 4 }, 8);
        let text = spec.to_json_text();
        assert!(text.contains("speculative:k=4"), "{text}");
        assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);

        // Misspelled policies are typed parse errors naming the spelling,
        // not silent fallbacks to a default policy.
        for typo in ["ewma-tftt", "speculative:k=two", "speculative:k=0"] {
            let mut json = spec.to_json();
            with_member(&mut json, &["fleet", "policy"], |fields| {
                fields.iter_mut().find(|(k, _)| k == "policy").unwrap().1 = Value::Str(typo.into());
            });
            let err = ScenarioSpec::from_json(&json).unwrap_err();
            assert!(err.to_string().contains(typo), "{typo}: {err}");
        }
    }

    /// Mutates a nested object field along `path`, applying `f` to the
    /// object holding the final key.
    fn with_member(json: &mut Value, path: &[&str], f: impl FnOnce(&mut Vec<(String, Value)>)) {
        let mut cursor = json;
        for key in &path[..path.len() - 1] {
            let Value::Obj(members) = cursor else {
                panic!("expected an object at {key}");
            };
            cursor = &mut members
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1;
        }
        let Value::Obj(members) = cursor else {
            panic!("expected an object");
        };
        f(members);
    }

    #[test]
    fn invalid_summary_and_scheduler_spellings_are_rejected() {
        // "exactly" is not a summary mode; the error must name the field.
        let mut json = full_spec().to_json();
        with_member(&mut json, &["engine", "batch", "summary"], |members| {
            members
                .iter_mut()
                .find(|(k, _)| k == "summary")
                .expect("serving batch emits summary")
                .1 = Value::Str("exactly".into());
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("engine.batch.summary"), "{err}");

        // The parse-only scheduler member accepts "event-heap" alone:
        // "lockstep", "event_heap" (underscore) and a non-string are typed
        // errors naming the field.
        for bad in [
            Value::Str("lockstep".into()),
            Value::Str("event_heap".into()),
            num(1.0),
        ] {
            let mut json = full_spec().to_json();
            with_member(&mut json, &["fleet", "scheduler"], |members| {
                members.push(("scheduler".into(), bad));
            });
            let err = ScenarioSpec::from_json(&json).unwrap_err();
            assert!(err.to_string().contains("fleet.scheduler"), "{err}");
        }
    }

    #[test]
    fn invalid_fleet_event_spellings_are_rejected() {
        // An unknown event kind is a typed error naming the entry, not a
        // silently dropped event.
        let mut json = full_spec().to_json();
        with_member(&mut json, &["fleet", "events"], |members| {
            let (_, events) = members
                .iter_mut()
                .find(|(k, _)| k == "events")
                .expect("fleet with a timeline emits events");
            let Value::Arr(entries) = events else {
                panic!("events is an array");
            };
            entries[0] = obj(vec![
                ("kind", Value::Str("failover".into())),
                ("time", num(1.0e-3)),
                ("replica", num(1.0)),
            ]);
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("fleet.events[0].kind"), "{err}");

        // A kind-inappropriate operand (count on a drain) is rejected.
        let mut json = full_spec().to_json();
        with_member(&mut json, &["fleet", "events"], |members| {
            let (_, events) = members
                .iter_mut()
                .find(|(k, _)| k == "events")
                .expect("fleet with a timeline emits events");
            let Value::Arr(entries) = events else {
                panic!("events is an array");
            };
            if let Value::Obj(fields) = &mut entries[3] {
                fields.push(("count".into(), num(2.0)));
            }
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("fleet.events[3].count"), "{err}");

        // An unsorted timeline fails with the typed timeline error at
        // parse time, not at fleet construction.
        let mut json = full_spec().to_json();
        with_member(&mut json, &["fleet", "events"], |members| {
            let (_, events) = members
                .iter_mut()
                .find(|(k, _)| k == "events")
                .expect("fleet with a timeline emits events");
            let Value::Arr(entries) = events else {
                panic!("events is an array");
            };
            entries.swap(0, 1);
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(
            matches!(err, ConfigError::FleetEventsUnsorted { index: 1 }),
            "{err}"
        );

        // An out-of-range replica index is equally a parse-time error.
        let mut json = full_spec().to_json();
        with_member(&mut json, &["fleet", "events"], |members| {
            let (_, events) = members
                .iter_mut()
                .find(|(k, _)| k == "events")
                .expect("fleet with a timeline emits events");
            let Value::Arr(entries) = events else {
                panic!("events is an array");
            };
            if let Value::Obj(fields) = &mut entries[0] {
                for (k, v) in fields.iter_mut() {
                    if k == "replica" {
                        *v = num(7.0);
                    }
                }
            }
        });
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::FleetEventReplicaOutOfRange {
                    index: 0,
                    replica: 7,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn events_are_optional_and_omitted_when_empty() {
        // Event-free specs neither emit nor require the key, keeping old
        // documents and their byte-exact encodings valid.
        let mut spec = full_spec();
        spec.fleet.as_mut().unwrap().events.clear();
        let text = spec.to_json_text();
        assert!(!text.contains("\"events\""), "{text}");
        assert_eq!(ScenarioSpec::from_json_text(&text).unwrap(), spec);
    }

    #[test]
    fn summary_and_scheduler_are_optional_with_stable_defaults() {
        // Older documents predate the summary key; absence means exact
        // summaries. The scheduler member is parse-only: never emitted,
        // and a document carrying `"scheduler": "event-heap"` parses equal
        // to the same document without it.
        let spec = full_spec();
        let mut json = spec.to_json();
        with_member(&mut json, &["engine", "batch", "summary"], |members| {
            members.retain(|(k, _)| k != "summary");
        });
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        match &back.engine.batch {
            BatchSpec::Serving(s) => assert_eq!(s.summary, SummaryMode::Exact),
            other => panic!("expected serving batch, got {other:?}"),
        }
        assert!(!spec.to_json_text().contains("\"scheduler\""));
        with_member(&mut json, &["fleet", "scheduler"], |members| {
            members.push(("scheduler".into(), Value::Str("event-heap".into())));
        });
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), back);
    }

    /// A fleet past `MAX_REPLICAS`, by its initial count or by a scale-up,
    /// fails at parse with the typed error (a billion replicas used to
    /// abort on a multi-terabyte allocation); the ceiling itself parses.
    #[test]
    fn replica_ceiling_is_checked_at_parse() {
        use moentwine_core::fleet::{FleetEventKind, MAX_REPLICAS};
        let parse = |fleet: FleetSpec| {
            let spec = ScenarioSpec::new("big", PlatformSpec::wsc(4))
                .with_engine(
                    EngineSpec::default()
                        .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 4.0e3))),
                )
                .with_fleet(fleet);
            ScenarioSpec::from_json_text(&spec.to_json_text()).map(|_| ())
        };
        let fleet = |replicas| FleetSpec::new(replicas, RouterPolicy::RoundRobin, 1.0e3);
        assert_eq!(
            parse(fleet(1_000_000_000)),
            Err(ConfigError::TooManyReplicas {
                replicas: 1_000_000_000,
                max: MAX_REPLICAS,
            })
        );
        let scale_up = FleetEvent {
            time: 1.0e-3,
            kind: FleetEventKind::ScaleUp { count: 2 },
        };
        assert_eq!(
            parse(fleet(MAX_REPLICAS - 1).with_events(vec![scale_up])),
            Err(ConfigError::TooManyReplicas {
                replicas: MAX_REPLICAS + 1,
                max: MAX_REPLICAS,
            })
        );
        assert_eq!(parse(fleet(MAX_REPLICAS)), Ok(()));
    }

    /// A platform past `MAX_PLATFORM_DEVICES`, primary or decode tier,
    /// fails at parse with the typed error, before a topology is built;
    /// the ceiling itself parses.
    #[test]
    fn platform_ceiling_is_checked_at_parse() {
        use crate::platform::MAX_PLATFORM_DEVICES;
        let too_many = |devices| ConfigError::TooManyDevices {
            devices,
            max: MAX_PLATFORM_DEVICES,
        };
        let parse = |platform: PlatformSpec| {
            let text = ScenarioSpec::new("big", platform).to_json_text();
            ScenarioSpec::from_json_text(&text).map(|_| ())
        };
        assert_eq!(
            parse(PlatformSpec::Flat { devices: 65_535 }),
            Err(too_many(65_535))
        );
        assert_eq!(
            parse(PlatformSpec::wsc(60_000)),
            Err(too_many(3_600_000_000))
        );
        assert_eq!(
            parse(PlatformSpec::multi_wsc(3, 3, 16)),
            Err(too_many(2_304))
        );
        assert_eq!(
            parse(PlatformSpec::Flat {
                devices: MAX_PLATFORM_DEVICES as u16
            }),
            Ok(())
        );
        let mut spec = full_spec();
        spec.fleet.as_mut().unwrap().decode_platform = Some(PlatformSpec::dgx(1_000));
        assert_eq!(
            ScenarioSpec::from_json_text(&spec.to_json_text()).map(|_| ()),
            Err(too_many(8_000))
        );
    }

    #[test]
    fn schema_tag_is_required() {
        let err = ScenarioSpec::from_json_text("{}").unwrap_err();
        assert!(matches!(err, ConfigError::SchemaMismatch { .. }), "{err}");
        let err =
            ScenarioSpec::from_json_text(r#"{"schema": "moentwine/scenario/v999"}"#).unwrap_err();
        assert!(err.to_string().contains("v999"), "{err}");
    }

    #[test]
    fn malformed_documents_name_the_offending_field() {
        let err = ScenarioSpec::from_json_text("not json").unwrap_err();
        assert!(matches!(err, ConfigError::Json(_)), "{err}");

        let mut json = full_spec().to_json();
        if let Value::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "platform" {
                    *v = obj(vec![("kind", Value::Str("torus".into()))]);
                }
            }
        }
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("platform.kind"), "{err}");

        // A fractional count is rejected, not truncated.
        let mut json = full_spec().to_json();
        if let Value::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "iterations" {
                    *v = Value::Num(1.5);
                }
            }
        }
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("scenario.iterations"), "{err}");
    }
}
