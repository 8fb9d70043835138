//! Shared manifest serialization: the SLO and per-class blocks the sweep
//! points carry, and the writer every sweep uses to put its manifest under
//! `target/figs/`.

use std::fs;

use moentwine_core::engine::{ClassServingSummary, ServingSummary};

use crate::json::Value;
use crate::Report;

/// The SLO block of a serving summary, in manifest key order: the TTFT,
/// TPOT and end-to-end percentile ladders, then goodput.
pub fn slo_fields(s: &ServingSummary) -> Vec<(String, Value)> {
    [
        ("ttft_p50", s.ttft_p50),
        ("ttft_p95", s.ttft_p95),
        ("ttft_p99", s.ttft_p99),
        ("tpot_p50", s.tpot_p50),
        ("tpot_p95", s.tpot_p95),
        ("tpot_p99", s.tpot_p99),
        ("e2e_p50", s.e2e_p50),
        ("e2e_p99", s.e2e_p99),
        ("goodput_rps", s.goodput_rps),
        ("goodput_tokens_per_s", s.goodput_tokens_per_s),
    ]
    .into_iter()
    .map(|(key, value)| (key.into(), Value::Num(value)))
    .collect()
}

/// One tenant class's section: its counts, percentiles, SLO targets and
/// attainment.
pub fn class_json(c: &ClassServingSummary) -> Value {
    let mut fields = vec![
        ("class".into(), Value::Str(c.class.name().into())),
        ("completed".into(), Value::Num(c.completed as f64)),
        ("rejected".into(), Value::Num(c.rejected as f64)),
        ("shed".into(), Value::Num(c.shed as f64)),
    ];
    fields.extend(
        [
            ("ttft_p50", c.ttft_p50),
            ("ttft_p95", c.ttft_p95),
            ("ttft_p99", c.ttft_p99),
            ("tpot_p50", c.tpot_p50),
            ("tpot_p95", c.tpot_p95),
            ("tpot_p99", c.tpot_p99),
            ("ttft_slo", c.ttft_slo),
            ("tpot_slo", c.tpot_slo),
            ("ttft_attainment", c.ttft_attainment),
            ("tpot_attainment", c.tpot_attainment),
        ]
        .into_iter()
        .map(|(key, value)| (key.into(), Value::Num(value))),
    );
    Value::Obj(fields)
}

/// Writes `manifest` to `path` (a file under `target/figs/`) and notes on
/// `report` where it went, or why it could not be written.
pub fn write(report: &mut Report, path: &str, manifest: &Value) {
    match fs::create_dir_all("target/figs").and_then(|_| fs::write(path, manifest.pretty())) {
        Ok(()) => report.note(format!("machine-readable manifest: {path}")),
        Err(e) => report.note(format!("WARNING: could not write {path}: {e}")),
    }
}

/// The determinism note of a sweep whose points merge by grid index.
pub fn merged_by_index_note(schema: &str) -> String {
    format!(
        "deterministic: grid points merge by index, so the manifest is \
         byte-identical across runs and --threads settings (schema {schema})"
    )
}
