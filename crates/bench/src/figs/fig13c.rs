//! Fig. 13(c): ER-Mapping improvement across WSC scales and TP degrees.

use moe_model::ModelConfig;
use wsc_sim::CongestionBackend;

use crate::platforms::{comm_latency, wsc_plan, Platform, WscMapping};
use crate::report::{fmt_improvement, fmt_time};
use crate::Report;

/// Regenerates Fig. 13(c): Qwen3 across 4×4 / 6×6 / 8×8 wafers and the
/// paper's TP sweep; improvement of ER-Mapping over the baseline mapping.
pub fn run(quick: bool) -> Report {
    let model = ModelConfig::qwen3_235b();
    let mut report = Report::new(
        "fig13c",
        "ER-Mapping improvement across scales and parallelism",
    )
    .columns([
        "Scale",
        "TP",
        "Baseline AR",
        "Baseline A2A",
        "ER AR",
        "ER A2A",
        "ER improvement",
    ]);

    let cases: Vec<(&str, u16, Vec<usize>)> = if quick {
        vec![("4x4", 4, vec![2, 4]), ("6x6", 6, vec![4])]
    } else {
        vec![
            ("4x4", 4, vec![2, 4, 8]),
            ("6x6", 6, vec![2, 4, 6, 18]),
            ("8x8", 8, vec![2, 4, 8, 16]),
        ]
    };

    let mut best: Option<(String, f64)> = None;
    for (name, n, tps) in cases {
        let platform = Platform::wsc(n);
        let fidelity = if platform.topo.num_devices() <= 36 && !quick {
            CongestionBackend::FlowSim
        } else {
            CongestionBackend::Analytic
        };
        for tp in tps {
            let tokens = 256 * tp as u32 / 4; // paper: total tokens grow with TP
            let base = comm_latency(
                &platform,
                &wsc_plan(&platform, tp, WscMapping::Baseline),
                &model,
                tokens,
                fidelity,
            );
            let er = comm_latency(
                &platform,
                &wsc_plan(&platform, tp, WscMapping::Er),
                &model,
                tokens,
                fidelity,
            );
            let gain = (base.total() - er.total()) / base.total();
            let label = format!("{name} TP={tp}");
            if best.as_ref().is_none_or(|(_, g)| gain > *g) {
                best = Some((label.clone(), gain));
            }
            report.row([
                name.to_string(),
                tp.to_string(),
                fmt_time(base.all_reduce),
                fmt_time(base.all_to_all),
                fmt_time(er.all_reduce),
                fmt_time(er.all_to_all),
                fmt_improvement(base.total(), er.total()),
            ]);
        }
    }
    if let Some((label, gain)) = best {
        report.note(format!(
            "Paper shape: ER consistently beats the baseline (up to 46%), with a \
             sweet-spot configuration per wafer size; measured best: {label} at \
             {:.0}%.",
            gain * 100.0
        ));
    }
    report.note(
        "ER trades all-reduce time (multi-hop staggered rings) for much \
         cheaper all-to-all — visible in the AR/A2A columns.",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn er_never_loses_badly_and_usually_wins() {
        let r = super::run(true);
        let mut wins = 0;
        for row in &r.rows {
            let v: f64 = row[6].trim_end_matches('%').parse().unwrap();
            assert!(v > -30.0, "severe regression: {row:?}");
            if v > 0.0 {
                wins += 1;
            }
        }
        assert!(wins >= r.rows.len() - 1, "ER should win almost everywhere");
    }
}
