//! Fig. 13(a): WSC-over-DGX communication improvement vs token count.

use moe_model::ModelConfig;
use moentwine_core::comm::ClusterLayout;
use wsc_sim::CongestionBackend;

use crate::platforms::{comm_latency, wsc_plan, Platform, WscMapping};
use crate::report::fmt_improvement;
use crate::Report;

/// Regenerates Fig. 13(a): Qwen3; 6×6 WSC vs 32 GPUs and 8×8 WSC vs
/// 64 GPUs; improvement of WSC and WSC+ER over DGX as tokens grow.
pub fn run(quick: bool) -> Report {
    let model = ModelConfig::qwen3_235b();
    let tokens: Vec<u32> = if quick {
        vec![16, 256, 4096]
    } else {
        vec![
            16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
        ]
    };
    let mut report = Report::new(
        "fig13a",
        "WSC vs DGX communication improvement across token counts",
    )
    .columns([
        "Pair",
        "Tokens/group",
        "DGX total",
        "WSC total",
        "WSC improvement",
        "WSC+ER improvement",
    ]);

    let pairs: Vec<(&str, Platform, Platform)> = vec![
        ("6x6 vs 32 GPUs", Platform::wsc(6), Platform::dgx(4)),
        ("8x8 vs 64 GPUs", Platform::wsc(8), Platform::dgx(8)),
    ];
    let mut big_batch_improvements = Vec::new();
    for (name, wsc, dgx) in &pairs {
        let base_plan = wsc_plan(wsc, 4, WscMapping::Baseline);
        let er_plan = wsc_plan(wsc, 4, WscMapping::Er);
        let gpu_layout = ClusterLayout::new(&dgx.topo, 8);
        for &t in &tokens {
            let gpu = comm_latency(dgx, &gpu_layout, &model, t, CongestionBackend::Analytic);
            let base = comm_latency(wsc, &base_plan, &model, t, CongestionBackend::Analytic);
            let er = comm_latency(wsc, &er_plan, &model, t, CongestionBackend::Analytic);
            if t >= 256 {
                big_batch_improvements.push((gpu.total() - base.total()) / gpu.total());
            }
            report.row([
                name.to_string(),
                t.to_string(),
                crate::report::fmt_time(gpu.total()),
                crate::report::fmt_time(base.total()),
                fmt_improvement(gpu.total(), base.total()),
                fmt_improvement(gpu.total(), er.total()),
            ]);
        }
    }
    let avg =
        big_batch_improvements.iter().sum::<f64>() / big_batch_improvements.len().max(1) as f64;
    report.note(format!(
        "Paper shape: beyond 256 tokens/group WSC consistently beats DGX \
         (paper: 54%, ER extends to 73%); measured average improvement beyond \
         256 tokens: {:.0}%.",
        avg * 100.0
    ));
    report.note(
        "At tiny token counts link latency dominates and the advantage \
         shrinks, as in the paper's left end of Fig. 13(a).",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn wsc_wins_at_large_batches() {
        let r = super::run(true);
        // Last row of each pair = 4096 tokens: improvement must be positive.
        for row in r.rows.iter().filter(|row| row[1] == "4096") {
            assert!(row[4].starts_with('+'), "{row:?}");
            assert!(row[5].starts_with('+'), "{row:?}");
        }
    }
}
