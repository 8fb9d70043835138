//! Fig. 14(b): justifying the retained all-gather.

use moe_model::ModelConfig;
use wsc_sim::CongestionBackend;

use crate::platforms::{comm_latency, wsc_plan, Platform, WscMapping};
use crate::report::{fmt_improvement, fmt_time};
use crate::Report;

/// Regenerates Fig. 14(b): with vs without the attention all-gather, for
/// the large-expert models on 6×6 (and 8×8) WSCs under ER-Mapping.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new("fig14b", "Retaining the all-gather (AG)").columns([
        "Model",
        "Scale",
        "AR w/o AG",
        "A2A w/o AG",
        "AR with AG",
        "A2A with AG",
        "Total improvement from AG",
    ]);

    let scales: Vec<(&str, u16)> = if quick {
        vec![("6x6", 6)]
    } else {
        vec![("6x6", 6), ("8x8", 8)]
    };
    let mut gains = Vec::new();
    for model in [ModelConfig::dbrx(), ModelConfig::mixtral_8x22b()] {
        for (name, n) in &scales {
            let platform = Platform::wsc(*n);
            let with_ag = wsc_plan(&platform, 4, WscMapping::Er);
            let without_ag = with_ag.clone().without_all_gather();
            let tokens = 256;
            let with = comm_latency(
                &platform,
                &with_ag,
                &model,
                tokens,
                CongestionBackend::Analytic,
            );
            let without = comm_latency(
                &platform,
                &without_ag,
                &model,
                tokens,
                CongestionBackend::Analytic,
            );
            gains.push((without.total() - with.total()) / without.total());
            report.row([
                model.name.clone(),
                name.to_string(),
                fmt_time(without.all_reduce),
                fmt_time(without.all_to_all),
                fmt_time(with.all_reduce),
                fmt_time(with.all_to_all),
                fmt_improvement(without.total(), with.total()),
            ]);
        }
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64 * 100.0;
    report.note(format!(
        "Paper shape: retaining AG doubles the (cheap) all-reduce but shortens \
         token-fetch paths and multiplies source options, cutting the \
         (expensive) all-to-all — net +17% average in the paper; measured \
         {avg:.0}% average."
    ));
    report.note(
        "Known deviation: our with-AG model fetches from the single nearest \
         FTD member and does not exploit AG's multi-source load spreading, so \
         the 2-active-expert Mixtral case on 6x6 comes out roughly neutral \
         instead of clearly positive.",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn ag_pays_off_for_dbrx_and_on_average() {
        let r = super::run(false);
        let gains: Vec<f64> = r
            .rows
            .iter()
            .map(|row| row[6].trim_end_matches('%').parse::<f64>().unwrap())
            .collect();
        // DBRX (4 active experts) must benefit everywhere.
        for (row, gain) in r.rows.iter().zip(&gains) {
            if row[0] == "DBRX" {
                assert!(*gain > 0.0, "{row:?}");
            }
            // Nothing regresses badly (paper: AG never catastrophic).
            assert!(*gain > -10.0, "{row:?}");
        }
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        assert!(avg > 5.0, "average AG gain {avg}% too low");
    }
}
