//! Explores the mapping design space: for every TP shape that tiles a
//! wafer, compare baseline vs ER-Mapping on FTD geometry and measured
//! communication latency (flow-level simulation).
//!
//! Run with: `cargo run --release --example er_mapping_explorer [n]`
//! where `n` is the wafer side (default 6).

use moentwine::collectives::stagger::{phases_are_link_disjoint, staggered_ring_all_reduce};
use moentwine::core::comm::{A2aModel, ParallelLayout};
use moentwine::core::placement::ExpertPlacement;
use moentwine::prelude::*;
use moentwine::workload::LayerGating;

fn balanced_gating(groups: usize, experts: usize, tokens: u32, top_k: u32) -> LayerGating {
    let per = (tokens as u64 * top_k as u64 / experts as u64).max(1) as u32;
    LayerGating {
        counts: vec![vec![per; experts]; groups],
    }
}

fn main() {
    let n: u16 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let topo = Mesh::new(n, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let dims = topo.mesh_dims().expect("wafer");
    let model = ModelConfig::qwen3_235b();
    let token_bytes = model.token_bytes(moentwine::model::Precision::Fp16);

    println!("{:-^100}", format!(" {}x{} wafer mapping explorer ", n, n));
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "TP", "hops base", "hops ER", "AR base", "AR ER", "A2A base", "A2A ER", "ER gain"
    );

    for tp in [2usize, 4, 8, 9, 12, 16, 18, 36] {
        let Ok(shape) = TpShape::factor(tp, n) else {
            continue;
        };
        let (b, e) = match (
            BaselineMapping::new(dims, shape),
            ErMapping::new(dims, shape),
        ) {
            (Ok(b), Ok(e)) => (b, e),
            (_, Err(err)) => {
                println!("{:>8} skipped: {err}", format!("{shape}"));
                continue;
            }
            (Err(_), _) => continue,
        };
        let (base, er) = (b.plan(), e.plan());

        // Verify the entwined rings really are conflict-free.
        let staggered = staggered_ring_all_reduce(&topo, er.rings(), 1.0e6);
        assert!(phases_are_link_disjoint(&staggered, &topo));

        let measure = |plan: &MappingPlan| {
            let ar_bytes = 256.0 * token_bytes;
            let ar = FlowSimBackend::new(&topo)
                .price_schedule(&plan.all_reduce_schedule(&topo, ar_bytes))
                .total_time;
            let placement =
                ExpertPlacement::balanced(model.num_experts as usize, topo.num_devices(), 1);
            let gating = balanced_gating(
                plan.num_groups(),
                model.num_experts as usize,
                256,
                model.experts_per_token,
            );
            let est =
                A2aModel::new(&topo, &table, plan).estimate(&gating, &placement, token_bytes, 256);
            (ar, est.total_time())
        };
        let (ar_b, a2a_b) = measure(&base);
        let (ar_e, a2a_e) = measure(&er);
        let gain = ((ar_b + a2a_b) - (ar_e + a2a_e)) / (ar_b + a2a_b) * 100.0;
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>11.2}µs {:>11.2}µs {:>11.2}µs {:>11.2}µs {:>+9.0}%",
            format!("{}", shape),
            base.average_ftd_hops(&topo),
            er.average_ftd_hops(&topo),
            ar_b * 1e6,
            ar_e * 1e6,
            a2a_b * 1e6,
            a2a_e * 1e6,
            gain,
        );
    }
    println!(
        "\nEvery ER configuration passed the link-disjointness check \
         (paper Fig. 8d: staggered rings never conflict)."
    );
}
