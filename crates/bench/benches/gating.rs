//! Criterion benchmarks for the gating sampler: one
//! `TraceGenerator::next_iteration_into` call on fixed shapes. Under a
//! fixed scenario mix the distributions stay cached, so only the draw is
//! timed; the cycling shape times the re-mixing too.
//!
//! * **tiny, 4 groups** × {1, 5, 16, 32, 153} tokens a group: the tiny
//!   preset (16 experts, top-2, 4 sparse layers), so 16 (layer, group)
//!   draws a call. Up to 32 tokens (64 trials) every draw is the exact
//!   tail; at 153 the normal-approximation chain runs first and hands a
//!   tail of at most 64 trials on at some expert.
//! * **tiny, 1 group** × 10 tokens: the fixed per-call overhead of a
//!   small decode batch, 4 draws a call.
//! * **Qwen3-235B, 4 groups** × {8, 473} tokens: 128 experts, top-8, 94
//!   sparse layers, so 376 draws a call; 8 tokens is a 64-trial exact tail
//!   over 128 experts, 473 the normal-approximation chain.
//! * **Qwen3-235B, 4 groups, cycling** × 473 tokens: the shape above under
//!   the `wafer_ni_balance` mix (privacy, chat, coding and math rotating
//!   over 60 iterations). The weights change on every call, so each call
//!   also re-mixes every layer's distribution and re-sorts the cap-repair
//!   order of each layer that overflows from its last order; under a
//!   fixed mix each order is sorted once and never again.
//!
//! Divide a reported time by the draws a call to get ns per (layer, group).
//! The shapes fix the input, not the random stream, so a change to which
//! random numbers a draw reads still compares like for like.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use moe_model::ModelConfig;
use moe_workload::{Scenario, TraceGenerator, WorkloadMix};

fn bench_shape(
    c: &mut Criterion,
    name: &str,
    model: &ModelConfig,
    mix: &WorkloadMix,
    groups: usize,
    tokens: &[u32],
) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for &tokens in tokens {
        let mut gen = TraceGenerator::new(model, mix.clone(), groups, tokens, 7);
        let mut trace = gen.next_iteration();
        group.bench_with_input(BenchmarkId::new("tokens", tokens), &(), |b, _| {
            b.iter(|| gen.next_iteration_into(&mut trace))
        });
    }
    group.finish();
}

fn bench_gating(c: &mut Criterion) {
    let (tiny, qwen3) = (ModelConfig::tiny(), ModelConfig::qwen3_235b());
    let fixed = WorkloadMix::Fixed(Scenario::Chat);
    let cycling = WorkloadMix::Cycling {
        period: 60.0,
        scenarios: vec![
            Scenario::Privacy,
            Scenario::Chat,
            Scenario::Coding,
            Scenario::Math,
        ],
    };
    bench_shape(c, "gating_tiny_4g", &tiny, &fixed, 4, &[1, 5, 16, 32, 153]);
    bench_shape(c, "gating_tiny_1g", &tiny, &fixed, 1, &[10]);
    bench_shape(c, "gating_qwen3_4g", &qwen3, &fixed, 4, &[8, 473]);
    bench_shape(c, "gating_qwen3_4g_cycling", &qwen3, &cycling, 4, &[473]);
}

criterion_group!(benches, bench_gating);
criterion_main!(benches);
