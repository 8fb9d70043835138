//! One module per paper table/figure. Each exposes
//! `pub fn run(quick: bool) -> Report`, or, for the sweeps that spread
//! their grid points over a worker pool, `pub fn run_with_threads(quick:
//! bool, threads: usize) -> Report`.

pub mod ablation;
pub mod disagg_sweep;
pub mod fig01;
pub mod fig04;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig13a;
pub mod fig13b;
pub mod fig13c;
pub mod fig13d;
pub mod fig14a;
pub mod fig14b;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fleet_sweep;
pub mod manifest;
pub mod router_compare;
pub mod serve_sweep;
pub mod table1;
pub mod validate;
pub mod workload_mix;

use crate::Report;

/// An experiment entry point: `(quick, threads)`. The sweeps spread their
/// grid points over a `threads`-wide worker pool (their output is
/// byte-identical for any width); the other experiments run on the calling
/// thread.
pub type Runner = fn(bool, usize) -> Report;

/// Every experiment in paper order: `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", |quick, _| table1::run(quick)),
        ("fig01", |quick, _| fig01::run(quick)),
        ("fig04", |quick, _| fig04::run(quick)),
        ("fig06", |quick, _| fig06::run(quick)),
        ("fig11", |quick, _| fig11::run(quick)),
        ("fig12", |quick, _| fig12::run(quick)),
        ("fig13a", |quick, _| fig13a::run(quick)),
        ("fig13b", |quick, _| fig13b::run(quick)),
        ("fig13c", |quick, _| fig13c::run(quick)),
        ("fig13d", |quick, _| fig13d::run(quick)),
        ("fig14a", |quick, _| fig14a::run(quick)),
        ("fig14b", |quick, _| fig14b::run(quick)),
        ("fig15", |quick, _| fig15::run(quick)),
        ("fig16", |quick, _| fig16::run(quick)),
        ("fig17", |quick, _| fig17::run(quick)),
        ("ablation", |quick, _| ablation::run(quick)),
        // Beyond the paper's figures: the request-level serving sweep
        // (latency-throughput curves; also emits target/figs/serve_sweep.json)
        // and the fleet-level scale-out sweep (replica x router policy x
        // arrival rate; emits target/figs/fleet_sweep.json).
        ("serve_sweep", serve_sweep::run_with_threads),
        ("fleet_sweep", fleet_sweep::run_with_threads),
        // Multi-tenant SLO attainment under bursty traffic (emits
        // target/figs/workload_mix.json).
        ("workload_mix", workload_mix::run_with_threads),
        // Router policies: snapshot vs EWMA feedback vs speculative
        // dispatch (emits target/figs/router_compare.json).
        ("router_compare", router_compare::run_with_threads),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use moentwine_spec::ScenarioSpec;

    /// Every `--quick` point of the spec-driven sweeps is a scenario file:
    /// its spec survives the JSON codec unchanged and builds, so the
    /// `scenario` bin can reproduce any figure point on its own.
    #[test]
    fn every_quick_sweep_point_round_trips_as_a_scenario_file() {
        fn specs<K>(grid: (usize, Vec<(K, ScenarioSpec)>)) -> Vec<ScenarioSpec> {
            grid.1.into_iter().map(|(_, spec)| spec).collect()
        }
        let sweeps = [
            ("serve_sweep", specs(serve_sweep::sweep_grid(true))),
            ("fleet_sweep", specs(fleet_sweep::sweep_grid(true))),
            ("disagg_sweep", specs(disagg_sweep::sweep_grid(true))),
            ("router_compare", specs(router_compare::sweep_grid(true))),
            ("workload_mix", specs(workload_mix::sweep_grid(true))),
        ];
        for (sweep, points) in sweeps {
            assert!(!points.is_empty(), "{sweep}: empty quick grid");
            for spec in points {
                let parsed = ScenarioSpec::from_json(&spec.to_json())
                    .unwrap_or_else(|e| panic!("{sweep}: {}: {e}", spec.name));
                assert_eq!(parsed, spec, "{sweep}: {} changed through JSON", spec.name);
                spec.build()
                    .unwrap_or_else(|e| panic!("{sweep}: {}: {e}", spec.name));
            }
        }
    }
}
