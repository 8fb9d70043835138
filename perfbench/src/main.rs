//! Host-time benchmark of the MoEntwine simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run covers one workload in one process on one thread. With
//! `--trace 0` it makes untimed production-path and timed untraced passes
//! for `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! makes three untraced passes and one traced pass and reports the
//! per-layer metrics. Every pass is checked for correctness (see `check.rs`). The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is non-zero on any failed check. `--workload all` runs
//! every workload, each in its own process, in both modes unless `--trace`
//! is given.

mod check;
mod passes;
mod replay;
mod sim;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use check::Checks;
use passes::{Pass, Traced};
use sim::Counters;
use stats::{median, ns_since, share, Metrics};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workloads::find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?} or all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own, waiting for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let modes: Vec<&str> = match args.trace {
        Some(false) => vec!["0"],
        Some(true) => vec!["1"],
        None => vec!["0", "1"],
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for mode in &modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", mode])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(seed) = args.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("perfbench: {} --trace {mode} exited with {status}", w.name);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Nanoseconds of a fixed integer loop: the cross-host normaliser printed
/// beside the metrics. Cache contention does not slow it (see
/// [`cache_probe`]).
fn calibrate() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..2_000_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            black_box(x);
            ns_since(start) as f64
        })
        .collect();
    median(&runs)
}

/// What [`cache_probe`] takes on the host this benchmark was built on in a
/// quiet phase: `wall_s` is scaled to a host of that speed.
const PROBE_REF_NS: f64 = 2_300_000.0;

/// Nanoseconds of a cache-bound probe: 100,000 updates of a 50,000-key
/// hash map (about 1 MB). Other tenants' contention for the core's caches
/// slows it about as much as it slows the simulator, where the integer
/// loop of [`calibrate`] does not slow at all.
fn cache_probe() -> u64 {
    let start = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..100_000u64 {
        *map.entry(i.wrapping_mul(2_654_435_761) % 50_000)
            .or_insert(0) += i;
    }
    black_box(map.len());
    ns_since(start)
}

/// Folds one pass's round times into `fastest`, the fastest time any pass
/// of the run took for each round. Passes repeat the same deterministic
/// work, and the host's speed drifts with other tenants' load on a scale
/// of seconds; the per-round minimum keeps that drift out of the figure.
fn keep_fastest(fastest: &mut Vec<u64>, slice_ns: &[u64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(slice_ns);
    }
    for (f, &ns) in fastest.iter_mut().zip(slice_ns) {
        *f = (*f).min(ns);
    }
}

/// The process's peak resident set, MiB (`VmHWM` on Linux; 0 elsewhere).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one more untraced pass and appends it to `passes`, checking that
/// it completed requests and simulated exactly what the first pass did.
fn repeat_pass(
    w: &Workload,
    seed: Option<u64>,
    checks: &mut Checks,
    passes: &mut Vec<Pass>,
) -> Result<(), String> {
    let pass = passes::untraced(w, seed, checks)?;
    checks.check(pass.completed > 0, || "a pass completed no request".into());
    if let Some(first) = passes.first() {
        sim::same_counters(checks, "repeated pass", &first.counters, &pass.counters);
    }
    passes.push(pass);
    Ok(())
}

/// One workload, one mode. Returns whether every check passed.
fn run(w: &Workload, args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let traced_mode = args.trace.unwrap_or(false);
    let calib_before = calibrate();
    let mut checks = Checks::default();
    let manifest = passes::manifest_pass(w, args.seed, &mut checks)?;

    let mut metrics = Metrics::default();
    let reference: Vec<Counters>;
    if traced_mode {
        // The tracing overhead is measured against the median of three
        // untraced passes, so one slow pass does not read as overhead.
        let mut base: Vec<Pass> = Vec::new();
        for _ in 0..3 {
            repeat_pass(w, args.seed, &mut checks, &mut base)?;
        }
        base.sort_by_key(|p| p.run_ns);
        let (pass, traced) = passes::traced(w, args.seed, &mut checks)?;
        sim::same_counters(
            &mut checks,
            "traced pass",
            &base[1].counters,
            &pass.counters,
        );
        reference = base[1].counters.clone();
        layer_metrics(&mut metrics, &base[1], &pass, &traced);
    } else {
        // Passes run until the next one would end past `--seconds` from
        // the start of the process (at least two).
        let deadline = Duration::from_secs_f64(args.seconds);
        let mut timed: Vec<Pass> = Vec::new();
        let mut fastest: Vec<u64> = Vec::new();
        let mut probe_ns = u64::MAX;
        let mut last_pass = Duration::ZERO;
        while timed.len() < 2 || started.elapsed() + last_pass < deadline {
            let start = Instant::now();
            repeat_pass(w, args.seed, &mut checks, &mut timed)?;
            for _ in 0..3 {
                probe_ns = probe_ns.min(cache_probe());
            }
            last_pass = start.elapsed();
            let pass = timed.last_mut().expect("a pass was just made");
            keep_fastest(&mut fastest, &std::mem::take(&mut pass.slice_ns));
        }
        reference = timed[0].counters.clone();
        // Contention that lasts the whole run slows the fastest rounds and
        // the fastest probe alike; the ratio takes it out.
        let raw_ns = fastest.iter().sum::<u64>() as f64;
        let wall_ns = raw_ns * PROBE_REF_NS / probe_ns as f64;
        metrics.add("wall_s", wall_ns / 1e9, "s");
        metrics.add(
            "wall_us_per_request",
            wall_ns / 1e3 / timed[0].completed.max(1) as f64,
            "us",
        );
        let setups: Vec<f64> = timed.iter().map(|p| p.setup_ns() as f64 / 1e9).collect();
        metrics.add("setup_s", median(&setups), "s");
        metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
        let walls: Vec<String> = timed
            .iter()
            .map(|p| format!("{:.3}", p.run_ns as f64 / 1e9))
            .collect();
        println!(
            "{}: {} timed passes of {} rounds per point, wall s [{}]",
            w.name,
            timed.len(),
            w.rounds,
            walls.join(" ")
        );
        println!(
            "{}: fastest rounds sum to {:.6} s; cache probe {probe_ns} ns, reference {PROBE_REF_NS} ns",
            w.name,
            raw_ns / 1e9
        );
    }
    passes::same_as_manifest(&mut checks, &manifest, &reference);
    let calib_after = calibrate();
    if traced_mode {
        metrics.add("host.calib_ns", (calib_before + calib_after) / 2.0, "ns");
    }
    for m in &metrics.0 {
        checks.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }

    println!(
        "{}: seed {}, host.calib_ns before {calib_before:.0} after {calib_after:.0}",
        w.name,
        args.seed
            .map_or("as checked in".to_string(), |s| s.to_string())
    );
    for c in &reference {
        println!("{}: model counters of point {}", w.name, c.label);
        for (name, value, unit) in c.rows() {
            println!("  {name:<34} {value} {unit}");
        }
    }
    for m in &metrics.0 {
        println!("  {:<34} {} {}", m.name, m.value, m.unit);
    }
    for failure in &checks.failures {
        println!("FAILED CHECK: {failure}");
    }
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.total,
        checks.failed,
        fields.join(", ")
    );
    Ok(checks.failed == 0)
}

/// The per-layer metrics of a traced pass (`traced`) against the untraced
/// pass made just before it (`base`).
fn layer_metrics(m: &mut Metrics, base: &Pass, pass: &Pass, t: &Traced) {
    let l = &t.layers;
    let replayed = t.replayed_step_ns;
    let all_steps = t.steps.busy_ns();
    let mean = |(sum, n): (u64, u64)| if n == 0 { 0.0 } else { sum as f64 / n as f64 };

    m.add("spec.parse_s", pass.parse_ns as f64 / 1e9, "s");
    m.add("spec.build_s", pass.build_ns as f64 / 1e9, "s");

    let scheduler_share = share(l.next_batch.busy_ns() + l.finish.busy_ns(), all_steps);
    let replayed_busy = l.trace.busy_ns()
        + l.comm.busy_ns()
        + l.wsc_sim.busy_ns()
        + l.roofline.busy_ns()
        + l.plan.busy_ns()
        + l.advance.busy_ns();
    m.add("engine.steps", t.steps.count() as f64, "count");
    m.timing("engine.step_ns", &t.steps);
    m.add("engine.step_ns.first_quarter", mean(t.first_quarter), "ns");
    m.add("engine.step_ns.last_quarter", mean(t.last_quarter), "ns");
    m.add("engine.construct_s", pass.construct_ns as f64 / 1e9, "s");
    m.add(
        "engine.replay_coverage",
        share(replayed_busy, replayed) + scheduler_share,
        "ratio",
    );

    m.timing("trace.next_iteration_ns", &l.trace);
    m.add("trace.calls", l.trace.count() as f64, "count");
    m.add("trace.share", share(l.trace.busy_ns(), replayed), "ratio");

    m.timing("comm.estimate_ns", &l.comm);
    m.add("comm.calls", l.comm.count() as f64, "count");
    m.add("comm.share", share(l.comm.busy_ns(), replayed), "ratio");

    m.timing("wsc_sim.estimate_ns", &l.wsc_sim);
    m.add("wsc_sim.calls", l.wsc_sim.count() as f64, "count");
    m.add(
        "wsc_sim.share",
        share(l.wsc_sim.busy_ns(), replayed),
        "ratio",
    );
    m.add(
        "wsc_sim.cache_hit_ratio",
        share(t.cache_hits, t.cache_hits + t.cache_misses),
        "ratio",
    );

    m.timing("roofline.moe_device_ns", &l.roofline);
    m.add("roofline.calls", l.roofline.count() as f64, "count");
    m.add(
        "roofline.share",
        share(l.roofline.busy_ns(), replayed),
        "ratio",
    );

    m.timing("scheduler.next_batch_ns", &l.next_batch);
    m.timing("scheduler.finish_ns", &l.finish);
    m.add("scheduler.calls", l.next_batch.count() as f64, "count");
    m.add("scheduler.share", scheduler_share, "ratio");

    m.timing("balancer.plan_ns", &l.plan);
    m.add("balancer.plans", l.plan.count() as f64, "count");
    m.timing("migration.advance_ns", &l.advance);
    m.add("migration.calls", l.advance.count() as f64, "count");
    m.add(
        "balancer.share",
        share(l.plan.busy_ns() + l.advance.busy_ns(), replayed),
        "ratio",
    );

    m.timing("router.decision_ns", &l.route);
    m.add("router.decisions", l.route.count() as f64, "count");
    m.add(
        "router.multicast_share",
        share(l.multicast, l.route.count() as u64),
        "ratio",
    );

    m.add("fleet.rounds", t.rounds.count() as f64, "count");
    m.timing("fleet.round_ns", &t.rounds);
    m.timing("fleet.overhead_ns_per_round", &t.overhead);
    m.add(
        "fleet.overhead_share",
        share(t.overhead.busy_ns(), t.rounds.busy_ns()),
        "ratio",
    );
    m.timing("fleet.handoff_price_ns", &l.handoff);
    m.add("fleet.handoffs_priced", l.handoff.count() as f64, "count");
    m.add("fleet.summary_s", t.summary_ns as f64 / 1e9, "s");
    m.add("fleet.retained_records", t.retained_records as f64, "count");

    m.add(
        "trace.overhead",
        t.drive_ns() as f64 / base.run_ns.max(1) as f64 - 1.0,
        "ratio",
    );
}
