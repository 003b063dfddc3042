//! End-to-end benchmark of the han-rs workspace: host cost of tuning,
//! schedule synthesis and decision serving, with a per-layer ledger
//! measured from the benchmark's own calls into each crate.
//!
//! ```text
//! e2ebench --workload <tune-exhaustive|tune-task|synth|serve> \
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a separate traced replay. See `README.md` beside this package for
//! what each workload and metric means.

mod serve;
mod stats;
mod synth;
mod trace;
mod tune;

use han_tuner::Strategy;
use stats::Report;

/// The seed whose output digests are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload does not exercise reports 0 (its counters and spans stay
/// empty), so every traced run carries the full ledger.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.clamped", "count"),
    ("colls.template.build_s", "s"),
    ("colls.template.calls", "count"),
    ("colls.template.hit_ratio", "fraction"),
    ("colls.template.keys", "count"),
    ("core.with_config_s", "s"),
    ("tuner.bound.s", "s"),
    ("tuner.bound.calls", "count"),
    ("tuner.search.prune_ratio", "fraction"),
    ("tuner.search.simulated", "count"),
    ("tuner.search.self_s", "s"),
    ("tuner.search.idle_s", "s"),
    ("tuner.delta.s", "s"),
    ("tuner.delta.hit_ratio", "fraction"),
    ("tuner.delta.recorded_runs", "count"),
    ("tuner.delta.full_runs", "count"),
    ("tuner.cache.s", "s"),
    ("tuner.cache.hit_ratio", "fraction"),
    ("tuner.taskbench.s", "s"),
    ("tuner.taskbench.runs", "count"),
    ("tuner.model.s", "s"),
    ("tuner.model.calls", "count"),
    ("tuner.virtual_tuning_s", "sim_s"),
    ("synth.space.s", "s"),
    ("synth.candidates", "count"),
    ("synth.simulated", "count"),
    ("synth.pruned", "count"),
    ("synth.beamed", "count"),
    ("synth.pareto.s", "s"),
    ("synth.pareto_points", "count"),
    ("synth.strict_wins", "count"),
    ("synth.oracle.s", "s"),
    ("synth.oracle.checks", "count"),
    ("decide.resolve_ns", "ns"),
    ("serve.connect_us", "us"),
    ("serve.client.hit_ratio", "fraction"),
    ("serve.hit_us", "us"),
    ("serve.miss_us", "us"),
    ("serve.miss_p99_us", "us"),
    ("serve.store.resolve_us", "us"),
    ("serve.proto.codec_us", "us"),
    ("serve.net_us", "us"),
    ("serve.store.publish_us", "us"),
    ("serve.server.requests", "count"),
    ("proc.rss_after_setup_mb", "MiB"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.idle_share", "fraction"),
    ("trace.reconcile_err", "fraction"),
    ("trace.share.search", "fraction"),
    ("trace.share.bound", "fraction"),
    ("trace.share.cache", "fraction"),
    ("trace.share.core", "fraction"),
    ("trace.share.template", "fraction"),
    ("trace.share.delta", "fraction"),
    ("trace.share.taskbench", "fraction"),
    ("trace.share.model", "fraction"),
    ("trace.share.space", "fraction"),
    ("trace.share.pareto", "fraction"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <tune-exhaustive|tune-task|synth|serve> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "e2ebench {} seed={} seconds={} trace={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    let mut report = Report::new(&args.workload);
    match args.workload.as_str() {
        "tune-exhaustive" => tune::run(Strategy::Exhaustive, &args, &mut report),
        "tune-task" => tune::run(Strategy::TaskBased, &args, &mut report),
        "synth" => synth::run(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => {
            eprintln!("e2ebench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    if args.trace {
        report.fill_missing(PER_LAYER);
    }
    report.finish()
}
