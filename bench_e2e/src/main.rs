//! End-to-end benchmark of the AutoBraid compiler and its `autobraidd`
//! service.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <paper-suite|serve-mix|stream-sessions> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload with no tracing and prints every
//! end-to-end metric; `--trace 1` replays the same seeded workload
//! through the layers' public functions inside spans and prints the
//! per-layer table. Both check every output and exit nonzero when one is
//! wrong. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `README.md` in this
//! directory documents the workloads and metrics.

mod daemon;
mod gen;
mod paper;
mod serve;
mod stages;
mod stats;
mod stream;
mod telemetry;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every workload reports with `--trace 0`
/// (name, unit). `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality_ratio", "ratio"),
];

/// The per-layer metrics every workload reports with `--trace 1`
/// (name, unit). Times are self time per workload operation; a layer a
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.optimize_ms", "ms"),
    ("circuit.dag_ms", "ms"),
    ("circuit.gates_removed", "count"),
    ("circuit.parse_ms", "ms"),
    ("circuit.emit_ms", "ms"),
    ("placement.initial_ms", "ms"),
    ("placement.anneal.proposals", "count"),
    ("placement.anneal.accept_ratio", "ratio"),
    ("router.astar.searches", "count"),
    ("router.astar.expansions", "count"),
    ("router.astar.fail_ratio", "ratio"),
    ("router.repair.success_ratio", "ratio"),
    ("router.pathfinder.iterations", "count"),
    ("router.route.requests", "count"),
    ("scheduler.engine_ms", "ms"),
    ("scheduler.engine_runs", "count"),
    ("scheduler.steps.braid", "count"),
    ("scheduler.swaps.inserted", "count"),
    ("scheduler.routed_ratio", "ratio"),
    ("maslov.ms", "ms"),
    ("maslov.wins", "count"),
    ("verify.ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("streaming.push_ms", "ms"),
    ("streaming.step_ms", "ms"),
    ("streaming.finish_ms", "ms"),
    ("streaming.steps", "count"),
    ("streaming.reroutes", "count"),
    ("streaming.faults.recovered", "count"),
    ("service.server_ms_p50", "ms"),
    ("service.wire_ms_p50", "ms"),
    ("service.decode_ms", "ms"),
    ("service.cache_key_ms", "ms"),
    ("service.cache_lookup_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.frame_bytes", "bytes"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.overloaded", "count"),
    ("service.timeouts", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.backlog", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Traced run (`--trace 1`).
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, `overloaded`, `timeout`, verifier
    /// rejections and wrong outputs.
    pub failed: u64,
    /// One line per wrong output.
    pub wrong: Vec<String>,
    /// Every metric the run measured, by name: `(value, unit)`.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Metrics printed for people but not part of the result object:
    /// the workload's own names for its end-to-end numbers.
    pub shown: Vec<(&'static str, f64, &'static str)>,
    /// Free-form text printed before the metrics (tables, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records a metric shown by its workload-specific name.
    pub fn show(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.shown.push((name, value, unit));
    }

    /// Records a wrong output (it also counts as a failure).
    pub fn wrong(&mut self, detail: String) {
        self.failed += 1;
        self.wrong.push(detail);
    }
}

fn usage() -> String {
    "usage: e2e --workload <paper-suite|serve-mix|stream-sessions> --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// Renders a metric value with every digit Rust's shortest round-trip
/// formatting gives it, as JSON requires (no NaN or infinities).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes the traced run's spans as Chrome trace JSON under
/// `.bench_out/` in the working directory.
pub fn write_trace(args: &Args, t: &trace::Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.chrome_json())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--daemon") {
        return daemon::child_main(argv.get(2).map_or("", String::as_str));
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "paper-suite" => paper::run(&args),
        "serve-mix" => serve::run(&args),
        "stream-sessions" => stream::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    for note in &outcome.notes {
        println!("{note}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let fail_frac = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
    if args.trace {
        println!("per-layer metrics ({}, seed {}):", args.workload, args.seed);
    } else {
        println!(
            "end-to-end metrics ({}, seed {}):",
            args.workload, args.seed
        );
        println!("  {:<26} {:>16} ratio", "fail_frac", json_number(fail_frac));
        for (name, value, unit) in &outcome.shown {
            println!("  {name:<26} {:>16} {unit}", json_number(*value));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let (value, measured_unit) = outcome
            .metrics
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("workload {} did not measure {name}", args.workload));
        assert_eq!(&measured_unit, unit, "unit of {name}");
        println!("  {name:<26} {:>16} {unit}", json_number(value));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if outcome.attempted == 0 {
        outcome
            .wrong
            .push("the run attempted no operation".to_string());
    }
    for line in &outcome.wrong {
        eprintln!("WRONG: {line}");
    }
    let correct = outcome.wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
