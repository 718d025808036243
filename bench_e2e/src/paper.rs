//! `paper-suite`: one caller compiles, serially, every circuit of the
//! default Table 2 subset with `CompileOptions::default()`, in an order
//! the seed sets, pass after pass until the time is up.

use crate::stages::{self, StageCounts};
use crate::stats::{geomean, median, peak_rss_mb, quantile, ratio};
use crate::telemetry::{recorded, set_layer_counts, zero_unmeasured};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use autobraid::config::ScheduleConfig;
use autobraid::critical_path::critical_path_cycles;
use autobraid::pipeline::{CompileReport, Pipeline, PipelineError, Strategy};
use autobraid::report::canonical_compile_report_json;
use autobraid_bench::{SLOW_LABELS, TABLE2};
use autobraid_circuit::Circuit;
use autobraid_lattice::Grid;
use autobraid_telemetry::Rng64;
use std::time::Instant;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// The suite: Table 2 without the opt-in slow entries and QFT-400.
fn build_suite() -> Vec<Circuit> {
    TABLE2
        .iter()
        .filter(|e| !SLOW_LABELS.contains(&e.label) && e.label != "QFT-400")
        .map(|e| e.build().expect("Table 2 entries build"))
        .collect()
}

/// Builds the circuits and pre-sizes this thread's router search arena
/// for the largest lattice, so the first pass does not pay for growth.
fn setup() -> (Vec<Circuit>, f64) {
    let started = Instant::now();
    let circuits = build_suite();
    let side = circuits
        .iter()
        .map(|c| Grid::with_capacity_for(c.num_qubits() as usize).vertices_per_side())
        .max()
        .unwrap_or(1) as usize;
    autobraid_router::warm_thread_arena(side * side, (4 * side) as u32);
    (circuits, started.elapsed().as_secs_f64())
}

/// The compile order of pass `pass`.
fn order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng64::seed_from_u64(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15)).shuffle(&mut order);
    order
}

/// What the checks remember about each circuit's first good compile.
struct Expected {
    canonical: String,
    cycles_over_cp: f64,
}

/// Checks one compile: the verifier passed (an error is a failure),
/// total cycles reach at least the critical path, and the canonical
/// report matches the circuit's first compile.
fn check(
    out: &mut Outcome,
    circuit: &Circuit,
    result: Result<CompileReport, PipelineError>,
    expected: &mut Option<Expected>,
) {
    out.attempted += 1;
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.wrong(format!("{}: {e}", circuit.name()));
            return;
        }
    };
    let canonical = report.canonical_json();
    match expected {
        Some(exp) if exp.canonical != canonical => {
            out.wrong(format!(
                "{}: canonical report changed between compiles",
                circuit.name()
            ));
        }
        Some(_) => {}
        None => {
            let cp = critical_path_cycles(&report.circuit, &ScheduleConfig::default().timing);
            let cycles = report.outcome.result.total_cycles;
            if cp == 0 || cycles < cp {
                out.wrong(format!(
                    "{}: {cycles} cycles beat the critical path of {cp}",
                    circuit.name()
                ));
                return;
            }
            *expected = Some(Expected {
                canonical,
                cycles_over_cp: cycles as f64 / cp as f64,
            });
        }
    }
}

/// One untraced pass through `Pipeline::compile`; returns the summed
/// compile seconds (checks run between compiles, outside the timing).
fn untraced_pass(
    out: &mut Outcome,
    circuits: &[Circuit],
    order: &[usize],
    expected: &mut [Option<Expected>],
    per_circuit_ms: &mut [Vec<f64>],
) -> f64 {
    let pipeline = Pipeline::new();
    let mut pass_s = 0.0;
    for &i in order {
        let started = Instant::now();
        let result = pipeline.compile(&circuits[i]);
        let seconds = started.elapsed().as_secs_f64();
        pass_s += seconds;
        per_circuit_ms[i].push(seconds * 1e3);
        check(out, &circuits[i], result, &mut expected[i]);
    }
    pass_s
}

/// One staged replay pass; returns the summed compile seconds. Each
/// replayed report must be byte-identical to `Pipeline::compile`'s.
fn replay_pass(
    out: &mut Outcome,
    circuits: &[Circuit],
    order: &[usize],
    expected: &[Option<Expected>],
    t: &mut Tracer,
    counts: &mut StageCounts,
) -> (f64, u64) {
    let mut pass_s = 0.0;
    let mut bytes = 0u64;
    for &i in order {
        t.set_request(i as u64);
        let started = Instant::now();
        let result = t.span("pipeline.compile", |t| {
            stages::compile(&circuits[i], Strategy::Full, t, counts)
        });
        pass_s += started.elapsed().as_secs_f64();
        out.attempted += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.wrong(format!("{}: replay rejected: {e}", circuits[i].name()));
                continue;
            }
        };
        let canonical = t.span("report.render", |_| {
            canonical_compile_report_json(&report).render_compact()
        });
        bytes += canonical.len() as u64;
        if expected[i].as_ref().map(|e| &e.canonical) != Some(&canonical) {
            out.wrong(format!(
                "{}: staged replay differs from Pipeline::compile",
                circuits[i].name()
            ));
        }
    }
    (pass_s, bytes)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUPS {
        let (built, seconds) = setup();
        circuits = built;
        setups.push(seconds);
    }
    let setup_s = median(&setups);
    let n = circuits.len();
    let mut expected: Vec<Option<Expected>> = (0..n).map(|_| None).collect();
    let mut per_circuit_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let started = Instant::now();
    if args.trace {
        run_traced(
            args,
            &mut out,
            &circuits,
            &mut expected,
            &mut per_circuit_ms,
        );
    } else {
        let mut passes = Vec::new();
        let mut pass = 0;
        while pass == 0 || started.elapsed() < args.seconds {
            let order = order(args.seed, pass, n);
            passes.push(untraced_pass(
                &mut out,
                &circuits,
                &order,
                &mut expected,
                &mut per_circuit_ms,
            ));
            pass += 1;
        }
        // The replay oracle, once per run, outside the measured passes.
        let mut t = Tracer::new(false);
        let mut counts = StageCounts::default();
        let order = order(args.seed, u64::MAX, n);
        replay_pass(&mut out, &circuits, &order, &expected, &mut t, &mut counts);

        let medians: Vec<f64> = per_circuit_ms.iter().map(|v| median(v)).collect();
        let quality: Vec<f64> = expected
            .iter()
            .flatten()
            .map(|e| e.cycles_over_cp)
            .collect();
        let compile_ms_geomean = geomean(&medians);
        let suite_s = median(&passes);
        let slowest_ms = quantile(&medians, 0.99);
        let cycles_over_cp = geomean(&quality);
        out.notes.push(format!(
            "paper-suite: {n} circuits, {} passes, {} compiles timed (pass times s: {})",
            passes.len(),
            passes.len() * n,
            passes
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        out.show("compile_ms_geomean", compile_ms_geomean, "ms");
        out.show("suite_s", suite_s, "s");
        out.show("cycles_over_cp_geomean", cycles_over_cp, "ratio");
        out.set("setup_s", setup_s, "s");
        out.set("peak_rss_mb", peak_rss_mb(), "MB");
        out.set("latency_ms", compile_ms_geomean, "ms");
        out.set("latency_tail_ms", slowest_ms, "ms");
        out.set("throughput_per_s", n as f64 / suite_s, "1/s");
        out.set("quality_ratio", cycles_over_cp, "ratio");
    }
    out
}

/// The traced run: one counting pass under the telemetry recorder, then
/// untraced `Pipeline::compile` passes alternating with traced staged
/// replays until the time is up.
fn run_traced(
    args: &Args,
    out: &mut Outcome,
    circuits: &[Circuit],
    expected: &mut [Option<Expected>],
    per_circuit_ms: &mut [Vec<f64>],
) {
    let n = circuits.len();
    let started = Instant::now();
    let first = order(args.seed, 0, n);
    untraced_pass(out, circuits, &first, expected, per_circuit_ms);

    let mut counts = StageCounts::default();
    let ((_, bytes), snap) = recorded(|| {
        let mut off = Tracer::new(false);
        replay_pass(out, circuits, &first, expected, &mut off, &mut counts)
    });

    let mut t = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut pass = 1;
    while traced.is_empty() || started.elapsed() < args.seconds {
        let order = order(args.seed, pass, n);
        untraced.push(untraced_pass(
            out,
            circuits,
            &order,
            expected,
            per_circuit_ms,
        ));
        let mut discard = StageCounts::default();
        traced.push(replay_pass(out, circuits, &order, expected, &mut t, &mut discard).0);
        pass += 1;
    }
    let passes = traced.len() as f64;
    out.notes.push(format!(
        "paper-suite traced: {n} circuits, {} untraced and {} traced passes",
        untraced.len(),
        traced.len()
    ));
    out.notes.push(t.self_time_table(passes, "pass"));
    crate::write_trace(args, &t);

    let per_pass = |name: &str| t.self_ms(name) / passes;
    out.set("circuit.optimize_ms", per_pass("circuit.optimize"), "ms");
    out.set("circuit.dag_ms", per_pass("circuit.dag"), "ms");
    out.set(
        "circuit.gates_removed",
        counts.gates_removed as f64,
        "count",
    );
    out.set("placement.initial_ms", per_pass("placement.initial"), "ms");
    out.set("scheduler.engine_ms", per_pass("scheduler.engine"), "ms");
    out.set("scheduler.engine_runs", counts.engine_runs as f64, "count");
    out.set("maslov.ms", per_pass("maslov"), "ms");
    out.set("maslov.wins", counts.maslov_wins as f64, "count");
    out.set("verify.ms", per_pass("verify"), "ms");
    out.set("report.render_ms", per_pass("report.render"), "ms");
    out.set("report.bytes", bytes as f64, "bytes");
    out.set(
        "trace.overhead_frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
        "ratio",
    );
    set_layer_counts(out, &snap);
    zero_unmeasured(out);
}
