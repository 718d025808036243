//! Golden digests of canonical reports: a pin that holds across commits.
//!
//! `tests/kernel_equivalence.rs` and the conformance oracle diff two code
//! paths of the *same* build. This suite instead compares today's output
//! with digests committed in `tests/golden/canonical_digests.txt`, so a
//! refactor that must keep the bytes (the shared engine step, a DAG
//! rewrite) can prove it did. Each line of that file is
//! `<label> <FNV-1a-64 hex>` of one canonical rendering:
//!
//! * `compile/…` — [`canonical_compile_report_json`] of every corpus
//!   file and conformance seeds 0..16, per registry strategy; threads 1,
//!   2 and 8 must render identically;
//! * `table2/…` — the same for the Table 2 default subset (release
//!   builds only: minutes unoptimized), less QFT-400 under the two
//!   negotiating strategies;
//! * `defects/…` — [`run_with_base_occupancy`] on every defect-overlay
//!   case, per engine policy and layout-optimizer setting, digesting the
//!   schedule or the typed error;
//! * `commute/…` — commutation-aware batch compiles;
//! * `stream/…` — [`StreamingPipeline::finish`] of a fully pushed stream
//!   per case and strategy;
//! * `session/…` — one interleaved push/step session per case, seeded by
//!   the case name, with a tile failure and a magic-state stall injected.
//!
//! Wall-clock step budgets are left out: they are not deterministic. When
//! a change is *meant* to alter output, the failure message lists the
//! recomputed lines of the group for the digest file.

use autobraid::pipeline::{CompileOptions, CompileReport, Pipeline, Strategy};
use autobraid::report::{canonical_compile_report_json, schedule_result_json};
use autobraid::streaming::{FaultEvent, StreamError, StreamingOptions, StreamingPipeline};
use autobraid::{policy_for, run_with_base_occupancy, ScheduleConfig, REGISTRY};
use autobraid_bench::{SLOW_LABELS, TABLE2};
use autobraid_circuit::generators::{ising::ising, qft::qft};
use autobraid_circuit::Circuit;
use autobraid_conformance::dsl::generate_case;
use autobraid_conformance::ConformanceCase;
use autobraid_placement::Placement;
use autobraid_telemetry::Rng64;
use std::collections::BTreeMap;
use std::path::PathBuf;

const DIGESTS: &str = include_str!("golden/canonical_digests.txt");

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Compares the recomputed `(label, digest)` lines of one group with the
/// committed lines whose label starts with `group/`.
fn check_group(group: &str, actual: Vec<(String, String)>) {
    let prefix = format!("{group}/");
    let expected: BTreeMap<&str, &str> = DIGESTS
        .lines()
        .filter_map(|line| line.split_once(' '))
        .filter(|(label, _)| label.starts_with(&prefix))
        .collect();
    let mut problems = Vec::new();
    for (label, hash) in &actual {
        match expected.get(label.as_str()) {
            None => problems.push(format!("{label}: no committed digest")),
            Some(want) if want != hash => {
                problems.push(format!("{label}: digest {hash}, committed {want}"))
            }
            Some(_) => {}
        }
    }
    for label in expected.keys() {
        if !actual.iter().any(|(l, _)| l == label) {
            problems.push(format!("{label}: committed but no longer computed"));
        }
    }
    assert!(
        problems.is_empty(),
        "{group}: {} golden digest(s) differ:\n{}\n\nrecomputed lines:\n{}",
        problems.len(),
        problems.join("\n"),
        actual
            .iter()
            .map(|(l, h)| format!("{l} {h}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every committed corpus file, named by its file stem.
fn corpus_cases() -> Vec<(String, ConformanceCase)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus dir").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let case = ConformanceCase::from_repro(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            (stem, case)
        })
        .collect()
}

/// The corpus plus conformance seeds 0..16.
fn all_cases() -> Vec<(String, ConformanceCase)> {
    let mut cases = corpus_cases();
    cases.extend((0..16u64).map(|seed| (format!("seed{seed}"), generate_case(seed))));
    cases
}

/// The canonical compile report (or error) of `circuit`.
fn compiled(pipeline: Pipeline, circuit: &Circuit, strategy: Strategy, threads: usize) -> String {
    let pipeline = pipeline.with_options(CompileOptions {
        strategy,
        threads,
        ..CompileOptions::default()
    });
    match pipeline.compile(circuit) {
        Ok(report) => canonical_compile_report_json(&report).render_compact(),
        Err(e) => format!("error: {e}"),
    }
}

/// Negotiated routing of QFT-400 (PathFinder, and the portfolio that
/// races it) takes over five minutes even in a release build.
fn too_slow(circuit: &str, strategy: Strategy) -> bool {
    circuit == "QFT-400" && matches!(strategy, Strategy::PathFinder | Strategy::Portfolio)
}

/// One line per circuit and strategy; every thread count must agree.
fn compile_lines(group: &str, circuits: &[(String, Circuit)]) -> Vec<(String, String)> {
    let mut lines = Vec::new();
    for (name, circuit) in circuits {
        for info in REGISTRY.iter().filter(|i| !too_slow(name, i.strategy)) {
            let label = format!("{group}/{name}/{}", info.name);
            let first = compiled(Pipeline::new(), circuit, info.strategy, THREAD_SWEEP[0]);
            for &threads in &THREAD_SWEEP[1..] {
                assert!(
                    compiled(Pipeline::new(), circuit, info.strategy, threads) == first,
                    "{label}: threads={threads} differs from threads={}",
                    THREAD_SWEEP[0]
                );
            }
            lines.push((label, digest(&first)));
        }
    }
    lines
}

#[test]
fn corpus_and_seed_compiles_match_their_digests() {
    let circuits: Vec<(String, Circuit)> = all_cases()
        .into_iter()
        .map(|(name, case)| (name, case.circuit))
        .collect();
    check_group("compile", compile_lines("compile", &circuits));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the Table 2 subset takes minutes in a debug build"
)]
fn table2_compiles_match_their_digests() {
    let circuits: Vec<(String, Circuit)> = TABLE2
        .iter()
        .filter(|e| !SLOW_LABELS.contains(&e.label))
        .map(|e| {
            (
                e.label.to_string(),
                e.build().expect("Table 2 entries build"),
            )
        })
        .collect();
    check_group("table2", compile_lines("table2", &circuits));
}

#[test]
fn defective_lattice_runs_match_their_digests() {
    let mut lines = Vec::new();
    for (name, case) in all_cases() {
        if case.defects.is_empty() {
            continue;
        }
        let grid = case.grid();
        let placement = Placement::row_major(&grid, case.circuit.num_qubits());
        let base = case.base_occupancy();
        for info in REGISTRY {
            for optimizer in [false, true] {
                let label = format!("defects/{name}/{}/opt{}", info.name, u8::from(optimizer));
                let mut first: Option<String> = None;
                for &threads in &THREAD_SWEEP {
                    let Some(policy) = policy_for(info.strategy, threads) else {
                        break;
                    };
                    let run = run_with_base_occupancy(
                        "golden",
                        &case.circuit,
                        &grid,
                        placement.clone(),
                        policy.as_ref(),
                        optimizer,
                        &ScheduleConfig::default().with_threads(threads),
                        &base,
                    );
                    let text = match run {
                        Ok((mut result, final_placement)) => {
                            result.compile_seconds = 0.0;
                            format!(
                                "{} {:?}",
                                schedule_result_json(&result).render_compact(),
                                final_placement
                            )
                        }
                        Err(e) => format!("error: {e}"),
                    };
                    match &first {
                        None => first = Some(text),
                        Some(f) => assert!(*f == text, "{label}: threads={threads} differs"),
                    }
                }
                if let Some(text) = first {
                    lines.push((label, digest(&text)));
                }
            }
        }
    }
    assert!(!lines.is_empty(), "no defect-overlay case in the sweep");
    check_group("defects", lines);
}

#[test]
fn commutation_aware_compiles_match_their_digests() {
    let mut lines = Vec::new();
    for (name, circuit) in [
        ("qft8", qft(8).unwrap()),
        ("ising9x2", ising(9, 2).unwrap()),
    ] {
        for info in REGISTRY {
            let pipeline =
                Pipeline::new().with_config(ScheduleConfig::default().with_commutation_aware(true));
            let text = compiled(pipeline, &circuit, info.strategy, 1);
            lines.push((format!("commute/{name}/{}", info.name), digest(&text)));
        }
    }
    check_group("commute", lines);
}

/// Opens a stream for `case` under `strategy` and `threads`.
fn open_stream(case: &ConformanceCase, strategy: Strategy, threads: usize) -> StreamingPipeline {
    let options = StreamingOptions::default()
        .with_strategy(strategy)
        .with_threads(threads)
        .with_label(case.circuit.name())
        .with_defects(case.defects.clone());
    StreamingPipeline::open(case.circuit.num_qubits().max(1), options)
}

fn stream_text(result: Result<CompileReport, StreamError>) -> String {
    match result {
        Ok(report) => report.canonical_json(),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn fully_pushed_streams_match_their_digests() {
    let mut lines = Vec::new();
    for (name, case) in all_cases() {
        for info in REGISTRY {
            let label = format!("stream/{name}/{}", info.name);
            let run = |threads: usize| {
                let mut stream = open_stream(&case, info.strategy, threads);
                let pushed: Result<(), StreamError> = case
                    .circuit
                    .iter()
                    .try_for_each(|(_, gate)| stream.push_gate(*gate).map(drop));
                stream_text(pushed.and_then(|()| stream.finish()))
            };
            let first = run(THREAD_SWEEP[0]);
            for &threads in &THREAD_SWEEP[1..] {
                assert!(run(threads) == first, "{label}: threads={threads} differs");
            }
            lines.push((label, digest(&first)));
        }
    }
    check_group("stream", lines);
}

/// A seeded session: pushes interleaved with 0–2 steps, and a tile
/// failure plus a magic-state stall injected once half the gates are in.
fn session(case: &ConformanceCase, seed: u64) -> Result<CompileReport, StreamError> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut stream = open_stream(case, Strategy::Full, 1);
    let side = stream.grid().vertices_per_side();
    let half = case.circuit.len() / 2;
    for (id, gate) in case.circuit.iter() {
        if id == half {
            stream.inject(FaultEvent::TileFailure {
                row: rng.gen_range(0..side),
                col: rng.gen_range(0..side),
            })?;
            stream.inject(FaultEvent::MagicStall {
                steps: rng.gen_range(1..4u64),
            })?;
        }
        stream.push_gate(*gate)?;
        for _ in 0..rng.gen_range(0..3usize) {
            stream.step()?;
        }
    }
    stream.finish()
}

#[test]
fn interleaved_fault_sessions_match_their_digests() {
    // Seeded by name, so a new corpus file leaves every other session's
    // seed, and its digest, as it was.
    let lines = all_cases()
        .into_iter()
        .map(|(name, case)| {
            let text = stream_text(session(&case, fnv1a64(name.as_bytes())));
            (format!("session/{name}"), digest(&text))
        })
        .collect();
    check_group("session", lines);
}
