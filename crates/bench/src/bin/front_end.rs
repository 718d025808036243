//! Times the compile front end per circuit: the peephole optimizer
//! (`transform::optimize`) and the circuit statistics
//! (`CircuitStats::of`) on the Table 2 default subset, each the median
//! of repeated single-threaded runs. docs/PERF.md ("Linear front end")
//! quotes its output.
//!
//! Run with `cargo run --release -p autobraid-bench --bin front_end`
//! (`--repeats N` sets the sample count, default 5).

use autobraid::report::Table;
use autobraid_bench::{usize_flag, SLOW_LABELS, TABLE2};
use autobraid_circuit::{transform, CircuitStats};
use std::hint::black_box;
use std::time::Instant;

/// Median milliseconds of `run` over `repeats` samples.
fn median_ms(repeats: usize, mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let started = Instant::now();
            run();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    autobraid_bench::enforce_flags(&["--repeats"]);
    let repeats = usize_flag("--repeats", 5);
    let mut table = Table::new(["Benchmark", "gates", "optimize (ms)", "stats (ms)"]);
    let (mut optimize_total, mut stats_total) = (0.0, 0.0);
    for entry in TABLE2.iter().filter(|e| !SLOW_LABELS.contains(&e.label)) {
        let circuit = entry.build().expect("registry entries build");
        let optimize = median_ms(repeats, || {
            black_box(transform::optimize(&circuit, 1e-12));
        });
        let stats = median_ms(repeats, || {
            black_box(CircuitStats::of(&circuit));
        });
        optimize_total += optimize;
        stats_total += stats;
        table.add_row([
            entry.label.to_string(),
            circuit.len().to_string(),
            format!("{optimize:.2}"),
            format!("{stats:.2}"),
        ]);
    }
    table.add_row([
        "total".to_string(),
        String::new(),
        format!("{optimize_total:.2}"),
        format!("{stats_total:.2}"),
    ]);
    println!("Compile front end per circuit (median of {repeats}, one thread)\n");
    println!("{}", table.render());
}
