//! Work counts from the program's existing telemetry counters.

use crate::stats::ratio;
use crate::Outcome;
use autobraid_telemetry::{install, MemoryRecorder, TelemetrySnapshot};
use std::sync::Arc;

/// Runs `f` with a fresh in-memory telemetry recorder installed on this
/// thread (the recorder `CompileOptions { telemetry: true }` installs)
/// and returns its snapshot.
pub fn recorded<T>(f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    let recorder = Arc::new(MemoryRecorder::new());
    let guard = install(Arc::clone(&recorder) as Arc<dyn autobraid_telemetry::Recorder>);
    let out = f();
    drop(guard);
    (out, recorder.snapshot())
}

fn histogram_sum(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum)
}

/// Sets the per-layer counts the snapshot carries on `out`.
pub fn set_layer_counts(out: &mut Outcome, snap: &TelemetrySnapshot) {
    let c = |name: &str| snap.counter(name) as f64;
    out.set(
        "placement.anneal.proposals",
        c("placement.anneal.proposals"),
        "count",
    );
    out.set(
        "placement.anneal.accept_ratio",
        ratio(
            c("placement.anneal.accepted"),
            c("placement.anneal.proposals"),
        ),
        "ratio",
    );
    let searches = c("router.astar.searches");
    out.set("router.astar.searches", searches, "count");
    out.set(
        "router.astar.expansions",
        histogram_sum(snap, "router.astar.expansions"),
        "count",
    );
    out.set(
        "router.astar.fail_ratio",
        ratio(c("router.astar.failures"), searches),
        "ratio",
    );
    out.set(
        "router.repair.success_ratio",
        ratio(c("router.repair.successes"), c("router.repair.attempts")),
        "ratio",
    );
    out.set(
        "router.pathfinder.iterations",
        histogram_sum(snap, "router.pathfinder.iterations"),
        "count",
    );
    out.set("router.route.requests", c("router.route.requests"), "count");
    out.set("scheduler.steps.braid", c("scheduler.steps.braid"), "count");
    out.set(
        "scheduler.swaps.inserted",
        c("scheduler.swaps.inserted"),
        "count",
    );
    let routed = c("scheduler.gates.routed");
    out.set(
        "scheduler.routed_ratio",
        ratio(routed, routed + c("scheduler.gates.deferred")),
        "ratio",
    );
    out.set("streaming.reroutes", c("streaming.reroutes"), "count");
    out.set(
        "streaming.faults.recovered",
        c("streaming.faults.recovered"),
        "count",
    );
}

/// Sets every per-layer metric not measured yet to 0: layers a workload
/// does not reach.
pub fn zero_unmeasured(out: &mut Outcome) {
    for (name, unit) in crate::PER_LAYER {
        out.metrics.entry(name).or_insert((0.0, unit));
    }
}
