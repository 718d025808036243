//! The compile pipeline replayed stage by stage from public functions,
//! each stage inside a span named after its layer.
//!
//! [`compile`] makes the same calls, in the same order, as
//! `Pipeline::compile` with `CompileOptions { threads: 1, .. }` for the
//! given strategy. Callers check the replay against the pipeline by
//! comparing canonical reports byte for byte, which proves the spans
//! timed the work the pipeline really does.

use crate::trace::Tracer;
use autobraid::config::{Recording, ScheduleConfig};
use autobraid::maslov::schedule_maslov_with_dag;
use autobraid::metrics::verify_schedule_with_dag;
use autobraid::pipeline::{CompileReport, StageTimings, Strategy};
use autobraid::scheduler::{
    run, run_with_dag, ParallelStackPolicy, PathFinderPolicy, PortfolioPolicy, RoutePolicy,
};
use autobraid::{schedule_baseline, AutoBraid, ScheduleOutcome};
use autobraid_circuit::{transform, Circuit, CircuitStats, DependenceDag};
use autobraid_lattice::Grid;
use autobraid_placement::CouplingGraph;

/// Work counts the replay itself observes (the program's own counters
/// come from its telemetry snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Gates the peephole optimizer removed.
    pub gates_removed: u64,
    /// Scheduling-engine drives (the optimizer-off rerun counts).
    pub engine_runs: u64,
    /// Maslov schedules that beat the engine and were kept.
    pub maslov_wins: u64,
}

/// The pipeline's all-to-all test: mean coupling degree above 6.
fn is_all_to_all(circuit: &Circuit) -> bool {
    let coupling = CouplingGraph::of(circuit);
    let n = coupling.num_qubits().max(1) as usize;
    2 * coupling.edge_count() > 6 * n
}

/// Compiles `circuit` with the optimizer and verifier on, serially,
/// under `strategy`, one span per stage.
///
/// # Errors
///
/// The verifier's rejection, as text.
pub fn compile(
    circuit: &Circuit,
    strategy: Strategy,
    t: &mut Tracer,
    counts: &mut StageCounts,
) -> Result<CompileReport, String> {
    let config = ScheduleConfig::default().with_threads(1);
    let (circuit, removed) = t.span("circuit.optimize", |_| {
        let (optimized, stats) = transform::optimize(circuit, 1e-12);
        (optimized, stats.gates_removed())
    });
    counts.gates_removed += removed as u64;
    let compiler = AutoBraid::new(config.clone());
    let dag = t.span("circuit.dag", |_| {
        if config.commutation_aware {
            DependenceDag::with_commutation(&circuit)
        } else {
            DependenceDag::new(&circuit)
        }
    });
    let outcome = match strategy {
        Strategy::Full => full(&compiler, &circuit, &dag, t, counts),
        Strategy::Stack => with_policy(
            &compiler,
            "autobraid-sp",
            &ParallelStackPolicy::new(1),
            &circuit,
            t,
            counts,
        ),
        Strategy::PathFinder => with_policy(
            &compiler,
            "pathfinder",
            &PathFinderPolicy::default(),
            &circuit,
            t,
            counts,
        ),
        Strategy::Portfolio => with_policy(
            &compiler,
            "portfolio",
            &PortfolioPolicy::new(1),
            &circuit,
            t,
            counts,
        ),
        Strategy::Baseline => {
            counts.engine_runs += 1;
            let (result, placement) =
                t.span("scheduler.engine", |_| schedule_baseline(&circuit, &config));
            ScheduleOutcome {
                result,
                grid: Grid::with_capacity_for(circuit.num_qubits() as usize),
                initial_placement: placement,
            }
        }
        Strategy::Maslov => {
            let (result, placement) = t.span("maslov", |_| {
                schedule_maslov_with_dag(&circuit, &config, &dag)
            });
            ScheduleOutcome {
                result,
                grid: Grid::with_capacity_for(circuit.num_qubits() as usize),
                initial_placement: placement,
            }
        }
        other => return Err(format!("strategy {} has no staged replay", other.name())),
    };
    if config.recording == Recording::Full {
        t.span("verify", |_| {
            verify_schedule_with_dag(
                &circuit,
                &dag,
                &outcome.grid,
                &outcome.initial_placement,
                &outcome.result,
            )
        })?;
    }
    let stats = CircuitStats::of(&circuit);
    Ok(CompileReport {
        circuit,
        stats,
        gates_removed: removed,
        outcome,
        timings: StageTimings::default(),
        telemetry: None,
        trace: None,
    })
}

/// `AutoBraid::schedule_with_policy`: placement, then one engine drive
/// with the layout optimizer off.
fn with_policy(
    compiler: &AutoBraid,
    name: &str,
    policy: &dyn RoutePolicy,
    circuit: &Circuit,
    t: &mut Tracer,
    counts: &mut StageCounts,
) -> ScheduleOutcome {
    let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
    let placement = t.span("placement.initial", |_| {
        compiler.initial_placement(circuit, &grid)
    });
    counts.engine_runs += 1;
    let (mut result, _) = t.span("scheduler.engine", |_| {
        run(
            name,
            circuit,
            &grid,
            placement.clone(),
            policy,
            false,
            compiler.config(),
        )
    });
    result.scheduler = name.into();
    ScheduleOutcome {
        result,
        grid,
        initial_placement: placement,
    }
}

/// `AutoBraid::schedule_full_with_dag`: the engine with the layout
/// optimizer, the optimizer-off rerun when swap layers were committed,
/// and the Maslov race for all-to-all circuits; the best is kept.
fn full(
    compiler: &AutoBraid,
    circuit: &Circuit,
    dag: &DependenceDag,
    t: &mut Tracer,
    counts: &mut StageCounts,
) -> ScheduleOutcome {
    let config = compiler.config();
    let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
    let placement = t.span("placement.initial", |_| {
        compiler.initial_placement(circuit, &grid)
    });
    let engine = |t: &mut Tracer, counts: &mut StageCounts, optimizer: bool| {
        counts.engine_runs += 1;
        t.span("scheduler.engine", |_| {
            run_with_dag(
                "autobraid-full",
                circuit,
                &grid,
                placement.clone(),
                &ParallelStackPolicy::new(config.effective_threads()),
                optimizer,
                config,
                dag,
            )
            .0
        })
    };
    let mut outcome = ScheduleOutcome {
        result: engine(t, counts, config.layout_threshold > 0.0),
        grid: grid.clone(),
        initial_placement: placement.clone(),
    };
    if config.layout_threshold > 0.0 {
        if outcome.result.swap_layers > 0 {
            let sp = engine(t, counts, false);
            if sp.total_cycles < outcome.result.total_cycles {
                outcome.result = sp;
            }
        }
        if is_all_to_all(circuit) {
            let (maslov, maslov_initial) =
                t.span("maslov", |_| schedule_maslov_with_dag(circuit, config, dag));
            if maslov.total_cycles < outcome.result.total_cycles {
                counts.maslov_wins += 1;
                outcome = ScheduleOutcome {
                    result: maslov,
                    grid: grid.clone(),
                    initial_placement: maslov_initial,
                };
            }
        }
    }
    outcome.result.scheduler = "autobraid-full".into();
    outcome
}
