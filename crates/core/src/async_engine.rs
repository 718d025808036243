//! Event-driven (asynchronous) scheduling — an extension beyond the
//! synchronous engine.
//!
//! [`crate::scheduler::run`] advances the whole lattice in lock-step
//! braiding windows, so a single-qubit gate sandwiched between braids is
//! charged a full `2d`-cycle window instead of its own `d`. This engine
//! removes that quantization: time is sliced into `d`-cycle *slots*, a
//! local gate occupies its qubit for 1 slot, a braid occupies its path
//! for 2 consecutive slots, and every qubit progresses on its own clock.
//! On congestion-free circuits the result meets the dependence critical
//! path *exactly*, which is how the paper's Table 2 reports AutoBraid on
//! the building-block benchmarks.

use crate::config::ScheduleConfig;
use crate::critical_path::gate_cycles;
use crate::metrics::ScheduleResult;
use crate::scheduler::chain_weights;
use autobraid_circuit::{Circuit, DependenceDag, Gate, GateId};
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::Placement;
use autobraid_router::stack_finder::route_concurrent;
use autobraid_router::{BraidPath, CxRequest};
use std::collections::BTreeMap;
use std::time::Instant;

/// One scheduled gate in slot time (1 slot = `d` surface-code cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The gate.
    pub gate: GateId,
    /// First slot the gate occupies.
    pub start_slot: u64,
    /// Number of slots occupied (1 for local gates, 2 per braid).
    pub slots: u64,
    /// The braiding path (None for local gates), reserved for the whole
    /// duration.
    pub path: Option<BraidPath>,
}

/// An event-driven schedule.
#[derive(Debug, Clone)]
pub struct AsyncSchedule {
    /// Aggregate statistics (the `steps` list is empty — the schedule is
    /// interval-based; see [`AsyncSchedule::assignments`]).
    pub result: ScheduleResult,
    /// Per-gate slot assignments.
    pub assignments: Vec<Assignment>,
    /// The grid scheduled on.
    pub grid: Grid,
    /// The (static) placement used.
    pub placement: Placement,
}

/// Schedules `circuit` event-driven style on `grid` from a static
/// `placement`. Returns the interval schedule; validate with
/// [`verify_async`].
///
/// Statistics note: with no global steps, the result's `braid_steps`
/// counts *braids started* and `local_steps` counts local gates; the
/// comparable quantity across engines is `total_cycles`.
pub fn schedule_async(
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    config: &ScheduleConfig,
) -> AsyncSchedule {
    let started = Instant::now();
    let dag = config.dag(circuit);
    let d_cycles = u64::from(config.timing.params().distance());

    // Slots a gate occupies, and its remaining critical path (in cycles)
    // as routing priority.
    let slots_of = |g: &Gate| gate_cycles(g, &config.timing) / d_cycles;
    let remaining = chain_weights(circuit, &dag, |g| gate_cycles(g, &config.timing));

    // ready_at[g]: earliest slot all predecessors have finished.
    let mut unmet: Vec<usize> = (0..circuit.len())
        .map(|g| dag.predecessors(g).len())
        .collect();
    let mut ready_at: Vec<u64> = vec![0; circuit.len()];
    // Gates becoming ready at each slot.
    let mut agenda: BTreeMap<u64, Vec<GateId>> = BTreeMap::new();
    for g in dag.roots() {
        agenda.entry(0).or_default().push(g);
    }

    // Per-slot occupancy, garbage-collected as time passes.
    let mut occupancy: BTreeMap<u64, Occupancy> = BTreeMap::new();
    let mut assignments: Vec<Assignment> = Vec::with_capacity(circuit.len());
    let mut finished = 0usize;
    let mut makespan_slots = 0u64;
    let mut result = ScheduleResult::new("autobraid-async", circuit.name(), config.timing);
    let mut utilization_samples = 0u64;
    let mut utilization_sum = 0.0;

    while finished < circuit.len() {
        let (&slot, _) = agenda
            .iter()
            .next()
            .expect("unfinished gates have agenda entries");
        let batch = agenda.remove(&slot).expect("entry exists");
        occupancy.retain(|&s, _| s >= slot);

        let mut complete = |g: GateId,
                            start: u64,
                            path: Option<BraidPath>,
                            agenda: &mut BTreeMap<u64, Vec<GateId>>| {
            let len = slots_of(circuit.gate(g));
            let finish = start + len;
            assignments.push(Assignment {
                gate: g,
                start_slot: start,
                slots: len,
                path,
            });
            makespan_slots = makespan_slots.max(finish);
            for &s in dag.successors(g) {
                unmet[s] -= 1;
                ready_at[s] = ready_at[s].max(finish);
                if unmet[s] == 0 {
                    agenda.entry(ready_at[s]).or_default().push(s);
                }
            }
        };

        // Local gates run immediately; braids compete for a path that is
        // free across their whole duration.
        let mut braid_gates: Vec<GateId> = Vec::new();
        for g in batch {
            if circuit.gate(g).is_two_qubit() {
                braid_gates.push(g);
            } else {
                complete(g, slot, None, &mut agenda);
                finished += 1;
                result.local_steps += 1;
            }
        }
        if braid_gates.is_empty() {
            continue;
        }

        // A braid spanning [slot, slot + span) must avoid every path
        // active in any of those slots: route against the union map.
        let span = braid_gates
            .iter()
            .map(|&g| slots_of(circuit.gate(g)))
            .max()
            .expect("non-empty braid batch");
        let mut merged = Occupancy::new(grid);
        for s in slot..slot + span {
            if let Some(o) = occupancy.get(&s) {
                merged.union_with(o);
            }
        }
        let requests: Vec<CxRequest> = braid_gates
            .iter()
            .map(|&g| {
                let (a, b) = circuit.gate(g).pair().expect("two-qubit");
                CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
                    .with_priority(remaining[g] as i64)
            })
            .collect();
        let outcome = route_concurrent(grid, &mut merged, &requests);
        utilization_samples += 1;
        utilization_sum += merged.utilization();
        result.peak_utilization = result.peak_utilization.max(merged.utilization());

        for routed in outcome.routed {
            let g = routed.request.id;
            let len = slots_of(circuit.gate(g));
            for s in slot..slot + len {
                let o = occupancy.entry(s).or_insert_with(|| Occupancy::new(grid));
                let ok = o.try_reserve(grid, routed.path.vertices().iter().copied());
                assert!(ok, "interval reservation conflicts with an active braid");
            }
            complete(g, slot, Some(routed.path), &mut agenda);
            finished += 1;
            result.braid_steps += 1;
        }
        for id in outcome.failed {
            // Congested: retry next slot.
            agenda.entry(slot + 1).or_default().push(id);
        }
    }

    result.total_cycles = makespan_slots * d_cycles;
    if utilization_samples > 0 {
        result.mean_utilization = utilization_sum / utilization_samples as f64;
    }
    result.compile_seconds = started.elapsed().as_secs_f64();
    AsyncSchedule {
        result,
        assignments,
        grid: grid.clone(),
        placement,
    }
}

/// Independently verifies an [`AsyncSchedule`]: every gate exactly once,
/// dependence order in slot time, paths valid for the placement, and
/// per-slot vertex-disjointness across overlapping braids.
///
/// Returns the first violation as an error message.
pub fn verify_async(circuit: &Circuit, schedule: &AsyncSchedule) -> Result<(), String> {
    let dag = DependenceDag::new(circuit);
    let mut finish: Vec<Option<u64>> = vec![None; circuit.len()];
    for a in &schedule.assignments {
        if a.gate >= circuit.len() {
            return Err(format!("unknown gate {}", a.gate));
        }
        if finish[a.gate].replace(a.start_slot + a.slots).is_some() {
            return Err(format!("gate {} scheduled twice", a.gate));
        }
    }
    if let Some(missing) = finish.iter().position(Option::is_none) {
        return Err(format!("gate {missing} never scheduled"));
    }
    // Dependence order (plain DAG is sufficient: the commutation DAG only
    // removes order constraints between gates that commute, and slot-time
    // ordering of the rest must still hold under the relaxed DAG used at
    // build time — check against the DAG the schedule was built with).
    let check_dag = |dag: &DependenceDag| -> Result<(), String> {
        for a in &schedule.assignments {
            for &p in dag.predecessors(a.gate) {
                let pf = finish[p].expect("all scheduled");
                if pf > a.start_slot {
                    return Err(format!(
                        "gate {} starts at slot {} before dependency {} finishes at {}",
                        a.gate, a.start_slot, p, pf
                    ));
                }
            }
        }
        Ok(())
    };
    // Accept schedules built under either DAG.
    if check_dag(&dag).is_err() {
        check_dag(&DependenceDag::with_commutation(circuit))?;
    }

    // Paths valid and per-slot disjoint.
    let mut by_slot: BTreeMap<u64, Occupancy> = BTreeMap::new();
    for a in &schedule.assignments {
        let gate = circuit.gate(a.gate);
        match (&a.path, gate.pair()) {
            (Some(path), Some((qa, qb))) => {
                let (ca, cb) = (
                    schedule.placement.cell_of(qa),
                    schedule.placement.cell_of(qb),
                );
                if BraidPath::new(&schedule.grid, ca, cb, path.vertices().to_vec()).is_none() {
                    return Err(format!("invalid path for gate {}", a.gate));
                }
                for s in a.start_slot..a.start_slot + a.slots {
                    let occ = by_slot
                        .entry(s)
                        .or_insert_with(|| Occupancy::new(&schedule.grid));
                    if !occ.try_reserve(&schedule.grid, path.vertices().iter().copied()) {
                        return Err(format!("gate {} crosses another braid in slot {s}", a.gate));
                    }
                }
            }
            (None, None) => {}
            _ => return Err(format!("gate {} arity/path mismatch", a.gate)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path_cycles;
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{self, random::random_circuit};

    fn run_async(circuit: &Circuit) -> AsyncSchedule {
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = compiler.initial_placement(circuit, &grid);
        let schedule = schedule_async(circuit, &grid, placement, &config);
        verify_async(circuit, &schedule).expect("async schedule verifies");
        schedule
    }

    #[test]
    fn building_blocks_hit_critical_path_exactly() {
        // The paper's Table 2: AutoBraid equals CP on the block suite.
        for name in ["4gt11_8", "4gt5_75", "alu-v0_26", "rd32-v0"] {
            let circuit = generators::by_name(name, 0).unwrap();
            let schedule = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, schedule.result.timing());
            assert_eq!(
                schedule.result.total_cycles, cp,
                "{name}: async engine must meet CP"
            );
        }
    }

    #[test]
    fn never_below_cp_and_never_above_sync() {
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        for seed in 0..4 {
            let circuit = random_circuit(10, 250, 0.5, seed).unwrap();
            let sync = compiler
                .schedule(Strategy::Stack, &circuit, &compiler.config().dag(&circuit))
                .result
                .total_cycles;
            let schedule = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, schedule.result.timing());
            assert!(schedule.result.total_cycles >= cp, "seed {seed}: below CP");
            assert!(
                schedule.result.total_cycles <= sync,
                "seed {seed}: async ({}) worse than sync ({sync})",
                schedule.result.total_cycles
            );
        }
    }

    #[test]
    fn bv_and_ising_hit_cp() {
        for circuit in [
            generators::bv::bv_all_ones(24).unwrap(),
            generators::ising::ising(16, 2).unwrap(),
        ] {
            let schedule = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, schedule.result.timing());
            assert_eq!(schedule.result.total_cycles, cp, "{}", circuit.name());
        }
    }

    #[test]
    fn assignment_count_matches_circuit() {
        let circuit = generators::qft::qft(12).unwrap();
        let schedule = run_async(&circuit);
        assert_eq!(schedule.assignments.len(), circuit.len());
    }

    #[test]
    fn verify_catches_corruption() {
        let circuit = generators::qft::qft(8).unwrap();
        let mut schedule = run_async(&circuit);
        schedule.assignments[0].start_slot = 0;
        schedule.assignments.swap(0, 1);
        // Force a dependence violation: schedule the last gate at slot 0.
        let last = schedule.assignments.len() - 1;
        schedule.assignments[last].start_slot = 0;
        assert!(verify_async(&circuit, &schedule).is_err());
    }
}
