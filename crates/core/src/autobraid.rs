//! The AutoBraid scheduler — the paper's contribution, in its two
//! evaluated configurations.
//!
//! * **autobraid-sp** — stack-based path finder over an LLG-optimized
//!   initial placement (partitioning + simulated annealing, or the
//!   serpentine layout when the coupling graph has maximal degree ≤ 2).
//! * **autobraid-full** — autobraid-sp plus dynamic qubit placement: the
//!   swap-insertion layout optimizer triggered by the `p` threshold, and
//!   Maslov's linear-depth specialization for all-to-all patterns (the
//!   better of the two is kept, as in §3.3.2).

use crate::baseline::schedule_baseline;
use crate::config::ScheduleConfig;
use crate::maslov::schedule_maslov_with_dag;
use crate::metrics::ScheduleResult;
use crate::scheduler::{drive, policy_for, run_with_dag, Drive, ParallelStackPolicy};
use crate::strategy::Strategy;
use autobraid_circuit::{Circuit, DependenceDag};
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::{
    anneal, initial::partition_placement, linear_placement, CouplingGraph, Placement,
};
use autobraid_telemetry as telemetry;

/// The AutoBraid compiler front end.
///
/// # Examples
///
/// ```
/// use autobraid::AutoBraid;
/// use autobraid::config::ScheduleConfig;
/// use autobraid::strategy::Strategy;
/// use autobraid_circuit::generators::ising::ising;
///
/// let compiler = AutoBraid::new(ScheduleConfig::default());
/// let circuit = ising(16, 2)?;
/// let dag = compiler.config().dag(&circuit);
/// let outcome = compiler.schedule(Strategy::Full, &circuit, &dag);
/// assert!(outcome.result.total_cycles > 0);
/// # Ok::<(), autobraid_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AutoBraid {
    config: ScheduleConfig,
}

/// A schedule together with the context needed to verify or inspect it.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule and its statistics.
    pub result: ScheduleResult,
    /// The grid the circuit was scheduled on.
    pub grid: Grid,
    /// The placement at the *start* of execution (dynamic remapping may
    /// move qubits afterwards; [`crate::metrics::verify_schedule`] tracks
    /// that from the recorded swap layers).
    pub initial_placement: Placement,
}

impl AutoBraid {
    /// Creates a compiler with the given configuration.
    pub fn new(config: ScheduleConfig) -> Self {
        AutoBraid { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScheduleConfig {
        &self.config
    }

    /// Stage 2 of the framework: the LLG-optimized initial placement.
    ///
    /// Coupling graphs of maximal degree ≤ 2 take the exact serpentine
    /// layout; everything else is partitioned into grid regions and then
    /// refined by simulated annealing on the LLG objective (unless
    /// annealing is disabled in the config).
    pub fn initial_placement(&self, circuit: &Circuit, grid: &Grid) -> Placement {
        let _span = telemetry::span("placement");
        if let Some(linear) = linear_placement(circuit, grid) {
            telemetry::counter("placement.linear_layouts", 1);
            return linear;
        }
        let seed = partition_placement(circuit, grid);
        match &self.config.annealing {
            Some(cfg) => anneal(circuit, grid, seed, cfg).placement,
            None => seed,
        }
    }

    /// Schedules `circuit` with `strategy` — the one strategy dispatch
    /// behind [`crate::pipeline::Pipeline`] and every direct caller.
    /// `dag` must come from [`ScheduleConfig::dag`] on this compiler's
    /// config; it is shared by every candidate autobraid-full races and
    /// is reusable for verification.
    ///
    /// * autobraid-sp, pathfinder and portfolio drive the engine with
    ///   [`policy_for`] over the LLG-optimized initial placement, with no
    ///   dynamic placement.
    /// * autobraid-full adds dynamic qubit placement and keeps the best
    ///   of its candidate schedules (§3.3.2).
    /// * baseline and maslov bypass the initial placement with their own
    ///   fixed layouts.
    pub fn schedule(
        &self,
        strategy: Strategy,
        circuit: &Circuit,
        dag: &DependenceDag,
    ) -> ScheduleOutcome {
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let (result, initial_placement) = match strategy {
            Strategy::Full => self.race_full(circuit, dag, &grid),
            Strategy::Stack | Strategy::PathFinder | Strategy::Portfolio => {
                let placement = self.initial_placement(circuit, &grid);
                let policy = policy_for(strategy, self.config.effective_threads())
                    .expect("engine strategies have a route policy");
                let (result, _) = run_with_dag(
                    strategy.name(),
                    circuit,
                    &grid,
                    placement.clone(),
                    &*policy,
                    false,
                    &self.config,
                    dag,
                );
                (result, placement)
            }
            Strategy::Baseline => schedule_baseline(circuit, &self.config),
            Strategy::Maslov => schedule_maslov_with_dag(circuit, &self.config, dag),
        };
        ScheduleOutcome {
            result,
            grid,
            initial_placement,
        }
    }

    /// Schedules with path finding *and* dynamic qubit placement — the
    /// paper's **autobraid-full**. Per §3.3.2, the best of the candidate
    /// strategies is kept: the engine at the configured `p` threshold, the
    /// engine with the optimizer off (`p = 0`, i.e. autobraid-sp — the
    /// paper sweeps `p` and "chooses the best one among all"), and, for
    /// all-to-all communication patterns, Maslov's swap-network schedule.
    /// An engine candidate is cut short once it can no longer be the one
    /// kept, which never changes the pick. Returns the kept schedule and
    /// its initial placement.
    fn race_full(
        &self,
        circuit: &Circuit,
        dag: &DependenceDag,
        grid: &Grid,
    ) -> (ScheduleResult, Placement) {
        let placement = self.initial_placement(circuit, grid);
        let policy = ParallelStackPolicy::new(self.config.effective_threads());
        let base = Occupancy::new(grid);
        let engine = |optimizer: bool, budget: Option<u64>| {
            drive(
                "autobraid-full",
                circuit,
                grid,
                placement.clone(),
                &policy,
                optimizer,
                &self.config,
                &base,
                dag,
                budget,
            )
            .expect("an empty base occupancy never makes a gate unroutable")
        };

        // The candidate race. Selection is: take `full` (optimizer at
        // `p`); replace it by `sp` (optimizer off) iff sp < full; replace
        // that by Maslov iff maslov < the current pick. A candidate that
        // cannot be picked need not run to completion. A drive is cut
        // once its running cycle count plus a lower bound on what the
        // rest of the DAG still costs passes its budget, so it would
        // have finished past the budget. The budgets are:
        //
        // * `full` is driven with budget `maslov` (all-to-all circuits
        //   only). Pruned means full > maslov, so either sp < full is
        //   picked and then loses to Maslov unless sp ≤ maslov, or full
        //   stays picked and loses to Maslov. Either way full loses.
        // * `sp` is kept iff sp < full and sp ≤ maslov (it must not lose
        //   to Maslov's strict `<`), so its budget is min(full − 1,
        //   maslov); when `full` was pruned, full > maslov and the
        //   budget is just `maslov`. Pruned means sp ≥ full (full stays,
        //   exactly as before) or sp > maslov (whatever the pick, Maslov
        //   beats sp; and if full was picked instead, maslov < sp < full
        //   makes Maslov beat full too).
        //
        // Treating a pruned candidate as +∞ cycles in the unchanged
        // comparisons therefore picks the same candidate on every input.
        // With `full` pruned and `sp` pruned or skipped, Maslov is the
        // pick, and it exists because only its budget can prune `full`.
        //
        // With the optimizer off (`p = 0`) only `full` runs, unbudgeted.
        let optimizer = self.config.layout_threshold > 0.0;
        let maslov = (optimizer && is_all_to_all(circuit))
            .then(|| schedule_maslov_with_dag(circuit, &self.config, dag));
        let maslov_cycles = maslov.as_ref().map(|(m, _)| m.total_cycles);
        let prune = pruning_enabled();
        let budget = |cycles: Option<u64>| cycles.filter(|_| prune);
        let completed = |run: Drive| match run {
            Drive::Complete(result, _) => Some(result),
            Drive::Pruned { .. } => {
                telemetry::counter("scheduler.candidates.pruned", 1);
                None
            }
        };

        let full_run = engine(optimizer, budget(maslov_cycles));
        let sp_run = match &full_run {
            // With zero committed swap layers the optimizer branch fell
            // through on every step, so the p = 0 run would replay the
            // same schedule. Pruned, it would replay the same prefix up
            // to the same state at the cut step, where the bound already
            // passes its budget (never larger than `full`'s). Skip it,
            // counting it as cut in the second case only.
            Drive::Complete(result, _) if result.swap_layers == 0 => None,
            Drive::Pruned { swap_layers: 0 } => Some(Drive::Pruned { swap_layers: 0 }),
            Drive::Complete(result, _) => {
                let below_full = result.total_cycles.saturating_sub(1);
                let cap = maslov_cycles.map_or(below_full, |m| below_full.min(m));
                Some(engine(false, budget(Some(cap))))
            }
            Drive::Pruned { .. } => Some(engine(false, budget(maslov_cycles))),
        };
        let full = completed(full_run);
        let sp = sp_run.and_then(completed);
        let engine_pick = match (full, sp) {
            (Some(full), Some(sp)) if sp.total_cycles < full.total_cycles => Some(sp),
            (Some(full), _) => Some(full),
            (None, sp) => sp,
        };

        let (mut result, initial_placement) = match (engine_pick, maslov) {
            (Some(pick), Some((maslov, _))) if maslov.total_cycles >= pick.total_cycles => {
                (pick, placement)
            }
            (Some(pick), None) => (pick, placement),
            (_, Some(maslov)) => maslov,
            (None, None) => unreachable!("only the Maslov budget can prune `full`"),
        };
        result.scheduler = "autobraid-full".into();
        (result, initial_placement)
    }
}

/// Whether the candidate race may prune. Off in reference mode, so the
/// differential suite diffs pruned against unpruned compiles.
fn pruning_enabled() -> bool {
    #[cfg(any(test, feature = "reference"))]
    if telemetry::reference_mode() {
        return false;
    }
    true
}

/// Heuristic all-to-all detector: the mean coupling degree exceeds 6
/// (QFT/Shor-like cascades qualify; 3-regular QAOA and linear Ising do
/// not).
fn is_all_to_all(circuit: &Circuit) -> bool {
    let coupling = CouplingGraph::of(circuit);
    let n = coupling.num_qubits().max(1) as usize;
    2 * coupling.edge_count() > 6 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path_cycles;
    use crate::metrics::verify_schedule;
    use autobraid_circuit::generators::{
        bv::bv_all_ones, cc::counterfeit_coin, ising::ising, qft::qft,
    };

    fn check(circuit: &Circuit) -> (ScheduleResult, ScheduleResult) {
        let compiler = AutoBraid::new(ScheduleConfig::default());
        let dag = compiler.config().dag(circuit);
        let sp = compiler.schedule(Strategy::Stack, circuit, &dag);
        verify_schedule(circuit, &sp.grid, &sp.initial_placement, &sp.result).unwrap();
        let full = compiler.schedule(Strategy::Full, circuit, &dag);
        verify_schedule(circuit, &full.grid, &full.initial_placement, &full.result).unwrap();
        (sp.result, full.result)
    }

    #[test]
    fn bv_hits_critical_path() {
        let c = bv_all_ones(30).unwrap();
        let (sp, full) = check(&c);
        let cp = critical_path_cycles(&c, sp.timing());
        assert_eq!(sp.total_cycles, cp);
        assert_eq!(full.total_cycles, cp);
    }

    #[test]
    fn cc_hits_critical_path() {
        let c = counterfeit_coin(25).unwrap();
        let (sp, _) = check(&c);
        assert_eq!(sp.total_cycles, critical_path_cycles(&c, sp.timing()));
    }

    #[test]
    fn ising_hits_critical_path_with_linear_layout() {
        let c = ising(25, 2).unwrap();
        let (sp, full) = check(&c);
        let cp = critical_path_cycles(&c, sp.timing());
        assert_eq!(
            sp.total_cycles, cp,
            "serpentine Ising must match CP (Table 2)"
        );
        assert_eq!(full.total_cycles, cp);
    }

    #[test]
    fn qft_beats_baseline() {
        let c = qft(25).unwrap();
        let (_, full) = check(&c);
        let (base, _) = schedule_baseline(&c, &ScheduleConfig::default());
        assert!(
            full.total_cycles <= base.total_cycles,
            "autobraid-full {} vs baseline {}",
            full.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn full_never_loses_to_sp_badly() {
        // full may differ from sp but must stay within the swap overhead
        // it chose to pay; on QFT it should win or tie.
        let c = qft(20).unwrap();
        let (sp, full) = check(&c);
        assert!(full.total_cycles <= sp.total_cycles.max(1) * 2);
    }

    #[test]
    fn all_to_all_detection() {
        assert!(is_all_to_all(&qft(20).unwrap()));
        assert!(!is_all_to_all(&ising(20, 2).unwrap()));
        assert!(!is_all_to_all(&bv_all_ones(20).unwrap()));
    }

    #[test]
    fn results_are_deterministic() {
        let c = qft(15).unwrap();
        let compiler = AutoBraid::new(ScheduleConfig::default());
        let dag = compiler.config().dag(&c);
        let a = compiler.schedule(Strategy::Full, &c, &dag);
        let b = compiler.schedule(Strategy::Full, &c, &dag);
        assert_eq!(a.result.total_cycles, b.result.total_cycles);
        assert_eq!(a.result.braid_steps, b.result.braid_steps);
    }
}
