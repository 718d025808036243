//! Emission of a complete schedule to the physical lattice instruction
//! timeline.
//!
//! Chains [`autobraid_router::lowering`] over every recorded step, placing
//! each braid program at its absolute start cycle. The result is what a
//! lattice micro-controller would execute, and its statistics (total
//! instruction count, peak per-cycle burst) quantify the instruction
//! bandwidth pressure that hardware-managed QEC controllers (Tannu et al.,
//! MICRO'17) are designed to absorb.

use crate::metrics::{ScheduleResult, Step};
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::TimingModel;
use autobraid_router::lowering::{lower_braid, LatticeInstruction};

/// A schedule lowered to physical lattice instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalProgram {
    instructions: Vec<LatticeInstruction>,
    duration_cycles: u64,
}

impl PhysicalProgram {
    /// The instruction stream, sorted by cycle.
    pub fn instructions(&self) -> &[LatticeInstruction] {
        &self.instructions
    }

    /// Total program duration in surface-code cycles.
    pub fn duration_cycles(&self) -> u64 {
        self.duration_cycles
    }

    /// Total number of control instructions.
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// Largest number of instructions issued in one cycle — the burst the
    /// controller must sustain.
    pub fn peak_instructions_per_cycle(&self) -> usize {
        let mut best = 0;
        let mut i = 0;
        while i < self.instructions.len() {
            let cycle = self.instructions[i].cycle;
            let mut j = i;
            while j < self.instructions.len() && self.instructions[j].cycle == cycle {
                j += 1;
            }
            best = best.max(j - i);
            i = j;
        }
        best
    }

    /// Mean instructions per active cycle.
    pub fn mean_instructions_per_active_cycle(&self) -> f64 {
        if self.instructions.is_empty() {
            return 0.0;
        }
        let mut active = 0usize;
        let mut last = u64::MAX;
        for ins in &self.instructions {
            if ins.cycle != last {
                active += 1;
                last = ins.cycle;
            }
        }
        self.instructions.len() as f64 / active as f64
    }
}

/// Lowers a fully recorded schedule to its physical instruction timeline.
///
/// Step costs mirror the scheduling engine exactly: a local layer advances
/// the clock `d` cycles (no lattice control traffic — tiles stabilize
/// autonomously), a braid step `2d`, a swap layer `3 × 2d` (three chained
/// CX braids per swap, each re-braided along the same path).
///
/// # Errors
///
/// Returns an error if the schedule was recorded stats-only (no steps) for
/// a circuit that has gates, or if the emitted duration disagrees with the
/// scheduler's accounting — either indicates a scheduling bug.
pub fn emit_physical(
    result: &ScheduleResult,
    layout: &PhysicalLayout,
) -> Result<PhysicalProgram, String> {
    let timing = TimingModel::new(
        autobraid_lattice::CodeParams::with_distance(layout.distance())
            .map_err(|e| e.to_string())?,
    );
    let d = u64::from(layout.distance());
    let mut cycle = 0u64;
    let mut instructions: Vec<LatticeInstruction> = Vec::new();

    for step in &result.steps {
        match step {
            Step::Local { .. } => {
                cycle += timing.local_step_cycles();
            }
            Step::Braid { braids, .. } => {
                for (_, path) in braids {
                    let program = lower_braid(layout, path);
                    for ins in program.instructions() {
                        instructions.push(LatticeInstruction {
                            cycle: cycle + ins.cycle,
                            op: ins.op,
                        });
                    }
                }
                cycle += timing.braid_step_cycles();
            }
            Step::SwapLayer { swaps } => {
                // Three chained CX braids per swap, sharing the path.
                for sub in 0..3u64 {
                    let offset = cycle + sub * 2 * d;
                    for swap in swaps {
                        let program = lower_braid(layout, &swap.path);
                        for ins in program.instructions() {
                            instructions.push(LatticeInstruction {
                                cycle: offset + ins.cycle,
                                op: ins.op,
                            });
                        }
                    }
                }
                cycle += 3 * timing.braid_step_cycles();
            }
        }
    }

    if result.steps.is_empty() && result.total_cycles > 0 {
        return Err("schedule was recorded stats-only; re-run with Recording::Full".into());
    }
    if cycle != result.total_cycles {
        return Err(format!(
            "emission accounted {cycle} cycles but the scheduler charged {}",
            result.total_cycles
        ));
    }
    instructions.sort_by_key(|i| i.cycle);
    Ok(PhysicalProgram {
        instructions,
        duration_cycles: cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Recording, ScheduleConfig};
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{ising::ising, qft::qft};
    use autobraid_lattice::{CodeParams, TimingModel};
    use autobraid_router::lowering::LatticeOp;

    fn config_d(d: u32) -> ScheduleConfig {
        ScheduleConfig::default()
            .with_timing(TimingModel::new(CodeParams::with_distance(d).unwrap()))
    }

    #[test]
    fn emits_qft_schedule() {
        let circuit = qft(9).unwrap();
        let compiler = AutoBraid::new(config_d(5));
        let outcome = compiler.schedule(Strategy::Full, &circuit, &compiler.config().dag(&circuit));
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 5).unwrap();
        let program = emit_physical(&outcome.result, &layout).unwrap();
        assert_eq!(program.duration_cycles(), outcome.result.total_cycles);
        assert!(program.instruction_count() > 0);
        // Disables and enables balance exactly.
        let (mut on, mut off) = (0usize, 0usize);
        for ins in program.instructions() {
            match ins.op {
                LatticeOp::DisableStabilizer(_) => off += 1,
                LatticeOp::EnableStabilizer(_) => on += 1,
            }
        }
        assert_eq!(on, off);
    }

    #[test]
    fn instructions_are_cycle_sorted_and_bounded() {
        let circuit = ising(12, 1).unwrap();
        let compiler = AutoBraid::new(config_d(3));
        let outcome =
            compiler.schedule(Strategy::Stack, &circuit, &compiler.config().dag(&circuit));
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 3).unwrap();
        let program = emit_physical(&outcome.result, &layout).unwrap();
        let cycles: Vec<u64> = program.instructions().iter().map(|i| i.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert!(cycles.iter().all(|&c| c < program.duration_cycles()));
        assert!(program.peak_instructions_per_cycle() >= 1);
        assert!(program.mean_instructions_per_active_cycle() >= 1.0);
    }

    #[test]
    fn stats_only_schedules_are_rejected() {
        let circuit = qft(8).unwrap();
        let cfg = config_d(3).with_recording(Recording::StatsOnly);
        let compiler = AutoBraid::new(cfg);
        let outcome =
            compiler.schedule(Strategy::Stack, &circuit, &compiler.config().dag(&circuit));
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 3).unwrap();
        assert!(emit_physical(&outcome.result, &layout).is_err());
    }

    #[test]
    fn swap_layers_emit_three_braids() {
        use crate::metrics::{ScheduleResult, Step, SwapOp};
        use autobraid_lattice::{Cell, Grid, Vertex};
        let grid = Grid::new(3).unwrap();
        let path = autobraid_router::BraidPath::new(
            &grid,
            Cell::new(0, 0),
            Cell::new(0, 2),
            vec![Vertex::new(0, 1), Vertex::new(0, 2)],
        )
        .unwrap();
        let timing = TimingModel::new(CodeParams::with_distance(3).unwrap());
        let mut result = ScheduleResult::new("t", "t", timing);
        result.steps.push(Step::SwapLayer {
            swaps: vec![SwapOp {
                a: 0,
                b: 1,
                path: path.clone(),
            }],
        });
        result.total_cycles = 3 * timing.braid_step_cycles();
        let layout = PhysicalLayout::new(3, 3).unwrap();
        let program = emit_physical(&result, &layout).unwrap();
        let single = autobraid_router::lowering::lower_braid(&layout, &path);
        assert_eq!(program.instruction_count(), 3 * single.instructions().len());
    }
}
