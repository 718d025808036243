//! The ideal "CP" lower bound used throughout the paper's evaluation.

use autobraid_circuit::{Circuit, DependenceDag, Gate};
use autobraid_lattice::TimingModel;

/// Latency in surface-code cycles of one gate under `timing`: local gates
/// take `d` cycles and braided gates `2d`. Every engine charges these
/// weights per gate; they also set the engines' routing priority and
/// the reported quality ratio.
pub fn gate_cycles(gate: &Gate, timing: &TimingModel) -> u64 {
    match gate {
        Gate::Single { .. } => timing.local_step_cycles(),
        Gate::Two { .. } => timing.braid_step_cycles(),
    }
}

/// Critical-path execution time in cycles: the dependence-weighted longest
/// chain, ignoring all routing constraints ("the ideal execution time",
/// paper Fig. 16).
///
/// # Examples
///
/// ```
/// use autobraid::critical_path::critical_path_cycles;
/// use autobraid_circuit::Circuit;
/// use autobraid_lattice::TimingModel;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let timing = TimingModel::default(); // d = 33
/// assert_eq!(critical_path_cycles(&c, &timing), 33 + 66);
/// ```
pub fn critical_path_cycles(circuit: &Circuit, timing: &TimingModel) -> u64 {
    let dag = DependenceDag::new(circuit);
    dag.critical_path_weight(circuit, |g| gate_cycles(g, timing))
}

/// Critical-path execution time in microseconds.
pub fn critical_path_us(circuit: &Circuit, timing: &TimingModel) -> f64 {
    timing.cycles_to_us(critical_path_cycles(circuit, timing))
}

/// Critical path under the commutation-relaxed dependence DAG — the lower
/// bound matching schedules produced with
/// [`crate::config::ScheduleConfig::commutation_aware`].
pub fn critical_path_cycles_relaxed(circuit: &Circuit, timing: &TimingModel) -> u64 {
    let dag = DependenceDag::with_commutation(circuit);
    dag.critical_path_weight(circuit, |g| gate_cycles(g, timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_circuit::generators::{bv::bv_all_ones, ising::ising};

    #[test]
    fn bv_critical_path_is_the_cx_chain() {
        let timing = TimingModel::default();
        let c = bv_all_ones(50).unwrap();
        // Chain: x(anc), h(anc), 49 CX, then one trailing h on a data qubit.
        let expected = 33 + 33 + 49 * 66 + 33;
        assert_eq!(critical_path_cycles(&c, &timing), expected);
    }

    #[test]
    fn ising_cp_independent_of_width() {
        let timing = TimingModel::default();
        let a = critical_path_cycles(&ising(100, 2).unwrap(), &timing);
        let b = critical_path_cycles(&ising(400, 2).unwrap(), &timing);
        assert_eq!(a, b);
    }

    #[test]
    fn swap_weighs_three_braids() {
        let timing = TimingModel::default();
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert_eq!(critical_path_cycles(&c, &timing), 3 * 66);
    }

    #[test]
    fn empty_circuit_is_zero() {
        assert_eq!(
            critical_path_cycles(&Circuit::new(4), &TimingModel::default()),
            0
        );
    }
}
