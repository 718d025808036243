//! Decompositions of composite gates into the braided gate set.

use crate::circuit::Circuit;
use crate::gate::{Gate, QubitId};

/// A SWAP as the three chained CX braids that implement it (paper
/// Fig. 11). The operands are ordered first, so `swap(a, b)` and
/// `swap(b, a)` lower to the same gates and an adjacent pair cancels.
///
/// # Panics
///
/// Panics if `a == b`.
pub fn swap(a: QubitId, b: QubitId) -> [Gate; 3] {
    let (lo, hi) = (a.min(b), a.max(b));
    [Gate::cx(lo, hi), Gate::cx(hi, lo), Gate::cx(lo, hi)]
}

/// Appends the standard Clifford+T Toffoli decomposition (6 CX, 7 T/T†,
/// 2 H) to `circuit`.
///
/// This is the textbook network used when lowering reversible (MCT)
/// netlists such as the RevLib building-block benchmarks.
///
/// # Panics
///
/// Panics if the three operands are not pairwise distinct or out of range.
pub fn ccx_into(circuit: &mut Circuit, c0: QubitId, c1: QubitId, target: QubitId) {
    assert!(
        c0 != c1 && c0 != target && c1 != target,
        "ccx operands must be distinct"
    );
    circuit
        .h(target)
        .cx(c1, target)
        .tdg(target)
        .cx(c0, target)
        .t(target)
        .cx(c1, target)
        .tdg(target)
        .cx(c0, target)
        .t(c1)
        .t(target)
        .h(target)
        .cx(c0, c1)
        .t(c0)
        .tdg(c1)
        .cx(c0, c1);
}

/// Appends a multi-controlled X with `controls.len()` controls using a
/// linear chain of Toffolis over the supplied ancilla qubits.
///
/// Requires `ancillas.len() >= controls.len().saturating_sub(2)`. With zero
/// or one control this degenerates to X or CX.
///
/// # Panics
///
/// Panics if too few ancillas are supplied or operands overlap.
pub fn mcx_into(
    circuit: &mut Circuit,
    controls: &[QubitId],
    ancillas: &[QubitId],
    target: QubitId,
) {
    match controls {
        [] => {
            circuit.x(target);
        }
        [c] => {
            circuit.cx(*c, target);
        }
        [c0, c1] => {
            ccx_into(circuit, *c0, *c1, target);
        }
        _ => {
            let needed = controls.len() - 2;
            assert!(
                ancillas.len() >= needed,
                "mcx with {} controls needs {} ancillas, got {}",
                controls.len(),
                needed,
                ancillas.len()
            );
            // Compute the AND-chain into ancillas, apply, then uncompute.
            ccx_into(circuit, controls[0], controls[1], ancillas[0]);
            for i in 2..controls.len() - 1 {
                ccx_into(circuit, controls[i], ancillas[i - 2], ancillas[i - 1]);
            }
            ccx_into(
                circuit,
                *controls.last().expect("nonempty"),
                ancillas[needed - 1],
                target,
            );
            for i in (2..controls.len() - 1).rev() {
                ccx_into(circuit, controls[i], ancillas[i - 2], ancillas[i - 1]);
            }
            ccx_into(circuit, controls[0], controls[1], ancillas[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccx_gate_budget() {
        let mut c = Circuit::new(3);
        ccx_into(&mut c, 0, 1, 2);
        assert_eq!(c.two_qubit_count(), 6);
        assert_eq!(c.len(), 15);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn ccx_rejects_duplicates() {
        let mut c = Circuit::new(3);
        ccx_into(&mut c, 0, 0, 2);
    }

    #[test]
    fn mcx_degenerate_cases() {
        let mut c = Circuit::new(4);
        mcx_into(&mut c, &[], &[], 3);
        assert_eq!(*c.gate(0), Gate::single(crate::gate::SingleKind::X, 3));
        mcx_into(&mut c, &[1], &[], 3);
        assert_eq!(*c.gate(1), Gate::cx(1, 3));
    }

    #[test]
    fn mcx_three_controls_uses_ancilla() {
        let mut c = Circuit::new(5);
        mcx_into(&mut c, &[0, 1, 2], &[3], 4);
        // 3 Toffolis: compute, apply; plus 1 uncompute = 3 total here
        // (chain of length 1): ccx(0,1,a) ccx(2,a,t) ccx(0,1,a).
        assert_eq!(c.two_qubit_count(), 18);
    }

    #[test]
    fn mcx_four_controls() {
        let mut c = Circuit::new(7);
        mcx_into(&mut c, &[0, 1, 2, 3], &[4, 5], 6);
        // 5 Toffolis (2 compute + 1 apply + 2 uncompute) × 6 CX each.
        assert_eq!(c.two_qubit_count(), 30);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn mcx_requires_ancillas() {
        let mut c = Circuit::new(5);
        mcx_into(&mut c, &[0, 1, 2, 3], &[], 4);
    }

    #[test]
    fn swap_is_three_cx_in_operand_order() {
        assert_eq!(swap(3, 1), [Gate::cx(1, 3), Gate::cx(3, 1), Gate::cx(1, 3)]);
        assert_eq!(swap(1, 3), swap(3, 1));
    }
}
