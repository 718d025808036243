//! Gate commutation rules for relaxed dependence analysis.
//!
//! The paper's "theoretically concurrent" CX gates come from the plain
//! shared-qubit dependence DAG. A standard compiler refinement (and a
//! natural extension of AutoBraid's parallelism analysis) notices that
//! many gate pairs *commute* even on shared qubits — all diagonal (Z-type)
//! operations commute with each other, as do X-type operations — which
//! widens every layer. In the QFT all controlled-phase gates mutually
//! commute, roughly halving the dependence depth.
//!
//! [`crate::dag::DependenceDag::with_commutation`] builds the relaxed DAG
//! from these rules; the core crate exposes it as an opt-in scheduling
//! mode and an ablation benchmark.

use crate::gate::{Gate, QubitId, SingleKind, TwoKind};

/// How a gate acts on one of its qubits, for commutation purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Diagonal in the computational basis (Z, S, T, Rz, CZ/CP on either
    /// qubit, CX on its control).
    Z,
    /// X-type (X, Rx, CX on its target).
    X,
    /// Anything else (H, Y, Ry, SWAP, measurement): assume non-commuting.
    Other,
}

/// The action basis of `gate` on qubit `q`.
///
/// # Panics
///
/// Panics if `gate` does not act on `q`.
pub fn basis_on(gate: &Gate, q: QubitId) -> Basis {
    assert!(gate.acts_on(q), "{gate} does not act on qubit {q}");
    match *gate {
        Gate::Single { kind, .. } => match kind {
            SingleKind::Z
            | SingleKind::S
            | SingleKind::Sdg
            | SingleKind::T
            | SingleKind::Tdg
            | SingleKind::Rz(_) => Basis::Z,
            SingleKind::X | SingleKind::Rx(_) => Basis::X,
            SingleKind::Y | SingleKind::Ry(_) | SingleKind::H | SingleKind::Measure => Basis::Other,
        },
        Gate::Two { kind, control, .. } => match kind {
            TwoKind::Cz | TwoKind::CPhase(_) => Basis::Z,
            TwoKind::Cx => {
                if q == control {
                    Basis::Z
                } else {
                    Basis::X
                }
            }
        },
    }
}

/// Whether two gates commute, assuming they share at least one qubit:
/// they must act in the *same* non-`Other` basis on every shared qubit.
/// (Gates with no shared qubit trivially commute; callers in the DAG
/// builder only ask about sharing pairs.)
///
/// # Examples
///
/// ```
/// use autobraid_circuit::commutation::commutes;
/// use autobraid_circuit::Gate;
///
/// // Two CX gates sharing their control commute…
/// assert!(commutes(&Gate::cx(0, 1), &Gate::cx(0, 2)));
/// // …and sharing their target commutes too…
/// assert!(commutes(&Gate::cx(1, 0), &Gate::cx(2, 0)));
/// // …but control-meets-target does not.
/// assert!(!commutes(&Gate::cx(0, 1), &Gate::cx(1, 2)));
/// ```
pub fn commutes(g1: &Gate, g2: &Gate) -> bool {
    for q in g1.operands() {
        if !g2.acts_on(q) {
            continue;
        }
        match (basis_on(g1, q), basis_on(g2, q)) {
            (Basis::Z, Basis::Z) | (Basis::X, Basis::X) => {}
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_gates_commute() {
        let cp1 = Gate::two(TwoKind::CPhase(0.3), 0, 1);
        let cp2 = Gate::two(TwoKind::CPhase(0.7), 1, 2);
        assert!(commutes(&cp1, &cp2));
        let cz = Gate::two(TwoKind::Cz, 0, 2);
        assert!(commutes(&cp1, &cz));
        let t = Gate::single(SingleKind::T, 1);
        assert!(commutes(&cp1, &t));
        let rz = Gate::single(SingleKind::Rz(0.1), 0);
        assert!(commutes(&cz, &rz));
    }

    #[test]
    fn cx_commutation_cases() {
        assert!(commutes(&Gate::cx(0, 1), &Gate::cx(0, 2)), "shared control");
        assert!(commutes(&Gate::cx(1, 0), &Gate::cx(2, 0)), "shared target");
        assert!(
            !commutes(&Gate::cx(0, 1), &Gate::cx(1, 2)),
            "control meets target"
        );
        assert!(
            !commutes(&Gate::cx(0, 1), &Gate::cx(1, 0)),
            "both roles swapped"
        );
        // CX target is X-type: commutes with X there, not with Z there.
        assert!(commutes(&Gate::cx(0, 1), &Gate::single(SingleKind::X, 1)));
        assert!(!commutes(&Gate::cx(0, 1), &Gate::single(SingleKind::T, 1)));
        // CX control is Z-type.
        assert!(commutes(
            &Gate::cx(0, 1),
            &Gate::single(SingleKind::Rz(0.5), 0)
        ));
        assert!(!commutes(&Gate::cx(0, 1), &Gate::single(SingleKind::X, 0)));
    }

    #[test]
    fn hadamard_never_commutes_on_shared() {
        let h = Gate::single(SingleKind::H, 0);
        assert!(!commutes(&h, &Gate::cx(0, 1)));
        assert!(!commutes(&h, &Gate::single(SingleKind::Z, 0)));
        assert!(!commutes(&h, &Gate::single(SingleKind::X, 0)));
    }

    #[test]
    fn measurement_is_a_barrier() {
        let m = Gate::single(SingleKind::Measure, 2);
        assert!(!commutes(&m, &Gate::single(SingleKind::Z, 2)));
        assert!(!commutes(&m, &Gate::cx(2, 3)));
    }

    #[test]
    fn disjoint_gates_trivially_commute() {
        assert!(commutes(&Gate::cx(0, 1), &Gate::cx(2, 3)));
    }

    #[test]
    fn commutation_is_symmetric() {
        let gates = [
            Gate::cx(0, 1),
            Gate::cx(1, 0),
            Gate::cx(0, 2),
            Gate::two(TwoKind::Cz, 0, 1),
            Gate::single(SingleKind::T, 0),
            Gate::single(SingleKind::H, 1),
            Gate::single(SingleKind::X, 1),
        ];
        for a in &gates {
            for b in &gates {
                assert_eq!(commutes(a, b), commutes(b, a), "{a} vs {b}");
            }
        }
    }
}
