//! Peephole circuit transformations.
//!
//! Simple, always-safe rewrites applied before scheduling: adjacent
//! inverse pairs cancel, consecutive Z-rotations on one qubit merge, and
//! near-zero rotations drop. Fewer gates — especially fewer two-qubit
//! gates — mean fewer braiding steps; every rewrite here is verified
//! against the state-vector simulator in the test suite.

use crate::circuit::Circuit;
use crate::gate::{Gate, SingleKind, TwoKind};

/// Whether two adjacent gates cancel to the identity.
fn are_inverse(a: &Gate, b: &Gate) -> bool {
    match (a, b) {
        (
            Gate::Single {
                kind: k1,
                qubit: q1,
            },
            Gate::Single {
                kind: k2,
                qubit: q2,
            },
        ) if q1 == q2 => matches!(
            (k1, k2),
            (SingleKind::X, SingleKind::X)
                | (SingleKind::Y, SingleKind::Y)
                | (SingleKind::Z, SingleKind::Z)
                | (SingleKind::H, SingleKind::H)
                | (SingleKind::S, SingleKind::Sdg)
                | (SingleKind::Sdg, SingleKind::S)
                | (SingleKind::T, SingleKind::Tdg)
                | (SingleKind::Tdg, SingleKind::T)
        ),
        (
            Gate::Two {
                kind: k1,
                control: c1,
                target: t1,
            },
            Gate::Two {
                kind: k2,
                control: c2,
                target: t2,
            },
        ) => match (k1, k2) {
            (TwoKind::Cx, TwoKind::Cx) => c1 == c2 && t1 == t2,
            // CZ is symmetric in its operands.
            (TwoKind::Cz, TwoKind::Cz) => (c1 == c2 && t1 == t2) || (c1 == t2 && t1 == c2),
            _ => false,
        },
        _ => false,
    }
}

/// Merges two adjacent gates into one, when a merged form exists.
fn merged(a: &Gate, b: &Gate) -> Option<Gate> {
    match (a, b) {
        (
            Gate::Single {
                kind: SingleKind::Rz(t1),
                qubit: q1,
            },
            Gate::Single {
                kind: SingleKind::Rz(t2),
                qubit: q2,
            },
        ) if q1 == q2 => Some(Gate::single(SingleKind::Rz(t1 + t2), *q1)),
        (
            Gate::Single {
                kind: SingleKind::Rx(t1),
                qubit: q1,
            },
            Gate::Single {
                kind: SingleKind::Rx(t2),
                qubit: q2,
            },
        ) if q1 == q2 => Some(Gate::single(SingleKind::Rx(t1 + t2), *q1)),
        (
            Gate::Single {
                kind: SingleKind::Ry(t1),
                qubit: q1,
            },
            Gate::Single {
                kind: SingleKind::Ry(t2),
                qubit: q2,
            },
        ) if q1 == q2 => Some(Gate::single(SingleKind::Ry(t1 + t2), *q1)),
        (
            Gate::Two {
                kind: TwoKind::CPhase(t1),
                control: c1,
                target: t1q,
            },
            Gate::Two {
                kind: TwoKind::CPhase(t2),
                control: c2,
                target: t2q,
            },
        ) if (c1 == c2 && t1q == t2q) || (c1 == t2q && t1q == c2) => {
            Some(Gate::two(TwoKind::CPhase(t1 + t2), *c1, *t1q))
        }
        _ => None,
    }
}

/// Whether a gate is a rotation by (numerically) zero.
fn is_trivial_rotation(gate: &Gate, epsilon: f64) -> bool {
    match *gate {
        Gate::Single {
            kind: SingleKind::Rx(t) | SingleKind::Ry(t) | SingleKind::Rz(t),
            ..
        } => t.abs() < epsilon,
        Gate::Two {
            kind: TwoKind::CPhase(t),
            ..
        } => t.abs() < epsilon,
        _ => false,
    }
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformStats {
    /// Adjacent inverse pairs removed (counts pairs).
    pub cancelled_pairs: usize,
    /// Rotation pairs merged into one gate.
    pub merged_rotations: usize,
    /// Near-zero rotations dropped.
    pub dropped_rotations: usize,
}

impl TransformStats {
    /// Total gates eliminated.
    pub fn gates_removed(&self) -> usize {
        2 * self.cancelled_pairs + self.merged_rotations + self.dropped_rotations
    }
}

/// Applies cancellation, rotation merging, and trivial-rotation removal to
/// a fixpoint (each pass enables the next: merged rotations may become
/// trivial, removals may expose new inverse pairs).
///
/// Adjacency is *per-qubit-pair*: gates cancel/merge when no intervening
/// gate touches any of their qubits. Each qubit keeps a doubly linked
/// list of its live gates in program order, built once; a gate's partner
/// is the nearest of its successors on those lists, and a dropped,
/// cancelled or merged-away gate is unlinked. A pass is therefore linear
/// in the gate count.
///
/// # Panics
///
/// Panics if the circuit holds 2³¹ gates or more.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::{transform::optimize, Circuit};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).cx(0, 1).h(0).rz(0.2, 1).rz(-0.2, 1);
/// let (optimized, stats) = optimize(&c, 1e-12);
/// assert_eq!(optimized.len(), 0);
/// assert!(stats.gates_removed() >= 6);
/// ```
pub fn optimize(circuit: &Circuit, epsilon: f64) -> (Circuit, TransformStats) {
    let mut gates: Vec<Option<Gate>> = circuit.gates().iter().copied().map(Some).collect();
    let mut lists = QubitLists::new(circuit);
    let mut stats = TransformStats::default();
    let mut changed = true;

    while changed {
        changed = false;
        // Drop trivial rotations first (cheap, enables cancellations).
        for (i, slot) in gates.iter_mut().enumerate() {
            if slot
                .as_ref()
                .is_some_and(|g| is_trivial_rotation(g, epsilon))
            {
                *slot = None;
                lists.unlink(i);
                stats.dropped_rotations += 1;
                changed = true;
            }
        }
        // For each live gate, its partner is the next live gate sharing
        // a qubit. The partner is then adjacent to it on every shared
        // qubit, and both rules below fire only when the two gates act
        // on the same qubits.
        for i in 0..gates.len() {
            let Some(g1) = gates[i] else { continue };
            let Some(j) = lists.partner(i) else { continue };
            let g2 = gates[j].expect("linked gates are live");
            if are_inverse(&g1, &g2) {
                gates[i] = None;
                gates[j] = None;
                lists.unlink(i);
                lists.unlink(j);
                stats.cancelled_pairs += 1;
                changed = true;
            } else if let Some(m) = merged(&g1, &g2) {
                // The merged gate keeps g1's operands, so its links stay.
                gates[i] = Some(m);
                gates[j] = None;
                lists.unlink(j);
                stats.merged_rotations += 1;
                changed = true;
            }
        }
    }

    // Freed before the output is built, so the lists add nothing to the
    // pass's peak memory.
    drop(lists);
    let mut out = Circuit::named(circuit.num_qubits(), circuit.name());
    out.extend(gates.into_iter().flatten());
    (out, stats)
}

/// End-of-list marker in [`QubitLists`].
const NIL: u32 = u32::MAX;

/// Per-qubit doubly linked lists of live gates. Node `2 * g + s` is
/// operand slot `s` of gate `g` (a single-qubit gate leaves slot 1
/// unlinked); `next`/`prev` hold the neighbouring node on that
/// operand's qubit, or [`NIL`]. Nodes are `u32` to halve the lists'
/// footprint on the largest circuits.
struct QubitLists {
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl QubitLists {
    fn new(circuit: &Circuit) -> Self {
        let nodes = 2 * circuit.len();
        assert!(nodes < NIL as usize, "circuit too large to optimize");
        let mut lists = QubitLists {
            next: vec![NIL; nodes],
            prev: vec![NIL; nodes],
        };
        let mut last = vec![NIL; circuit.num_qubits() as usize];
        for (g, gate) in circuit.iter() {
            for (s, q) in gate.operands().enumerate() {
                let node = (2 * g + s) as u32;
                let tail = std::mem::replace(&mut last[q as usize], node);
                if tail != NIL {
                    lists.next[tail as usize] = node;
                    lists.prev[node as usize] = tail;
                }
            }
        }
        lists
    }

    /// The first live gate after `g` that shares one of its qubits.
    fn partner(&self, g: usize) -> Option<usize> {
        let node = self.next[2 * g].min(self.next[2 * g + 1]);
        (node != NIL).then_some(node as usize / 2)
    }

    /// Removes gate `g` from its qubits' lists.
    fn unlink(&mut self, g: usize) {
        for node in [2 * g, 2 * g + 1] {
            let (prev, next) = (self.prev[node], self.next[node]);
            if prev != NIL {
                self.next[prev as usize] = next;
            }
            if next != NIL {
                self.prev[next as usize] = prev;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::random_circuit;
    use crate::sim::circuits_equivalent;

    const EPS: f64 = 1e-9;

    #[test]
    fn cancels_inverse_pairs() {
        let mut c = Circuit::new(2);
        c.h(0)
            .h(0)
            .x(1)
            .x(1)
            .s(0)
            .sdg(0)
            .cx(0, 1)
            .cx(0, 1)
            .swap(0, 1)
            .swap(1, 0);
        let (opt, stats) = optimize(&c, 1e-12);
        assert!(opt.is_empty(), "{opt}");
        assert_eq!(stats.cancelled_pairs, 7);
    }

    #[test]
    fn interposers_block_cancellation() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(0); // CX touches qubit 0 between the two H gates
        let (opt, _) = optimize(&c, 1e-12);
        assert_eq!(opt.len(), 3, "nothing may cancel across the CX");
    }

    #[test]
    fn unrelated_gates_between_pairs_are_transparent() {
        let mut c = Circuit::new(3);
        c.h(0).t(2).h(0); // the T on qubit 2 does not obstruct
        let (opt, stats) = optimize(&c, 1e-12);
        assert_eq!(opt.len(), 1);
        assert_eq!(stats.cancelled_pairs, 1);
    }

    #[test]
    fn merges_and_drops_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0.5, 0)
            .rz(-0.5, 0)
            .rx(0.25, 1)
            .rx(0.25, 1)
            .cphase(0.3, 0, 1)
            .cphase(-0.3, 1, 0);
        let (opt, stats) = optimize(&c, 1e-9);
        // rz pair merges to rz(0) → dropped; cp pair merges to cp(0) →
        // dropped; rx pair merges to rx(0.5) → kept.
        assert_eq!(opt.len(), 1);
        assert!(stats.merged_rotations >= 3);
        assert!(stats.dropped_rotations >= 2);
    }

    #[test]
    fn cx_direction_matters() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        let (opt, _) = optimize(&c, 1e-12);
        assert_eq!(opt.len(), 2, "reversed CX is not an inverse");
    }

    #[test]
    fn optimization_preserves_semantics_on_random_circuits() {
        for seed in 0..8 {
            let c = random_circuit(5, 80, 0.4, seed).unwrap();
            let (opt, _) = optimize(&c, 1e-12);
            assert!(
                circuits_equivalent(&c, &opt, EPS),
                "seed {seed}: transform changed the unitary"
            );
            assert!(opt.len() <= c.len());
        }
    }

    #[test]
    fn optimization_preserves_rotation_heavy_circuits() {
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(77);
        for _ in 0..5 {
            let mut c = Circuit::new(4);
            for _ in 0..60 {
                match rng.gen_range(0..4u32) {
                    0 => {
                        c.rz(rng.gen_range(-1.0..1.0), rng.gen_range(0..4u32));
                    }
                    1 => {
                        c.cphase(rng.gen_range(-1.0..1.0), 0, rng.gen_range(1..4u32));
                    }
                    2 => {
                        c.h(rng.gen_range(0..4u32));
                    }
                    _ => {
                        let a = rng.gen_range(0..4u32);
                        c.cx(a, (a + 1) % 4);
                    }
                }
            }
            let (opt, _) = optimize(&c, 1e-12);
            assert!(circuits_equivalent(&c, &opt, EPS));
        }
    }

    #[test]
    fn fixpoint_cascades() {
        // Removing the inner pair exposes the outer pair.
        let mut c = Circuit::new(1);
        c.h(0).x(0).x(0).h(0);
        let (opt, stats) = optimize(&c, 1e-12);
        assert!(opt.is_empty());
        assert_eq!(stats.cancelled_pairs, 2);
    }

    #[test]
    fn shrinks_real_benchmarks_without_changing_them() {
        let c = crate::generators::revlib::build("4gt5_75").unwrap();
        let (opt, _) = optimize(&c, 1e-12);
        assert!(circuits_equivalent(&c, &opt, EPS));
        assert!(opt.len() <= c.len());
    }

    /// The quadratic forward scan `optimize` replaced, kept as its
    /// reference: for each live gate, walk forward to the first live
    /// gate touching any of its qubits, check that no gate in between
    /// touches a shared qubit and that both act on the same qubits, then
    /// try the rules.
    fn optimize_by_scan(circuit: &Circuit, epsilon: f64) -> (Circuit, TransformStats) {
        let mut gates: Vec<Option<Gate>> = circuit.gates().iter().copied().map(Some).collect();
        let mut stats = TransformStats::default();
        let mut changed = true;
        while changed {
            changed = false;
            for slot in gates.iter_mut() {
                if slot
                    .as_ref()
                    .is_some_and(|g| is_trivial_rotation(g, epsilon))
                {
                    *slot = None;
                    stats.dropped_rotations += 1;
                    changed = true;
                }
            }
            for i in 0..gates.len() {
                let Some(g1) = gates[i] else { continue };
                let Some(j) = ((i + 1)..gates.len()).find(|&j| {
                    gates[j].is_some_and(|g2| g1.qubits().iter().any(|&q| g2.acts_on(q)))
                }) else {
                    continue;
                };
                let g2 = gates[j].unwrap();
                let unobstructed = g2.qubits().iter().all(|&q| {
                    !g1.acts_on(q) || ((i + 1)..j).all(|k| gates[k].is_none_or(|g| !g.acts_on(q)))
                });
                let same_qubits = {
                    let mut q1 = g1.qubits();
                    let mut q2 = g2.qubits();
                    q1.sort_unstable();
                    q2.sort_unstable();
                    q1 == q2
                };
                if !unobstructed || !same_qubits {
                    continue;
                }
                if are_inverse(&g1, &g2) {
                    gates[i] = None;
                    gates[j] = None;
                    stats.cancelled_pairs += 1;
                    changed = true;
                } else if let Some(m) = merged(&g1, &g2) {
                    gates[i] = Some(m);
                    gates[j] = None;
                    stats.merged_rotations += 1;
                    changed = true;
                }
            }
        }
        let mut out = Circuit::named(circuit.num_qubits(), circuit.name());
        out.extend(gates.into_iter().flatten());
        (out, stats)
    }

    /// Asserts `optimize` and the reference scan agree gate for gate
    /// (angles compared bit for bit through `Debug`) and in their stats.
    fn assert_matches_scan(c: &Circuit) {
        let (fast, fast_stats) = optimize(c, 1e-12);
        let (slow, slow_stats) = optimize_by_scan(c, 1e-12);
        assert_eq!(fast_stats, slow_stats, "{}", c.name());
        assert_eq!(
            format!("{:?}", fast.gates()),
            format!("{:?}", slow.gates()),
            "{}",
            c.name()
        );
    }

    /// The inverse of every gate `mixed_circuit` draws.
    fn inverse(gate: &Gate) -> Gate {
        match *gate {
            Gate::Single { kind, qubit } => Gate::single(
                match kind {
                    SingleKind::S => SingleKind::Sdg,
                    SingleKind::T => SingleKind::Tdg,
                    SingleKind::Rx(t) => SingleKind::Rx(-t),
                    SingleKind::Ry(t) => SingleKind::Ry(-t),
                    SingleKind::Rz(t) => SingleKind::Rz(-t),
                    other => other,
                },
                qubit,
            ),
            Gate::Two {
                kind: TwoKind::CPhase(t),
                control,
                target,
            } => Gate::two(TwoKind::CPhase(-t), control, target),
            other => other,
        }
    }

    /// A seeded circuit on `n` qubits mixing SWAP, CZ, CPhase, CX,
    /// Rx/Ry/Rz, H, S, T and X; about half of its short blocks are
    /// followed by their inverse in reverse order, so cancellations and
    /// merges cascade across passes.
    fn mixed_circuit(n: u32, len: usize, seed: u64) -> Circuit {
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(seed);
        let angles = [0.25, -0.25, 0.5, -0.5, 0.1, 1e-13];
        let mut c = Circuit::named(n, format!("mixed-{seed}"));
        while c.len() < len {
            let mut block: Vec<Gate> = Vec::new();
            for _ in 0..rng.gen_range(1..6usize) {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                let t = angles[rng.gen_range(0..angles.len())];
                let gate = match rng.gen_range(0..11u32) {
                    0 => {
                        block.extend(crate::decompose::swap(a, b));
                        continue;
                    }
                    1 => Gate::two(TwoKind::Cz, a, b),
                    2 => Gate::two(TwoKind::CPhase(t), a, b),
                    3 => Gate::cx(a, b),
                    4 => Gate::single(SingleKind::Rx(t), a),
                    5 => Gate::single(SingleKind::Ry(t), a),
                    6 => Gate::single(SingleKind::Rz(t), a),
                    7 => Gate::single(SingleKind::H, a),
                    8 => Gate::single(SingleKind::S, a),
                    9 => Gate::single(SingleKind::T, a),
                    _ => Gate::single(SingleKind::X, a),
                };
                block.push(gate);
            }
            let inverted = rng.gen_bool(0.5);
            for gate in &block {
                c.push(*gate);
            }
            if inverted {
                for gate in block.iter().rev() {
                    c.push(inverse(gate));
                }
            }
        }
        c
    }

    #[test]
    fn linked_lists_match_the_quadratic_scan_on_random_circuits() {
        let mut total = TransformStats::default();
        for seed in 0..200 {
            let n = 2 + (seed % 5) as u32;
            let c = mixed_circuit(n, 40 + 2 * seed as usize, seed);
            assert_matches_scan(&c);
            let stats = optimize(&c, 1e-12).1;
            total.cancelled_pairs += stats.cancelled_pairs;
            total.merged_rotations += stats.merged_rotations;
            total.dropped_rotations += stats.dropped_rotations;
        }
        assert!(
            total.cancelled_pairs > 0 && total.merged_rotations > 0 && total.dropped_rotations > 0,
            "every rule must fire: {total:?}"
        );
    }

    #[test]
    fn linked_lists_match_the_quadratic_scan_on_generators() {
        use crate::generators::{ising::ising, qaoa::qaoa, revlib};
        for c in [
            revlib::build("urf2_277").unwrap(),
            ising(64, 2).unwrap(),
            qaoa(40, 4, 3, 2021).unwrap(),
            Circuit::new(3),
        ] {
            assert_matches_scan(&c);
        }
    }
}
