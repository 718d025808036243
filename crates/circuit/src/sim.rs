//! A small dense state-vector simulator.
//!
//! Not part of the scheduling pipeline — schedulers never simulate — but
//! the test suite uses it to prove *semantic* properties that structural
//! checks cannot: gate decompositions ([`crate::decompose`]) implement
//! the right unitaries, circuit transforms preserve meaning, and QASM
//! round-trips are equivalences, all up to global phase. Practical to
//! ~20 qubits.

use crate::circuit::Circuit;
use crate::gate::{Gate, SingleKind, TwoKind};
use std::f64::consts::FRAC_1_SQRT_2;

/// A complex amplitude.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates `re + im·i`.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn phase(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

/// A dense `2^n`-amplitude quantum state.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::{sim::StateVector, Circuit};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let state = StateVector::run(&bell);
/// let probs = state.probabilities();
/// assert!((probs[0b00] - 0.5).abs() < 1e-12);
/// assert!((probs[0b11] - 0.5).abs() < 1e-12);
/// assert!(probs[0b01].abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    amplitudes: Vec<Complex>,
    num_qubits: u32,
}

impl StateVector {
    /// Practical qubit limit (2^24 amplitudes ≈ 256 MiB).
    pub const MAX_QUBITS: u32 = 24;

    /// The all-zeros computational basis state.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds [`StateVector::MAX_QUBITS`].
    pub fn zero(num_qubits: u32) -> Self {
        assert!(
            num_qubits <= Self::MAX_QUBITS,
            "{num_qubits} qubits exceed the dense-simulation limit"
        );
        let mut amplitudes = vec![Complex::ZERO; 1usize << num_qubits];
        amplitudes[0] = Complex::ONE;
        StateVector {
            amplitudes,
            num_qubits,
        }
    }

    /// Runs `circuit` on |0…0⟩ (measurements are ignored — the state stays
    /// pure).
    pub fn run(circuit: &Circuit) -> Self {
        let mut state = StateVector::zero(circuit.num_qubits());
        state.apply_circuit(circuit);
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The raw amplitudes (basis index bit `q` = qubit `q`).
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Applies every gate of `circuit` in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit wider than the state"
        );
        for gate in circuit.gates() {
            self.apply(gate);
        }
    }

    /// Applies one gate. Measurement gates are treated as identity (the
    /// simulator tracks the pre-measurement state).
    pub fn apply(&mut self, gate: &Gate) {
        match *gate {
            Gate::Single { kind, qubit } => self.apply_single(kind, qubit),
            Gate::Two {
                kind,
                control,
                target,
            } => self.apply_two(kind, control, target),
        }
    }

    fn apply_single(&mut self, kind: SingleKind, qubit: u32) {
        let h = Complex::new(FRAC_1_SQRT_2, 0.0);
        let i = Complex::new(0.0, 1.0);
        let ni = Complex::new(0.0, -1.0);
        // Matrix [[a, b], [c, d]] acting on the qubit subspace.
        let (a, b, c, d) = match kind {
            SingleKind::X => (Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO),
            SingleKind::Y => (Complex::ZERO, ni, i, Complex::ZERO),
            SingleKind::Z => (
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::new(-1.0, 0.0),
            ),
            SingleKind::H => (h, h, h, Complex::new(-FRAC_1_SQRT_2, 0.0)),
            SingleKind::S => (Complex::ONE, Complex::ZERO, Complex::ZERO, i),
            SingleKind::Sdg => (Complex::ONE, Complex::ZERO, Complex::ZERO, ni),
            SingleKind::T => (
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::phase(std::f64::consts::FRAC_PI_4),
            ),
            SingleKind::Tdg => (
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::phase(-std::f64::consts::FRAC_PI_4),
            ),
            SingleKind::Rz(t) => (
                Complex::phase(-t / 2.0),
                Complex::ZERO,
                Complex::ZERO,
                Complex::phase(t / 2.0),
            ),
            SingleKind::Rx(t) => {
                let (cos, sin) = ((t / 2.0).cos(), (t / 2.0).sin());
                (
                    Complex::new(cos, 0.0),
                    Complex::new(0.0, -sin),
                    Complex::new(0.0, -sin),
                    Complex::new(cos, 0.0),
                )
            }
            SingleKind::Ry(t) => {
                let (cos, sin) = ((t / 2.0).cos(), (t / 2.0).sin());
                (
                    Complex::new(cos, 0.0),
                    Complex::new(-sin, 0.0),
                    Complex::new(sin, 0.0),
                    Complex::new(cos, 0.0),
                )
            }
            SingleKind::Measure => return, // identity on the pure state
        };
        let mask = 1usize << qubit;
        for idx in 0..self.amplitudes.len() {
            if idx & mask == 0 {
                let lo = self.amplitudes[idx];
                let hi = self.amplitudes[idx | mask];
                self.amplitudes[idx] = a * lo + b * hi;
                self.amplitudes[idx | mask] = c * lo + d * hi;
            }
        }
    }

    fn apply_two(&mut self, kind: TwoKind, control: u32, target: u32) {
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        match kind {
            TwoKind::Cx => {
                for idx in 0..self.amplitudes.len() {
                    if idx & cmask != 0 && idx & tmask == 0 {
                        self.amplitudes.swap(idx, idx | tmask);
                    }
                }
            }
            TwoKind::Cz => {
                for (idx, amp) in self.amplitudes.iter_mut().enumerate() {
                    if idx & cmask != 0 && idx & tmask != 0 {
                        *amp = *amp * Complex::new(-1.0, 0.0);
                    }
                }
            }
            TwoKind::CPhase(t) => {
                let phase = Complex::phase(t);
                for (idx, amp) in self.amplitudes.iter_mut().enumerate() {
                    if idx & cmask != 0 && idx & tmask != 0 {
                        *amp = *amp * phase;
                    }
                }
            }
        }
    }

    /// Measurement probabilities of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Whether two states are equal up to global phase (fidelity
    /// `|⟨a|b⟩|² ≈ 1`).
    pub fn approx_eq_up_to_phase(&self, other: &StateVector, tolerance: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let mut inner = Complex::ZERO;
        for (a, b) in self.amplitudes.iter().zip(&other.amplitudes) {
            inner = inner + a.conj() * *b;
        }
        (inner.norm_sqr() - 1.0).abs() < tolerance
    }

    /// Total probability (should always be ≈ 1; checked in tests).
    pub fn norm(&self) -> f64 {
        self.probabilities().iter().sum()
    }
}

/// Runs two circuits over the same register width and checks equivalence
/// up to global phase.
pub fn circuits_equivalent(a: &Circuit, b: &Circuit, tolerance: f64) -> bool {
    let width = a.num_qubits().max(b.num_qubits());
    let mut sa = StateVector::zero(width);
    sa.apply_circuit(a);
    let mut sb = StateVector::zero(width);
    sb.apply_circuit(b);
    sa.approx_eq_up_to_phase(&sb, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;

    const EPS: f64 = 1e-9;

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = StateVector::run(&c);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < EPS);
        assert!((p[3] - 0.5).abs() < EPS);
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn x_flips_and_h_squares_to_identity() {
        let mut c = Circuit::new(1);
        c.x(0);
        assert!((StateVector::run(&c).probabilities()[1] - 1.0).abs() < EPS);
        let mut hh = Circuit::new(1);
        hh.h(0).h(0);
        assert!(circuits_equivalent(&hh, &Circuit::new(1), EPS));
    }

    #[test]
    fn pauli_algebra() {
        // HZH = X, S² = Z, T² = S.
        let mut hzh = Circuit::new(1);
        hzh.h(0).z(0).h(0);
        let mut x = Circuit::new(1);
        x.x(0);
        assert!(circuits_equivalent(&hzh, &x, EPS));

        let mut ss = Circuit::new(1);
        ss.s(0).s(0);
        let mut z = Circuit::new(1);
        z.z(0);
        assert!(circuits_equivalent(&ss, &z, EPS));

        let mut tt = Circuit::new(1);
        tt.t(0).t(0);
        let mut s = Circuit::new(1);
        s.s(0);
        assert!(circuits_equivalent(&tt, &s, EPS));
    }

    #[test]
    fn inverses_cancel() {
        let mut c = Circuit::new(1);
        c.s(0)
            .sdg(0)
            .t(0)
            .tdg(0)
            .rx(0.7, 0)
            .rx(-0.7, 0)
            .rz(1.1, 0)
            .rz(-1.1, 0);
        assert!(circuits_equivalent(&c, &Circuit::new(1), EPS));
    }

    #[test]
    fn cz_symmetric_and_cphase_pi_is_cz() {
        let mut ab = Circuit::new(2);
        ab.h(0).h(1).cz(0, 1);
        let mut ba = Circuit::new(2);
        ba.h(0).h(1).cz(1, 0);
        assert!(circuits_equivalent(&ab, &ba, EPS));
        let mut cp = Circuit::new(2);
        cp.h(0).h(1).cphase(std::f64::consts::PI, 0, 1);
        assert!(circuits_equivalent(&ab, &cp, EPS));
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut swapped = Circuit::new(3);
        swapped.h(0).t(1).cx(0, 2).swap(0, 1);
        let mut relabeled = Circuit::new(3);
        relabeled.h(1).t(0).cx(1, 2);
        assert!(circuits_equivalent(&swapped, &relabeled, EPS));
    }

    #[test]
    fn ccx_decomposition_is_a_toffoli() {
        // Check on all 8 basis states via preparation circuits.
        for input in 0u32..8 {
            let mut c = Circuit::new(3);
            for q in 0..3 {
                if input & (1 << q) != 0 {
                    c.x(q);
                }
            }
            c.ccx(0, 1, 2);
            let s = StateVector::run(&c);
            let expected = if input & 0b011 == 0b011 {
                input ^ 0b100
            } else {
                input
            };
            let p = s.probabilities();
            assert!(
                (p[expected as usize] - 1.0).abs() < EPS,
                "input {input:03b}: probabilities {p:?}"
            );
        }
    }

    #[test]
    fn mcx_matches_truth_table() {
        // Qubit 3 is the ancilla and must start (and end) in |0⟩.
        for input in 0u32..8 {
            let mut c = Circuit::new(5);
            for q in 0..3 {
                if input & (1 << q) != 0 {
                    c.x(q);
                }
            }
            decompose::mcx_into(&mut c, &[0, 1, 2], &[3], 4);
            let s = StateVector::run(&c);
            let controls_on = input == 0b111;
            let expected = u32::from(controls_on) << 4 | input;
            let p = s.probabilities();
            assert!(
                (p[expected as usize] - 1.0).abs() < EPS,
                "input {input:03b}: wrong output (ancilla not restored?)"
            );
        }
    }

    #[test]
    fn commuting_gates_reorder_safely() {
        use crate::commutation::commutes;
        use crate::gate::Gate;
        // For a sample of commuting pairs, both orders give the same state
        // from a generic input.
        let pairs = [
            (Gate::cx(0, 1), Gate::cx(0, 2)),
            (Gate::cx(1, 0), Gate::cx(2, 0)),
            (
                Gate::two(TwoKind::CPhase(0.4), 0, 1),
                Gate::two(TwoKind::CPhase(0.9), 1, 2),
            ),
            (Gate::single(SingleKind::T, 1), Gate::two(TwoKind::Cz, 1, 2)),
        ];
        for (g1, g2) in pairs {
            assert!(commutes(&g1, &g2));
            let mut ab = Circuit::new(3);
            ab.h(0).h(1).h(2).t(0);
            ab.push(g1).push(g2);
            let mut ba = Circuit::new(3);
            ba.h(0).h(1).h(2).t(0);
            ba.push(g2).push(g1);
            assert!(circuits_equivalent(&ab, &ba, EPS), "{g1} vs {g2}");
        }
    }

    #[test]
    fn norm_preserved_by_random_circuits() {
        use crate::generators::random::random_circuit;
        for seed in 0..5 {
            let c = random_circuit(6, 120, 0.5, seed).unwrap();
            let s = StateVector::run(&c);
            assert!((s.norm() - 1.0).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed the dense-simulation limit")]
    fn rejects_huge_registers() {
        let _ = StateVector::zero(30);
    }
}
