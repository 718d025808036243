//! Summary statistics used by reports and the evaluation harness.

use crate::circuit::Circuit;
use crate::layers::ParallelismProfile;
use std::fmt;

/// A one-line summary of a circuit's size and communication structure.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::{generators::qft::qft, stats::CircuitStats};
///
/// let stats = CircuitStats::of(&qft(16)?);
/// assert_eq!(stats.qubits, 16);
/// assert_eq!(stats.gates, 136);
/// assert_eq!(stats.two_qubit_gates, 120);
/// # Ok::<(), autobraid_circuit::error::CircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Benchmark name, if any.
    pub name: String,
    /// Logical qubit count.
    pub qubits: u32,
    /// Total gate count.
    pub gates: usize,
    /// Braided (two-qubit) gate count.
    pub two_qubit_gates: usize,
    /// Dependence-DAG depth in gates.
    pub depth: usize,
    /// Maximum theoretically concurrent CX gates in any ASAP layer.
    pub max_concurrent_cx: usize,
    /// Mean concurrent CX gates per ASAP layer.
    pub mean_concurrent_cx: f64,
}

impl CircuitStats {
    /// Computes all statistics; depth and the concurrency figures come
    /// from one [`ParallelismProfile`], with no DAG built.
    pub fn of(circuit: &Circuit) -> Self {
        let profile = ParallelismProfile::analyze(circuit);
        CircuitStats {
            name: circuit.name().to_string(),
            qubits: circuit.num_qubits(),
            gates: circuit.len(),
            two_qubit_gates: circuit.two_qubit_count(),
            depth: profile.layer_count(),
            max_concurrent_cx: profile.max_concurrent_cx(),
            mean_concurrent_cx: profile.mean_concurrent_cx(),
        }
    }

    /// Fraction of gates requiring braiding.
    pub fn communication_fraction(&self) -> f64 {
        if self.gates == 0 {
            0.0
        } else {
            self.two_qubit_gates as f64 / self.gates as f64
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits, {} gates ({} CX, depth {}, ≤{} concurrent CX)",
            if self.name.is_empty() {
                "circuit"
            } else {
                &self.name
            },
            self.qubits,
            self.gates,
            self.two_qubit_gates,
            self.depth,
            self.max_concurrent_cx
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_simple_circuit() {
        let mut c = Circuit::named(4, "demo");
        c.h(0).cx(0, 1).cx(2, 3);
        let s = CircuitStats::of(&c);
        assert_eq!(s.qubits, 4);
        assert_eq!(s.gates, 3);
        assert_eq!(s.two_qubit_gates, 2);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_concurrent_cx, 1);
        assert!((s.communication_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.to_string().contains("demo"));
    }

    #[test]
    fn empty_circuit_stats() {
        let s = CircuitStats::of(&Circuit::new(2));
        assert_eq!(s.depth, 0);
        assert_eq!(s.communication_fraction(), 0.0);
    }

    /// The one-pass statistics and profile against the levels of the
    /// dependence DAG they no longer build.
    #[test]
    fn one_pass_statistics_match_the_dag_levels() {
        use crate::dag::DependenceDag;
        use crate::generators::{self, random, revlib};

        let mut circuits = vec![Circuit::new(3)];
        for (kind, n) in [
            ("qft", 24),
            ("qpe", 8),
            ("adder", 6),
            ("bv", 40),
            ("cc", 40),
            ("im", 10),
            ("im", 64),
            ("qaoa", 20),
            ("bwt", 31),
        ] {
            circuits.push(generators::by_name(kind, n).unwrap());
        }
        circuits.extend(
            revlib::NAMES
                .iter()
                .map(|name| revlib::build(name).unwrap()),
        );
        circuits.push(random::random_circuit(12, 300, 0.5, 3).unwrap());
        circuits.push(random::layered_cx(16, 6, 0.4, 5).unwrap());

        for c in &circuits {
            let levels = DependenceDag::new(c).asap_levels();
            let depth = levels.iter().max().map_or(0, |d| d + 1);
            let mut layers: Vec<Vec<usize>> = vec![Vec::new(); depth];
            let mut cx_per_layer = vec![0usize; depth];
            for (g, &level) in levels.iter().enumerate() {
                layers[level].push(g);
                cx_per_layer[level] += usize::from(c.gate(g).is_two_qubit());
            }
            let profile = ParallelismProfile::analyze(c);
            assert_eq!(profile.layers(), &layers[..], "{}", c.name());
            assert_eq!(profile.cx_per_layer(), &cx_per_layer[..], "{}", c.name());

            let stats = CircuitStats::of(c);
            let mean = if depth == 0 {
                0.0
            } else {
                cx_per_layer.iter().sum::<usize>() as f64 / depth as f64
            };
            assert_eq!(stats.depth, depth, "{}", c.name());
            assert_eq!(
                stats.max_concurrent_cx,
                cx_per_layer.iter().copied().max().unwrap_or(0),
                "{}",
                c.name()
            );
            assert_eq!(
                stats.mean_concurrent_cx.to_bits(),
                mean.to_bits(),
                "{}",
                c.name()
            );
        }
    }
}
