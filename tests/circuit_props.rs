//! Randomized tests for the circuit layer: QASM round-trips, DAG
//! invariants, and schedule/DAG agreement. Deterministic seeded sweeps
//! stand in for property-based generation so the suite stays
//! zero-dependency.

use autobraid_circuit::dag::{bfs_levels, is_valid_execution_order, DependenceDag, Frontier};
use autobraid_circuit::generators::random::random_circuit;
use autobraid_circuit::{qasm, Circuit, CircuitError, Gate, ParallelismProfile};
use autobraid_telemetry::Rng64;

/// One random circuit per trial, mirroring the old proptest strategy:
/// 2–19 qubits, up to 199 gates, any two-qubit fraction.
fn random_case(rng: &mut Rng64) -> Circuit {
    let n = rng.gen_range(2u32..20);
    let gates = rng.gen_range(0usize..200);
    let frac = rng.gen_f64();
    let seed = rng.next_u64();
    random_circuit(n, gates, frac, seed).unwrap()
}

fn for_each_case(seed: u64, cases: usize, mut check: impl FnMut(Circuit)) {
    let mut rng = Rng64::seed_from_u64(seed);
    for _ in 0..cases {
        check(random_case(&mut rng));
    }
}

/// emit → parse is the identity on the braided gate set.
#[test]
fn qasm_roundtrip() {
    for_each_case(0xC1C_0001, 96, |circuit| {
        let text = qasm::emit(&circuit);
        let back = qasm::parse(&text).expect("emitted programs parse");
        assert_eq!(back.gates(), circuit.gates());
        assert_eq!(back.num_qubits(), circuit.num_qubits());
    });
}

/// DAG edges only connect gates sharing a qubit, in program order.
#[test]
fn dag_edges_share_qubits() {
    for_each_case(0xC1C_0002, 96, |circuit| {
        let dag = DependenceDag::new(&circuit);
        for g in 0..circuit.len() {
            for &p in dag.predecessors(g) {
                assert!(p < g, "predecessor after successor");
                let share = circuit
                    .gate(g)
                    .qubits()
                    .iter()
                    .any(|&q| circuit.gate(p).acts_on(q));
                assert!(share, "edge without shared qubit: {p} -> {g}");
            }
        }
    });
}

/// ASAP levels computed two ways agree, and layer draining respects
/// them.
#[test]
fn asap_levels_agree() {
    for_each_case(0xC1C_0003, 96, |circuit| {
        let dag = DependenceDag::new(&circuit);
        assert_eq!(dag.asap_levels(), bfs_levels(&dag));
        let layers = Frontier::new(&dag).drain_layers(&dag);
        let mut order = Vec::new();
        for layer in &layers {
            order.extend(layer.iter().copied());
        }
        assert!(is_valid_execution_order(&circuit, &order));
    });
}

/// Depth bounds: depth ≤ gates; gates ≤ depth × max-layer-width.
#[test]
fn depth_and_width_bounds() {
    for_each_case(0xC1C_0004, 96, |circuit| {
        let dag = DependenceDag::new(&circuit);
        let profile = ParallelismProfile::analyze(&circuit);
        assert!(dag.depth() <= circuit.len());
        let max_width = profile.layers().iter().map(Vec::len).max().unwrap_or(0);
        assert!(circuit.len() <= dag.depth() * max_width.max(1));
    });
}

/// Critical path with uniform weight 1 equals DAG depth.
#[test]
fn unit_critical_path_is_depth() {
    for_each_case(0xC1C_0005, 96, |circuit| {
        let dag = DependenceDag::new(&circuit);
        assert_eq!(
            dag.critical_path_weight(&circuit, |_| 1) as usize,
            dag.depth()
        );
    });
}

/// Critical path is monotone in gate weights.
#[test]
fn critical_path_monotone() {
    for_each_case(0xC1C_0006, 96, |circuit| {
        let dag = DependenceDag::new(&circuit);
        let light =
            dag.critical_path_weight(&circuit, |g: &Gate| if g.is_two_qubit() { 2 } else { 1 });
        let heavy =
            dag.critical_path_weight(&circuit, |g: &Gate| if g.is_two_qubit() { 4 } else { 2 });
        assert!(heavy >= light);
        assert!(heavy <= 2 * light + 2);
    });
}

#[test]
fn qasm_parses_generated_qft() {
    let circuit = autobraid_circuit::generators::qft::qft(20).unwrap();
    let text = qasm::emit(&circuit);
    let back = qasm::parse(&text).unwrap();
    assert_eq!(back.gates().len(), circuit.gates().len());
}

/// parse → emit is a fixpoint: once a program has been through the
/// emitter, re-parsing and re-emitting reproduces it byte for byte.
#[test]
fn qasm_parse_emit_parse_fixpoint() {
    for_each_case(0xC1C_0007, 96, |circuit| {
        let first = qasm::emit(&circuit);
        let reparsed = qasm::parse(&first).expect("emitted programs parse");
        let second = qasm::emit(&reparsed);
        assert_eq!(first, second);
        assert_eq!(qasm::parse(&second).unwrap().gates(), reparsed.gates());
    });
}

/// Malformed programs fail with *typed* errors carrying the failing
/// line, never panics or silent truncation.
#[test]
fn qasm_malformed_inputs_give_typed_errors() {
    // Truncated header: the qreg declaration is cut mid-token.
    for truncated in ["OPENQASM 2.0;\nqreg q[", "qreg q[3", "qreg ;"] {
        match qasm::parse(truncated) {
            Err(CircuitError::Parse { line, .. }) => assert!(line >= 1),
            other => panic!("{truncated:?} parsed as {other:?}"),
        }
    }
    // A qubit index outside the declared register.
    match qasm::parse("qreg q[2];\nh q[0];\ncx q[0], q[7];\n") {
        Err(CircuitError::QubitOutOfRange {
            qubit, num_qubits, ..
        }) => {
            assert_eq!((qubit, num_qubits), (7, 2));
        }
        other => panic!("out-of-range index parsed as {other:?}"),
    }
    // An unknown gate head, with the 1-based line number preserved.
    match qasm::parse("qreg q[2];\nh q[0];\nfrobnicate q[0];\n") {
        Err(CircuitError::Parse { line, message }) => {
            assert_eq!(line, 3, "{message}");
        }
        other => panic!("unknown gate parsed as {other:?}"),
    }
}
