//! A pragmatic OpenQASM 2.0 subset reader/writer.
//!
//! Covers the gate set the benchmarks use (`h x y z s sdg t tdg rx ry rz
//! cx cz cp swap ccx measure barrier`) over a single quantum register;
//! `swap` and `ccx` lower to CX-based networks ([`crate::decompose`]). This
//! is how externally produced circuits (e.g. Qiskit-exported QFT instances)
//! enter the pipeline.

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::gate::{Gate, QubitId, SingleKind, TwoKind};
use std::f64::consts::PI;

/// Parses an OpenQASM 2.0 subset into a [`Circuit`].
///
/// Unsupported constructs produce [`CircuitError::Parse`] with the line
/// number. `barrier` and classical registers are accepted and ignored;
/// `measure q[i] -> c[j]` becomes a measurement gate on `q[i]`.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::qasm;
///
/// let src = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     creg c[2];
///     h q[0];
///     cx q[0], q[1];
///     measure q[0] -> c[0];
/// "#;
/// let circuit = qasm::parse(src)?;
/// assert_eq!(circuit.num_qubits(), 2);
/// assert_eq!(circuit.len(), 3);
/// # Ok::<(), autobraid_circuit::error::CircuitError>(())
/// ```
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] on malformed or unsupported input, and
/// [`CircuitError::QubitOutOfRange`] if a gate references a qubit beyond
/// the declared register.
pub fn parse(source: &str) -> Result<Circuit, CircuitError> {
    let mut num_qubits: Option<u32> = None;
    let mut gates: Vec<Gate> = Vec::new();

    for (line_no, raw_line) in source.lines().enumerate() {
        let line_no = line_no + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, line_no, &mut num_qubits, &mut gates)?;
        }
    }

    let n = num_qubits.ok_or_else(|| CircuitError::Parse {
        line: 0,
        message: "no qreg declaration found".into(),
    })?;
    Circuit::from_gates(n, gates)
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_statement(
    stmt: &str,
    line: usize,
    num_qubits: &mut Option<u32>,
    gates: &mut Vec<Gate>,
) -> Result<(), CircuitError> {
    let err = |message: String| CircuitError::Parse { line, message };

    let (head, rest) = match stmt.find(|c: char| c.is_whitespace() || c == '(') {
        Some(i) => stmt.split_at(i),
        None => (stmt, ""),
    };
    let rest = rest.trim();

    match head {
        "OPENQASM" | "include" | "creg" | "barrier" => Ok(()),
        "qreg" => {
            let size = parse_index(rest, line)?;
            if num_qubits.replace(size).is_some() {
                return Err(err("multiple qreg declarations are not supported".into()));
            }
            Ok(())
        }
        "measure" => {
            // "q[i] -> c[j]" or bare "q[i]".
            let lhs = rest.split("->").next().unwrap_or(rest).trim();
            let q = parse_qubit(lhs, line)?;
            gates.push(Gate::single(SingleKind::Measure, q));
            Ok(())
        }
        "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" => {
            let q = parse_qubit(rest, line)?;
            let kind = match head {
                "h" => SingleKind::H,
                "x" => SingleKind::X,
                "y" => SingleKind::Y,
                "z" => SingleKind::Z,
                "s" => SingleKind::S,
                "sdg" => SingleKind::Sdg,
                "t" => SingleKind::T,
                _ => SingleKind::Tdg,
            };
            gates.push(Gate::single(kind, q));
            Ok(())
        }
        "rx" | "ry" | "rz" | "u1" | "p" => {
            let (angle, operands) = parse_angle_call(rest, line)?;
            let q = parse_qubit(operands, line)?;
            let kind = match head {
                "rx" => SingleKind::Rx(angle),
                "ry" => SingleKind::Ry(angle),
                _ => SingleKind::Rz(angle),
            };
            gates.push(Gate::single(kind, q));
            Ok(())
        }
        "cx" | "CX" | "cz" | "swap" => {
            let (a, b) = parse_qubit_pair(rest, line)?;
            if a == b {
                return Err(err(format!(
                    "two-qubit gate with identical operands q[{a}]"
                )));
            }
            match head {
                "swap" => gates.extend(crate::decompose::swap(a, b)),
                "cz" => gates.push(Gate::two(TwoKind::Cz, a, b)),
                _ => gates.push(Gate::cx(a, b)),
            }
            Ok(())
        }
        "cp" | "cu1" => {
            let (angle, operands) = parse_angle_call(rest, line)?;
            let (a, b) = parse_qubit_pair(operands, line)?;
            if a == b {
                return Err(err(format!(
                    "two-qubit gate with identical operands q[{a}]"
                )));
            }
            gates.push(Gate::two(TwoKind::CPhase(angle), a, b));
            Ok(())
        }
        "ccx" => {
            let qs = parse_qubit_list(rest, line)?;
            if qs.len() != 3 {
                return Err(err(format!("ccx expects 3 operands, got {}", qs.len())));
            }
            // Lower immediately into the braided gate set.
            let mut tmp = Circuit::new(qs.iter().max().unwrap() + 1);
            crate::decompose::ccx_into(&mut tmp, qs[0], qs[1], qs[2]);
            gates.extend_from_slice(tmp.gates());
            Ok(())
        }
        other => Err(err(format!("unsupported statement '{other}'"))),
    }
}

/// Parses `q[i]`.
fn parse_qubit(text: &str, line: usize) -> Result<QubitId, CircuitError> {
    parse_index(text.trim(), line)
}

/// Parses the `n` out of `name[n]`.
fn parse_index(text: &str, line: usize) -> Result<u32, CircuitError> {
    let open = text.find('[');
    let close = text.rfind(']');
    match (open, close) {
        (Some(o), Some(c)) if o < c => {
            text[o + 1..c]
                .trim()
                .parse()
                .map_err(|_| CircuitError::Parse {
                    line,
                    message: format!("bad index in '{text}'"),
                })
        }
        _ => Err(CircuitError::Parse {
            line,
            message: format!("expected name[index], got '{text}'"),
        }),
    }
}

fn parse_qubit_pair(text: &str, line: usize) -> Result<(QubitId, QubitId), CircuitError> {
    let qs = parse_qubit_list(text, line)?;
    if qs.len() == 2 {
        Ok((qs[0], qs[1]))
    } else {
        Err(CircuitError::Parse {
            line,
            message: format!("expected 2 operands, got {} in '{text}'", qs.len()),
        })
    }
}

fn parse_qubit_list(text: &str, line: usize) -> Result<Vec<QubitId>, CircuitError> {
    text.split(',')
        .map(|part| parse_qubit(part, line))
        .collect()
}

/// Splits `(angle) q[..], ...` into the evaluated angle and the operand
/// text.
fn parse_angle_call(rest: &str, line: usize) -> Result<(f64, &str), CircuitError> {
    let rest = rest.trim_start();
    if !rest.starts_with('(') {
        return Err(CircuitError::Parse {
            line,
            message: format!("expected (angle) in '{rest}'"),
        });
    }
    let close = rest.find(')').ok_or_else(|| CircuitError::Parse {
        line,
        message: format!("unterminated angle in '{rest}'"),
    })?;
    let angle = eval_angle(&rest[1..close], line)?;
    Ok((angle, rest[close + 1..].trim()))
}

/// Evaluates the restricted angle grammar: `[-] [k*] pi [/ m]` or a float
/// literal. A result that is not finite (`nan`, `inf`, `1e999`) is
/// rejected like any other angle that cannot be evaluated.
fn eval_angle(expr: &str, line: usize) -> Result<f64, CircuitError> {
    let expr = expr.trim().replace(' ', "");
    let err = || CircuitError::Parse {
        line,
        message: format!("cannot evaluate angle '{expr}'"),
    };
    let (sign, body) = match expr.strip_prefix('-') {
        Some(b) => (-1.0, b),
        None => (1.0, expr.as_str()),
    };
    let angle = if let Ok(v) = body.parse::<f64>() {
        sign * v
    } else if let Some(pi_pos) = body.find("pi") {
        let (before, after) = (&body[..pi_pos], &body[pi_pos + 2..]);
        let k: f64 = match before.strip_suffix('*') {
            Some(num) => num.parse().map_err(|_| err())?,
            None if before.is_empty() => 1.0,
            None => return Err(err()),
        };
        let m: f64 = match after.strip_prefix('/') {
            Some(num) => num.parse().map_err(|_| err())?,
            None if after.is_empty() => 1.0,
            None => return Err(err()),
        };
        if m == 0.0 {
            return Err(err());
        }
        sign * k * PI / m
    } else {
        return Err(err());
    };
    if angle.is_finite() {
        Ok(angle)
    } else {
        Err(err())
    }
}

/// Serializes a circuit as OpenQASM 2.0. CZ and CP emit their native
/// spellings; re-parsing the output reproduces the circuit.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::{circuit::Circuit, qasm};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let text = qasm::emit(&c);
/// assert_eq!(qasm::parse(&text)?, c);
/// # Ok::<(), autobraid_circuit::error::CircuitError>(())
/// ```
pub fn emit(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    let _ = writeln!(out, "creg c[{}];", circuit.num_qubits());
    for gate in circuit.gates() {
        match *gate {
            Gate::Single { kind, qubit } => match kind {
                SingleKind::Rx(a) => {
                    let _ = writeln!(out, "rx({a}) q[{qubit}];");
                }
                SingleKind::Ry(a) => {
                    let _ = writeln!(out, "ry({a}) q[{qubit}];");
                }
                SingleKind::Rz(a) => {
                    let _ = writeln!(out, "rz({a}) q[{qubit}];");
                }
                SingleKind::Measure => {
                    let _ = writeln!(out, "measure q[{qubit}] -> c[{qubit}];");
                }
                _ => {
                    let _ = writeln!(out, "{} q[{qubit}];", kind.mnemonic());
                }
            },
            Gate::Two {
                kind,
                control,
                target,
            } => match kind {
                TwoKind::CPhase(a) => {
                    let _ = writeln!(out, "cp({a}) q[{control}], q[{target}];");
                }
                _ => {
                    let _ = writeln!(out, "{} q[{control}], q[{target}];", kind.mnemonic());
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_program() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
                   h q[0];\ncx q[0],q[1];\ncz q[1], q[2];\nswap q[0], q[2];\n\
                   t q[1]; tdg q[2];\nmeasure q[1] -> c[1];\n";
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 9);
        assert_eq!(c.two_qubit_count(), 5);
    }

    #[test]
    fn parses_angles() {
        let src = "qreg q[2];\nrz(pi/2) q[0];\nrx(-pi/4) q[1];\nry(0.5) q[0];\n\
                   cp(2*pi/8) q[0], q[1];\n";
        let c = parse(src).unwrap();
        match *c.gate(0) {
            Gate::Single {
                kind: SingleKind::Rz(a),
                ..
            } => assert!((a - PI / 2.0).abs() < 1e-12),
            ref g => panic!("unexpected {g:?}"),
        }
        match *c.gate(1) {
            Gate::Single {
                kind: SingleKind::Rx(a),
                ..
            } => assert!((a + PI / 4.0).abs() < 1e-12),
            ref g => panic!("unexpected {g:?}"),
        }
        match *c.gate(3) {
            Gate::Two {
                kind: TwoKind::CPhase(a),
                ..
            } => assert!((a - PI / 4.0).abs() < 1e-12),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    fn parses_ccx_by_lowering() {
        let src = "qreg q[3];\nccx q[0], q[1], q[2];\n";
        let c = parse(src).unwrap();
        assert_eq!(c.two_qubit_count(), 6);
    }

    #[test]
    fn ignores_comments_and_blank_lines() {
        let src = "// header\nqreg q[2]; // register\n\n  h q[0]; cx q[0], q[1];\n";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn error_reports_line() {
        let src = "qreg q[2];\nfrobnicate q[0];\n";
        match parse(src) {
            Err(CircuitError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("frobnicate"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_qreg() {
        assert!(matches!(parse("h q[0];"), Err(CircuitError::Parse { .. })));
    }

    #[test]
    fn rejects_out_of_range() {
        let src = "qreg q[2];\ncx q[0], q[5];\n";
        assert!(matches!(
            parse(src),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_identical_operands() {
        let src = "qreg q[2];\ncx q[1], q[1];\n";
        assert!(matches!(parse(src), Err(CircuitError::Parse { .. })));
    }

    #[test]
    fn rejects_bad_angle() {
        for bad in ["rz(pi/0) q[0];", "rz(two) q[0];", "rz() q[0];"] {
            let src = format!("qreg q[1];\n{bad}\n");
            assert!(parse(&src).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn rejects_non_finite_angles() {
        for bad in [
            "nan",
            "-nan",
            "NaN*pi",
            "inf",
            "-inf",
            "infinity",
            "1e999",
            "1e308*pi",
            "pi/1e-320",
        ] {
            let src = format!("qreg q[2];\nrz({bad}) q[0];\nrz(0.5) q[0];\ncx q[0],q[1];\n");
            match parse(&src) {
                Err(CircuitError::Parse { line, message }) => {
                    assert_eq!(line, 2, "{bad}");
                    assert!(
                        message.contains("cannot evaluate angle"),
                        "{bad}: {message}"
                    );
                }
                other => panic!("rz({bad}) should not parse: {other:?}"),
            }
        }
        let huge = parse("qreg q[1];\nrz(-1e308) q[0];\n").unwrap();
        assert_eq!(huge.gates()[0], Gate::single(SingleKind::Rz(-1e308), 0));
    }

    #[test]
    fn emit_roundtrip() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .cphase(PI / 8.0, 1, 2)
            .swap(2, 3)
            .rz(1.25, 3)
            .measure(0);
        let text = emit(&c);
        let back = parse(&text).unwrap();
        assert_eq!(back, c);
    }
}
