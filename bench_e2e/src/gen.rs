//! Seeded circuits from the conformance generator families, sized for
//! service traffic (6–24 qubits) and streaming sessions.

use autobraid_circuit::generators::{ising::ising, qft::qft, random};
use autobraid_circuit::Circuit;
use autobraid_telemetry::Rng64;

/// The families fresh service requests draw from.
pub const FAMILIES: [&str; 6] = ["layered", "burst", "chain", "qft", "ising", "random"];

/// One circuit of `family` with `n` qubits, the rest of its shape drawn
/// from `rng`.
pub fn family_circuit(family: &str, n: u32, rng: &mut Rng64) -> Circuit {
    let built = match family {
        "layered" => {
            let layers = rng.gen_range(2..9usize);
            let single = rng.gen_range(0..60u32) as f64 / 100.0;
            random::layered_cx(n, layers, single, rng.next_u64())
        }
        "burst" => {
            let bursts = rng.gen_range(1..6usize);
            let fanout = rng.gen_range(1..n.min(8));
            random::all_to_all_burst(n, bursts, fanout, rng.next_u64())
        }
        "chain" => random::neighbor_chain(n, rng.gen_range(1..8usize), rng.next_u64()),
        "qft" => qft(n),
        "ising" => ising(n, rng.gen_range(1..4u32)),
        "random" => {
            let gates = rng.gen_range(20..160usize);
            let frac = rng.gen_range(30..91u32) as f64 / 100.0;
            random::random_circuit(n, gates, frac, rng.next_u64())
        }
        other => panic!("unknown family {other}"),
    };
    built.expect("generator parameters are in range")
}

/// A service-traffic circuit: a random family, 6–24 qubits.
pub fn service_circuit(rng: &mut Rng64) -> Circuit {
    let family = FAMILIES[rng.gen_range(0..FAMILIES.len())];
    let n = rng.gen_range(6..25u32);
    family_circuit(family, n, rng)
}
