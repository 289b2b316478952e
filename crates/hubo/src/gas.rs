//! Grover Adaptive Search for HUBO problems (§V-A-1 of the paper).
//!
//! The paper traces the origin of the direct strategy to Gilliam et al.'s
//! Grover Adaptive Search, which reads a polynomial cost function into a
//! value register "without the usual Pauli strings" — i.e. exactly with the
//! multi-controlled-phase exponentials of the direct strategy. This module
//! rebuilds that machinery on top of the library:
//!
//! * [`cost_register_circuit`] — a QPE-style circuit that writes the integer
//!   cost `C(x) (mod 2^m)` of every basis assignment `x` into an `m`-bit
//!   value register, using one **direct phase separator** per value bit;
//! * [`grover_adaptive_search`] — the adaptive-threshold Grover loop that
//!   repeatedly marks assignments with `C(x) < threshold` (a single `Z` on
//!   the value register's sign bit after shifting by the threshold) and
//!   amplifies them.

use crate::circuits::direct_phase_separator;
use crate::problem::HuboProblem;
use ghs_circuit::{inverse_qft, Circuit, ControlBit, Gate};
use ghs_core::backend::{Backend, InitialState};
use ghs_math::Complex64;
use ghs_operators::{PauliOp, PauliString, PauliSum};
use ghs_statevector::GroupedPauliSum;
use rand::Rng;
use std::f64::consts::PI;

/// Builds the circuit writing `C(x) + offset (mod 2^m)` into the value
/// register. Register layout: system qubits `0..n`, value register
/// `n..n+m` (most-significant value bit first). Costs must be integers for
/// the readout to be exact (the usual Gilliam-et-al. assumption); non-integer
/// weights produce the nearest-phase approximation.
pub fn cost_register_circuit(problem: &HuboProblem, value_bits: usize, offset: f64) -> Circuit {
    let n = problem.num_vars();
    let m = value_bits;
    let total = n + m;
    let modulus = (1u64 << m) as f64;
    let mut c = Circuit::new(total);
    let value_qubits: Vec<usize> = (n..n + m).collect();

    // Phase-estimation style: Hadamards on the value register, then each
    // value bit j (MSB first) controls exp(+2πi·2^{m-1-j}·(C(x)+offset)/2^m).
    for &v in &value_qubits {
        c.h(v);
    }
    for (j, &v) in value_qubits.iter().enumerate() {
        let weight = (1u64 << (m - 1 - j)) as f64;
        // The separator applies exp(−iγH).
        let gamma = -2.0 * PI * weight / modulus;
        // Controlled phase separator: every keyed phase of the separator gets
        // the value qubit appended to its key; the constant offset becomes a
        // plain phase gate on the value qubit.
        let sep = direct_phase_separator(problem, gamma);
        for gate in sep.gates() {
            match gate {
                Gate::KeyedPhase { key, theta } => {
                    let mut key = key.clone();
                    key.push(ControlBit::one(v));
                    c.keyed_phase(key, *theta);
                }
                Gate::GlobalPhase(theta) => {
                    c.p(v, *theta);
                }
                other => c.push(other.clone()),
            }
        }
        if offset != 0.0 {
            c.p(v, -gamma * offset);
        }
    }
    // Inverse QFT on the value register reads the phase out as an integer.
    c.append(&inverse_qft(total, &value_qubits, true));
    c
}

/// Reads the integer value (two's-complement over `m` bits) encoded in the
/// value-register part of a measured basis state.
pub fn decode_value(outcome: usize, num_vars: usize, value_bits: usize) -> i64 {
    let mask = (1usize << value_bits) - 1;
    let raw = outcome & mask;
    let _ = num_vars;
    let signed_limit = 1usize << (value_bits - 1);
    if raw >= signed_limit {
        raw as i64 - (1i64 << value_bits)
    } else {
        raw as i64
    }
}

/// Extracts the system-assignment part of a measured basis state (the system
/// register occupies the most-significant bits).
pub fn decode_assignment(outcome: usize, num_vars: usize, value_bits: usize) -> usize {
    (outcome >> value_bits) & ((1usize << num_vars) - 1)
}

/// One Grover iteration marking assignments whose shifted cost is negative.
fn grover_iteration(problem: &HuboProblem, value_bits: usize, threshold: f64) -> Circuit {
    let n = problem.num_vars();
    let m = value_bits;
    let total = n + m;
    let mut c = Circuit::new(total);

    // Oracle: compute C(x) − threshold into the value register, flip the
    // phase of negative values (sign bit = 1), uncompute.
    let compute = cost_register_circuit(problem, m, -threshold);
    c.append(&compute);
    c.z(n); // sign bit of the value register (its MSB)
    c.append(&compute.dagger());

    // Diffusion on the system register.
    for q in 0..n {
        c.h(q);
        c.x(q);
    }
    c.keyed_z((0..n).map(ControlBit::one).collect());
    for q in 0..n {
        c.x(q);
        c.h(q);
    }
    c
}

/// The full state-preparation circuit of one GAS round: uniform
/// superposition over the system register followed by `iterations` Grover
/// iterations at the given threshold.
pub fn grover_round_circuit(
    problem: &HuboProblem,
    value_bits: usize,
    threshold: f64,
    iterations: usize,
) -> Circuit {
    let n = problem.num_vars();
    let total = n + value_bits;
    let mut circuit = Circuit::new(total);
    for q in 0..n {
        circuit.h(q);
    }
    let iter_circuit = grover_iteration(problem, value_bits, threshold);
    for _ in 0..iterations {
        circuit.append(&iter_circuit);
    }
    circuit
}

/// The cost observable of a GAS register: the problem's diagonal Pauli sum
/// extended by identities over the `value_bits` ancilla qubits, ready for
/// the matrix-free grouped expectation engine.
pub fn gas_cost_observable(problem: &HuboProblem, value_bits: usize) -> GroupedPauliSum {
    let n = problem.num_vars();
    let total = (n + value_bits).max(1);
    let ising = problem.to_ising();
    let terms = ising
        .terms()
        .map(|(vars, w)| {
            let string = if vars.is_empty() {
                PauliString::identity(total)
            } else {
                PauliString::with_op_on(total, PauliOp::Z, vars)
            };
            (Complex64::real(w), string)
        })
        .collect();
    GroupedPauliSum::new(&PauliSum::from_terms(total, terms))
}

/// Expected cost `⟨C⟩` of the state a GAS round prepares, evaluated
/// matrix-free through [`Backend::expectation`] against a prepared
/// [`gas_cost_observable`] — the diagnostic that quantifies how much
/// amplitude one round moves onto below-threshold assignments (a test pins
/// it under the uniform average). Sweeps over thresholds or iteration counts
/// reuse one observable.
pub fn grover_expected_cost(
    backend: &dyn Backend,
    problem: &HuboProblem,
    observable: &GroupedPauliSum,
    value_bits: usize,
    threshold: f64,
    iterations: usize,
) -> f64 {
    let circuit = grover_round_circuit(problem, value_bits, threshold, iterations);
    debug_assert_eq!(observable.num_qubits(), circuit.num_qubits());
    backend
        .expectation(&InitialState::ZeroState, &circuit, observable)
        .expect("Grover cost circuits run on any dense backend")
}

/// Result of a Grover-Adaptive-Search run.
#[derive(Clone, Debug)]
pub struct GasResult {
    /// Best assignment found.
    pub best_assignment: usize,
    /// Its cost.
    pub best_cost: f64,
    /// Number of Grover iterations applied in total.
    pub total_iterations: usize,
    /// Number of measurement rounds.
    pub rounds: usize,
}

/// Adaptive-threshold Grover search over a HUBO problem (integer weights give
/// exact oracles). `value_bits` must be large enough to hold every shifted
/// cost in two's complement. Each round's single measurement is drawn
/// through `backend`'s batched shot engine with a seed derived from the
/// caller's generator.
pub fn grover_adaptive_search<R: Rng>(
    backend: &dyn Backend,
    problem: &HuboProblem,
    value_bits: usize,
    rounds: usize,
    rng: &mut R,
) -> GasResult {
    let n = problem.num_vars();
    let m = value_bits;
    // Start from a uniformly random assignment.
    let mut best_assignment = rng.gen_range(0..(1usize << n));
    let mut best_cost = problem.evaluate(best_assignment);
    let mut total_iterations = 0;

    for round in 0..rounds {
        // Threshold strictly below the best cost found so far.
        let threshold = best_cost;
        let iterations = 1 + (round % 3); // small rotating iteration count
        let circuit = grover_round_circuit(problem, m, threshold, iterations);
        total_iterations += iterations;

        let sample = backend
            .sample(&InitialState::ZeroState, &circuit, 1, rng.next_u64())
            .expect("Grover round circuits run on any dense backend")[0];
        let assignment = decode_assignment(sample, n, m);
        let cost = problem.evaluate(assignment);
        if cost < best_cost {
            best_cost = cost;
            best_assignment = assignment;
        }
    }
    GasResult {
        best_assignment,
        best_cost,
        total_iterations,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_core::backend::FusedStatevector;
    use ghs_statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn integer_problem() -> HuboProblem {
        // Integer-weighted instance on 3 variables with optimum at x = 011
        // (cost −3).
        let mut p = HuboProblem::new(3);
        p.add_term(2.0, &[0]);
        p.add_term(-3.0, &[1, 2]);
        p.add_term(1.0, &[0, 1, 2]);
        p
    }

    #[test]
    fn cost_register_reads_exact_integer_costs() {
        let p = integer_problem();
        let m = 4;
        let circuit = cost_register_circuit(&p, m, 0.0);
        for x in 0..(1usize << 3) {
            // Prepare |x⟩|0⟩ and run the cost evaluation.
            let mut state = StateVector::basis_state(3 + m, x << m);
            state.run_fused(&circuit);
            // The outcome must be deterministic: |x⟩|C(x) mod 16⟩.
            let expected_value = p.evaluate(x);
            let mut found = None;
            for idx in 0..state.dim() {
                if state.probability(idx) > 0.99 {
                    found = Some(idx);
                }
            }
            let outcome = found.expect("deterministic readout");
            assert_eq!(decode_assignment(outcome, 3, m), x);
            assert_eq!(
                decode_value(outcome, 3, m) as f64,
                expected_value,
                "x = {x:03b}"
            );
        }
    }

    #[test]
    fn cost_register_handles_offsets() {
        let p = integer_problem();
        let m = 4;
        let offset = -2.0; // compute C(x) − 2
        let circuit = cost_register_circuit(&p, m, offset);
        let x = 0b111usize; // C = 0 → shifted −2
        let mut state = StateVector::basis_state(3 + m, x << m);
        state.run_fused(&circuit);
        let outcome = (0..state.dim())
            .find(|&i| state.probability(i) > 0.99)
            .unwrap();
        assert_eq!(decode_value(outcome, 3, m), -2);
    }

    #[test]
    fn grover_adaptive_search_finds_optimum() {
        let p = integer_problem();
        let (best, best_cost) = p.brute_force_minimum();
        let mut rng = StdRng::seed_from_u64(17);
        let result = grover_adaptive_search(&FusedStatevector, &p, 4, 8, &mut rng);
        assert_eq!(result.best_assignment, best);
        assert_eq!(result.best_cost, best_cost);
        assert!(result.total_iterations >= result.rounds);
    }

    #[test]
    fn grover_round_lowers_expected_cost_below_uniform() {
        let p = integer_problem();
        let uniform: f64 = (0..(1usize << 3)).map(|x| p.evaluate(x)).sum::<f64>() / 8.0;
        // One prepared observable serves both evaluations below.
        let observable = gas_cost_observable(&p, 4);
        // Threshold 0 marks only the optimum (cost −3); one iteration must
        // amplify it, pulling ⟨C⟩ below the uniform average.
        let amplified = grover_expected_cost(&FusedStatevector, &p, &observable, 4, 0.0, 1);
        assert!(
            amplified < uniform - 0.1,
            "expected cost {amplified} not amplified below uniform {uniform}"
        );
        // Zero iterations leave the uniform superposition untouched.
        let untouched = grover_expected_cost(&FusedStatevector, &p, &observable, 4, 0.0, 0);
        assert!((untouched - uniform).abs() < 1e-9);
    }

    #[test]
    fn decode_value_two_complement() {
        assert_eq!(decode_value(0b0011, 0, 4), 3);
        assert_eq!(decode_value(0b1111, 0, 4), -1);
        assert_eq!(decode_value(0b1000, 0, 4), -8);
    }
}
