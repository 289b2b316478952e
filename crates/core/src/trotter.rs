//! Product formulas (Trotter–Suzuki) and the randomised qDRIFT compiler,
//! applicable to both the direct and the usual strategy (Section II and
//! §VI-B of the paper).
//!
//! A slice builder closure maps a time step to a circuit; the functions here
//! assemble first-, second- and fourth-order product formulas out of slices,
//! and measure the resulting Trotter error against the exact evolution
//! computed by `ghs-math`.

use crate::backend::{Backend, FusedStatevector, InitialState};
use crate::direct::{direct_term_circuit, DirectOptions};
use crate::usual::pauli_string_exponential;
use ghs_circuit::{Circuit, LadderStyle};
use ghs_math::{expm_multiply_minus_i_theta, vec_distance, CMatrix, Complex64, SparseMatrix};
use ghs_operators::{PauliSum, ScbHamiltonian};
use ghs_statevector::{circuit_unitary, StateVector};
use rand::Rng;

/// Order of the product formula.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProductFormula {
    /// First-order Lie–Trotter: `∏_k e^{−i t H_k / p}` repeated `p` times.
    First,
    /// Second-order (symmetric) Suzuki formula.
    Second,
    /// Fourth-order Suzuki formula.
    Fourth,
}

/// Which construction produces the per-term exponentials.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// The paper's direct strategy on the SCB Hamiltonian.
    Direct(DirectOptions),
    /// The usual Pauli-LCU strategy on the expanded Pauli sum.
    Usual(LadderStyle),
}

/// Builds the circuit of the chosen product formula for total time `t` with
/// `steps` repetitions, using the direct strategy on an SCB Hamiltonian.
pub fn direct_product_formula(
    hamiltonian: &ScbHamiltonian,
    t: f64,
    steps: usize,
    order: ProductFormula,
    opts: &DirectOptions,
) -> Circuit {
    let n = hamiltonian.num_qubits();
    let terms: Vec<_> = hamiltonian.terms().to_vec();
    let term_circuit =
        |idx: usize, dt: f64| -> Circuit { direct_term_circuit(&terms[idx], dt, opts) };
    product_formula_circuit(n, terms.len(), t, steps, order, term_circuit)
}

/// Builds the chosen product formula for the usual strategy on a Pauli sum.
pub fn usual_product_formula(
    sum: &PauliSum,
    t: f64,
    steps: usize,
    order: ProductFormula,
    ladder_style: LadderStyle,
) -> Circuit {
    let n = sum.num_qubits();
    let terms: Vec<(Complex64, _)> = sum.terms().to_vec();
    let term_circuit = |idx: usize, dt: f64| -> Circuit {
        let (coeff, string) = &terms[idx];
        pauli_string_exponential(string, coeff.re, dt, ladder_style)
    };
    product_formula_circuit(n, terms.len(), t, steps, order, term_circuit)
}

/// Generic product-formula assembler over an indexed family of exponentiable
/// terms. `term_circuit(k, dt)` must return the circuit of
/// `exp(−i·dt·H_k)`.
pub fn product_formula_circuit(
    num_qubits: usize,
    num_terms: usize,
    t: f64,
    steps: usize,
    order: ProductFormula,
    term_circuit: impl Fn(usize, f64) -> Circuit,
) -> Circuit {
    assert!(steps > 0, "at least one Trotter step is required");
    let dt = t / steps as f64;
    let step = match order {
        ProductFormula::First => first_order_step(num_qubits, num_terms, dt, &term_circuit),
        ProductFormula::Second => second_order_step(num_qubits, num_terms, dt, &term_circuit),
        ProductFormula::Fourth => fourth_order_step(num_qubits, num_terms, dt, &term_circuit),
    };
    step.repeat(steps)
}

fn first_order_step(
    num_qubits: usize,
    num_terms: usize,
    dt: f64,
    term_circuit: &impl Fn(usize, f64) -> Circuit,
) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for k in 0..num_terms {
        c.append(&term_circuit(k, dt));
    }
    c
}

fn second_order_step(
    num_qubits: usize,
    num_terms: usize,
    dt: f64,
    term_circuit: &impl Fn(usize, f64) -> Circuit,
) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for k in 0..num_terms {
        c.append(&term_circuit(k, dt / 2.0));
    }
    for k in (0..num_terms).rev() {
        c.append(&term_circuit(k, dt / 2.0));
    }
    c
}

fn fourth_order_step(
    num_qubits: usize,
    num_terms: usize,
    dt: f64,
    term_circuit: &impl Fn(usize, f64) -> Circuit,
) -> Circuit {
    // Suzuki recursion: S4(dt) = S2(p·dt)² S2((1−4p)·dt) S2(p·dt)²,
    // p = 1/(4 − 4^{1/3}).
    let p = 1.0 / (4.0 - 4f64.powf(1.0 / 3.0));
    let mut c = Circuit::new(num_qubits);
    let outer = second_order_step(num_qubits, num_terms, p * dt, term_circuit);
    let middle = second_order_step(num_qubits, num_terms, (1.0 - 4.0 * p) * dt, term_circuit);
    c.append(&outer);
    c.append(&outer);
    c.append(&middle);
    c.append(&outer);
    c.append(&outer);
    c
}

/// qDRIFT (§VI-B): randomly samples terms with probability proportional to
/// their coefficient magnitude and applies each with a fixed evolution angle
/// `λ·t / N`, where `λ = Σ|γ_k|` and `N` is the number of samples.
pub fn qdrift_circuit<R: Rng>(
    hamiltonian: &ScbHamiltonian,
    t: f64,
    samples: usize,
    opts: &DirectOptions,
    rng: &mut R,
) -> Circuit {
    assert!(samples > 0);
    let terms = hamiltonian.terms();
    // Sampling weight of each term: |γ| (paired terms weigh 2|γ| because the
    // conjugate doubles the spectral norm contribution).
    let weights: Vec<f64> = terms
        .iter()
        .map(|t| {
            if t.add_hc {
                2.0 * t.coeff.abs()
            } else {
                t.coeff.abs()
            }
        })
        .collect();
    let lambda: f64 = weights.iter().sum();
    let tau = lambda * t / samples as f64;
    let mut circuit = Circuit::new(hamiltonian.num_qubits());
    for _ in 0..samples {
        let mut r = rng.gen_range(0.0..lambda);
        let mut idx = 0;
        for (i, w) in weights.iter().enumerate() {
            if r < *w {
                idx = i;
                break;
            }
            r -= w;
            idx = i;
        }
        // Each sampled term is applied with unit-normalised coefficient so
        // that the expected generator matches t·H.
        let term = &terms[idx];
        let scale = if weights[idx] > 0.0 {
            tau / weights[idx]
        } else {
            0.0
        };
        circuit.append(&direct_term_circuit(term, scale, opts));
    }
    circuit
}

/// Richardson extrapolation weights of the Multi-Product Formula (§VI-B of
/// the paper, following Low–Kliuchnikov–Wiebe): coefficients `c_i` such that
/// `Σ c_i = 1` and `Σ c_i / s_i^q = 0` for `q = 1..k−1`, which cancels the
/// leading Trotter-error orders of the first-order formula evaluated at the
/// step counts `s_i`.
pub fn richardson_weights(steps: &[usize]) -> Vec<f64> {
    let k = steps.len();
    assert!(k >= 1, "need at least one step count");
    // Build the k×k Vandermonde-type system A·c = e₁ with
    // A[q][i] = s_i^{-q} (q = 0..k−1).
    let mut a = vec![vec![0.0f64; k + 1]; k];
    for (q, row) in a.iter_mut().enumerate() {
        for (i, &s) in steps.iter().enumerate() {
            row[i] = 1.0 / (s as f64).powi(q as i32);
        }
        row[k] = if q == 0 { 1.0 } else { 0.0 };
    }
    // Gaussian elimination with partial pivoting on the augmented matrix.
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&r1, &r2| a[r1][col].abs().partial_cmp(&a[r2][col].abs()).unwrap())
            .unwrap();
        a.swap(col, pivot);
        let p = a[col][col];
        assert!(
            p.abs() > 1e-14,
            "degenerate step list for Richardson weights"
        );
        for entry in a[col].iter_mut() {
            *entry /= p;
        }
        for row in 0..k {
            if row != col {
                let factor = a[row][col];
                for c2 in 0..=k {
                    a[row][c2] -= factor * a[col][c2];
                }
            }
        }
    }
    (0..k).map(|i| a[i][k]).collect()
}

/// Multi-Product Formula state: the Richardson-weighted combination
/// `Σ_i c_i · U_{s_i} |ψ⟩` of first-order product-formula evolutions at the
/// given step counts (classically combined, as in MPF-based error
/// mitigation), each evolved through `backend` (fused / reference / one
/// noisy trajectory). Returns the (generally slightly unnormalised)
/// combined state.
pub fn mpf_state(
    backend: &dyn Backend,
    hamiltonian: &ScbHamiltonian,
    t: f64,
    steps_list: &[usize],
    opts: &DirectOptions,
    initial: &StateVector,
) -> Vec<Complex64> {
    let weights = richardson_weights(steps_list);
    let dim = initial.dim();
    let mut acc = vec![Complex64::ZERO; dim];
    for (&steps, &w) in steps_list.iter().zip(weights.iter()) {
        let circuit = direct_product_formula(hamiltonian, t, steps, ProductFormula::First, opts);
        let state = backend
            .run(&InitialState::from(initial), &circuit)
            .expect("dense backends run product-formula circuits");
        for (a, b) in acc.iter_mut().zip(state.amplitudes().iter()) {
            *a += b.scale(w);
        }
    }
    acc
}

/// Error of the Multi-Product Formula state against the exact evolution.
pub fn mpf_state_error(
    hamiltonian: &ScbHamiltonian,
    t: f64,
    steps_list: &[usize],
    opts: &DirectOptions,
    initial: &StateVector,
) -> f64 {
    let combined = mpf_state(&FusedStatevector, hamiltonian, t, steps_list, opts, initial);
    let exact = expm_multiply_minus_i_theta(&hamiltonian.sparse_matrix(), t, initial.amplitudes());
    vec_distance(&combined, &exact)
}

/// Spectral-free Trotter-error measure: the Frobenius distance between the
/// circuit unitary and the exact `exp(−i·t·H)` (dense; for ≤ 10 qubits).
pub fn unitary_error(circuit: &Circuit, hamiltonian_matrix: &CMatrix, t: f64) -> f64 {
    let u = circuit_unitary(circuit);
    let exact = ghs_math::expm_minus_i_theta(hamiltonian_matrix, t);
    u.distance(&exact)
}

/// State-level Trotter error: `‖(U_circuit − exp(−itH))|ψ⟩‖` evaluated with a
/// sparse exponential action, usable far beyond dense-matrix sizes. The
/// circuit runs through `backend`; with a noisy backend this measures the
/// combined Trotter-plus-noise error of one trajectory.
pub fn state_error(
    backend: &dyn Backend,
    circuit: &Circuit,
    hamiltonian: &SparseMatrix,
    t: f64,
    initial: &StateVector,
) -> f64 {
    let evolved = backend
        .run(&InitialState::from(initial), circuit)
        .expect("dense backends run product-formula circuits");
    let exact = expm_multiply_minus_i_theta(hamiltonian, t, initial.amplitudes());
    vec_distance(evolved.amplitudes(), &exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_math::c64;
    use ghs_operators::{ScbOp, ScbString};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn non_commuting_hamiltonian() -> ScbHamiltonian {
        let mut h = ScbHamiltonian::new(2);
        h.push_bare(0.9, ScbString::with_op_on(2, ScbOp::X, &[0]));
        h.push_bare(0.7, ScbString::with_op_on(2, ScbOp::Z, &[0]));
        h.push_paired(
            c64(0.4, 0.0),
            ScbString::new(vec![ScbOp::SigmaDag, ScbOp::Sigma]),
        );
        h
    }

    #[test]
    fn first_order_error_decreases_with_steps() {
        let h = non_commuting_hamiltonian();
        let m = h.matrix();
        let t = 1.0;
        let opts = DirectOptions::linear();
        let e1 = unitary_error(
            &direct_product_formula(&h, t, 1, ProductFormula::First, &opts),
            &m,
            t,
        );
        let e4 = unitary_error(
            &direct_product_formula(&h, t, 4, ProductFormula::First, &opts),
            &m,
            t,
        );
        let e16 = unitary_error(
            &direct_product_formula(&h, t, 16, ProductFormula::First, &opts),
            &m,
            t,
        );
        assert!(e4 < e1);
        assert!(e16 < e4);
        // First order: error ∝ 1/steps (within a factor).
        assert!(e16 < e1 / 8.0);
    }

    #[test]
    fn higher_orders_are_more_accurate() {
        let h = non_commuting_hamiltonian();
        let m = h.matrix();
        let t = 1.0;
        let steps = 4;
        let opts = DirectOptions::linear();
        let e1 = unitary_error(
            &direct_product_formula(&h, t, steps, ProductFormula::First, &opts),
            &m,
            t,
        );
        let e2 = unitary_error(
            &direct_product_formula(&h, t, steps, ProductFormula::Second, &opts),
            &m,
            t,
        );
        let e4 = unitary_error(
            &direct_product_formula(&h, t, steps, ProductFormula::Fourth, &opts),
            &m,
            t,
        );
        assert!(e2 < e1);
        assert!(e4 < e2);
        assert!(e4 < 1e-3);
    }

    #[test]
    fn commuting_hamiltonian_single_step_is_exact() {
        // Diagonal HUBO-like Hamiltonian: single first-order step is exact.
        let mut h = ScbHamiltonian::new(3);
        h.push_bare(0.8, ScbString::with_op_on(3, ScbOp::N, &[0]));
        h.push_bare(-0.5, ScbString::new(vec![ScbOp::N, ScbOp::N, ScbOp::I]));
        h.push_bare(0.3, ScbString::new(vec![ScbOp::N, ScbOp::N, ScbOp::N]));
        let m = h.matrix();
        let t = 2.3;
        let c = direct_product_formula(&h, t, 1, ProductFormula::First, &DirectOptions::linear());
        assert!(unitary_error(&c, &m, t) < 1e-9);
    }

    #[test]
    fn usual_and_direct_formulas_converge_to_same_evolution() {
        let h = non_commuting_hamiltonian();
        let m = h.matrix();
        let sum = h.to_pauli_sum();
        let t = 0.7;
        let steps = 32;
        let direct = direct_product_formula(
            &h,
            t,
            steps,
            ProductFormula::Second,
            &DirectOptions::linear(),
        );
        let usual =
            usual_product_formula(&sum, t, steps, ProductFormula::Second, LadderStyle::Linear);
        assert!(unitary_error(&direct, &m, t) < 1e-3);
        assert!(unitary_error(&usual, &m, t) < 1e-3);
    }

    #[test]
    fn state_error_matches_unitary_error_scale() {
        let h = non_commuting_hamiltonian();
        let sparse = h.sparse_matrix();
        let m = h.matrix();
        let t = 0.9;
        let c = direct_product_formula(&h, t, 2, ProductFormula::First, &DirectOptions::linear());
        let mut rng = StdRng::seed_from_u64(3);
        let psi = StateVector::random_state(2, &mut rng);
        let se = state_error(&FusedStatevector, &c, &sparse, t, &psi);
        let ue = unitary_error(&c, &m, t);
        assert!(se <= ue + 1e-9);
        assert!(se > 0.0);
    }

    #[test]
    fn richardson_weights_sum_to_one_and_cancel_leading_orders() {
        let steps = [1usize, 2, 4];
        let w = richardson_weights(&steps);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for q in 1..steps.len() {
            let moment: f64 = steps
                .iter()
                .zip(w.iter())
                .map(|(&s, &c)| c / (s as f64).powi(q as i32))
                .sum();
            assert!(moment.abs() < 1e-10, "moment {q} = {moment}");
        }
        // Single-entry edge case.
        assert_eq!(richardson_weights(&[3]), vec![1.0]);
    }

    #[test]
    fn multi_product_formula_beats_its_ingredients() {
        let h = non_commuting_hamiltonian();
        let sparse = h.sparse_matrix();
        let t = 0.9;
        let opts = DirectOptions::linear();
        let mut rng = StdRng::seed_from_u64(8);
        let psi = StateVector::random_state(2, &mut rng);
        let steps = [1usize, 2, 3];
        let mpf_err = mpf_state_error(&h, t, &steps, &opts, &psi);
        // Error of the best individual formula in the combination.
        let best_single = steps
            .iter()
            .map(|&s| {
                let c = direct_product_formula(&h, t, s, ProductFormula::First, &opts);
                state_error(&FusedStatevector, &c, &sparse, t, &psi)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            mpf_err < best_single,
            "MPF error {mpf_err} not below best single-formula error {best_single}"
        );
        assert!(mpf_err < 0.05);
    }

    #[test]
    fn qdrift_approximates_evolution_on_average() {
        let h = non_commuting_hamiltonian();
        let sparse = h.sparse_matrix();
        let t = 0.3;
        let mut rng = StdRng::seed_from_u64(7);
        let psi = StateVector::basis_state(2, 1);
        // Average the circuit-evolved state over several qDRIFT samples.
        let reps = 12;
        let samples = 60;
        let mut avg_err = 0.0;
        for _ in 0..reps {
            let c = qdrift_circuit(&h, t, samples, &DirectOptions::linear(), &mut rng);
            avg_err += state_error(&FusedStatevector, &c, &sparse, t, &psi);
        }
        avg_err /= reps as f64;
        // Not exact, but close for small t and many samples.
        assert!(avg_err < 0.15, "qDRIFT average error too large: {avg_err}");
    }
}
