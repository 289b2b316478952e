//! Full-Hamiltonian Trotter error comparison between the direct (SCB-term)
//! and usual (Pauli-fragment) groupings — Section V-B2 of the paper.
//!
//! Both strategies converge to the exact evolution; they differ in the number
//! of exponential factors per step, in gate counts, and in the size of the
//! Trotter error, which depends on how the non-commuting pieces are grouped
//! (fermionic / SCB grouping vs Pauli fragments).

use crate::models::ElectronicModel;
use ghs_circuit::LadderStyle;
use ghs_core::backend::{Backend, InitialState};
use ghs_core::{direct_product_formula, usual_product_formula, DirectOptions, ProductFormula};
use ghs_math::expm_multiply_minus_i_theta;
use ghs_statevector::StateVector;

/// One row of the Trotter-error comparison.
#[derive(Clone, Copy, Debug)]
pub struct TrotterErrorRow {
    /// Number of Trotter steps.
    pub steps: usize,
    /// State-level error of the direct (SCB-grouped) first-order formula.
    pub direct_error: f64,
    /// State-level error of the usual (Pauli-fragment) first-order formula.
    pub usual_error: f64,
    /// Energy-observable error `|⟨H⟩_formula − ⟨H⟩_exact|` of the direct
    /// strategy, evaluated matrix-free on the evolved state through the
    /// grouped Pauli engine (`StateVector::expectation_grouped`).
    pub direct_energy_error: f64,
    /// Energy-observable error of the usual strategy.
    pub usual_energy_error: f64,
    /// Exponential factors per step, direct strategy.
    pub direct_factors: usize,
    /// Exponential factors per step, usual strategy.
    pub usual_factors: usize,
}

/// Measures `‖U_formula|ψ⟩ − e^{−itH}|ψ⟩‖` for both strategies across a step
/// sweep, starting from the Hartree–Fock state of the model and evolving
/// through `backend`; with a noisy trajectory backend the rows measure the
/// combined Trotter-plus-noise error.
pub fn trotter_error_sweep(
    backend: &dyn Backend,
    model: &ElectronicModel,
    t: f64,
    steps_list: &[usize],
    order: ProductFormula,
) -> Vec<TrotterErrorRow> {
    let h = model.qubit_hamiltonian();
    let sparse = h.sparse_matrix();
    let sum = h.to_pauli_sum();
    let n = model.num_qubits();
    let initial = StateVector::basis_state(n, model.hartree_fock_state());
    let exact = expm_multiply_minus_i_theta(&sparse, t, initial.amplitudes());
    let start = InitialState::basis(model.hartree_fock_state());
    // Energy observable: prepared once, evaluated matrix-free per row.
    let observable = model.grouped_observable();
    let exact_energy = observable.expectation(&exact).re;

    steps_list
        .iter()
        .map(|&steps| {
            let direct_circ = direct_product_formula(&h, t, steps, order, &DirectOptions::linear());
            let usual_circ = usual_product_formula(&sum, t, steps, order, LadderStyle::Linear);
            let d_state = backend
                .run(&start, &direct_circ)
                .expect("dense backends run product-formula circuits");
            let u_state = backend
                .run(&start, &usual_circ)
                .expect("dense backends run product-formula circuits");
            // Energies come from the states already evolved for the error
            // columns (no second simulation); like those columns, they
            // measure one trajectory of a stochastic backend.
            let d_energy = d_state.expectation_grouped(&observable).re;
            let u_energy = u_state.expectation_grouped(&observable).re;
            TrotterErrorRow {
                steps,
                direct_error: ghs_math::vec_distance(d_state.amplitudes(), &exact),
                usual_error: ghs_math::vec_distance(u_state.amplitudes(), &exact),
                direct_energy_error: (d_energy - exact_energy).abs(),
                usual_energy_error: (u_energy - exact_energy).abs(),
                direct_factors: h.num_terms(),
                usual_factors: sum.num_terms(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{h2_sto3g, hubbard_chain};
    use ghs_core::backend::FusedStatevector;

    #[test]
    fn both_strategies_converge_for_hubbard() {
        let model = hubbard_chain(2, 1.0, 2.0, false);
        let rows = trotter_error_sweep(
            &FusedStatevector,
            &model,
            0.8,
            &[1, 2, 4, 8, 16],
            ProductFormula::First,
        );
        for w in rows.windows(2) {
            assert!(w[1].direct_error <= w[0].direct_error + 1e-12);
            assert!(w[1].usual_error <= w[0].usual_error + 1e-12);
        }
        let last = rows.last().unwrap();
        assert!(last.direct_error < 0.1);
        assert!(last.usual_error < 0.25);
        // The direct grouping uses fewer exponential factors per step.
        assert!(last.direct_factors < last.usual_factors);
        // The energy-observable error is controlled by the state error
        // (|⟨H⟩_formula − ⟨H⟩_exact| ≤ 2‖H‖·‖Δψ‖ + O(‖Δψ‖²)) but, unlike
        // the state error, it is signed underneath and need not shrink
        // monotonically — only the absolute bound is asserted.
        assert!(
            last.direct_energy_error < 0.2,
            "{}",
            last.direct_energy_error
        );
        assert!(last.usual_energy_error < 0.5, "{}", last.usual_energy_error);
    }

    #[test]
    fn h2_direct_grouping_has_fewer_factors() {
        let model = h2_sto3g();
        let rows = trotter_error_sweep(
            &FusedStatevector,
            &model,
            0.5,
            &[1, 4],
            ProductFormula::First,
        );
        assert!(rows[0].direct_factors < rows[0].usual_factors);
        assert!(rows[1].direct_error < rows[0].direct_error);
        assert!(rows[1].usual_error < rows[0].usual_error);
    }

    #[test]
    fn second_order_is_more_accurate_than_first() {
        let model = hubbard_chain(2, 1.0, 1.5, false);
        let first =
            trotter_error_sweep(&FusedStatevector, &model, 0.6, &[2], ProductFormula::First);
        let second =
            trotter_error_sweep(&FusedStatevector, &model, 0.6, &[2], ProductFormula::Second);
        assert!(second[0].direct_error < first[0].direct_error);
        assert!(second[0].usual_error < first[0].usual_error);
    }
}
