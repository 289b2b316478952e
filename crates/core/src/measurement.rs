//! Expectation-value estimation with fewer observables (Annex C of the
//! paper).
//!
//! For a Hermitian SCB term `γ(Â + Â†)` the transition part
//! `|a⟩⟨b| + h.c.` is diagonalised by the same basis change used by the
//! direct Hamiltonian simulation (transition ladder followed by a Hadamard on
//! the pivot): its eigenvectors `(|a⟩ ± |b⟩)/√2` become computational-basis
//! states. A single measurement setting therefore estimates the whole term,
//! instead of one setting per Pauli fragment — the `2^k`-fold reduction the
//! annex points out for two-body energy contributions.

use crate::backend::{Backend, InitialState};
use ghs_circuit::{transition_ladder, Circuit, LadderStyle};
use ghs_math::bits::qubit_bit;
use ghs_operators::{HermitianTerm, PauliOp};
use ghs_statevector::StateVector;

/// The measurement setting of one Hermitian SCB term: the basis-change
/// circuit plus the classical post-processing data turning a sampled bit
/// string into the term's eigenvalue contribution.
#[derive(Clone, Debug)]
pub struct TermMeasurement {
    /// Circuit to apply before measuring in the computational basis.
    pub basis_change: Circuit,
    /// Effective real weight multiplying the estimator.
    weight: f64,
    /// Pivot qubit (sign qubit of the transition part), if any.
    pivot: Option<usize>,
    /// Required values on the remaining transition qubits after the ladder.
    transition_controls: Vec<(usize, u8)>,
    /// Required values on the `n`/`m` control qubits.
    key_controls: Vec<(usize, u8)>,
    /// Pauli-family qubits (their product of ±1 outcomes multiplies the
    /// estimator after their local basis change).
    pauli_qubits: Vec<usize>,
    num_qubits: usize,
}

impl TermMeasurement {
    /// Builds the measurement setting of a term.
    ///
    /// # Panics
    /// Panics for terms with a complex weight: the single-setting estimator
    /// of Annex C applies to real-weighted Hermitian pairings (complex
    /// weights need the real and imaginary settings separately).
    pub fn new(term: &HermitianTerm, ladder_style: LadderStyle) -> Self {
        assert!(
            term.coeff.im.abs() < 1e-12,
            "single-setting estimation requires a real term weight"
        );
        let n = term.num_qubits();
        let split = term.string.family_split();
        let mut circuit = Circuit::new(n);

        // Pauli factors: local rotation to the Z basis.
        for &(q, p) in &split.pauli {
            match p {
                PauliOp::X => {
                    circuit.h(q);
                }
                PauliOp::Y => {
                    circuit.sdg(q);
                    circuit.h(q);
                }
                PauliOp::Z | PauliOp::I => {}
            }
        }

        let (pivot, transition_controls) = if split.transitions.is_empty() {
            (None, Vec::new())
        } else {
            let lad = transition_ladder(n, &split.transitions, ladder_style);
            circuit.append(&lad.circuit);
            circuit.h(lad.pivot);
            (Some(lad.pivot), lad.controls.clone())
        };

        // Paired Hermitian strings (no transitions) double: γÂ + γ*Â† = 2γÂ;
        // paired transition strings give γ(Â + Â†), whose diagonalised form
        // carries γ directly.
        let weight = if term.add_hc && split.transitions.is_empty() {
            2.0 * term.coeff.re
        } else {
            term.coeff.re
        };

        Self {
            basis_change: circuit,
            weight,
            pivot,
            transition_controls,
            key_controls: split.controls.clone(),
            pauli_qubits: split.pauli.iter().map(|&(q, _)| q).collect(),
            num_qubits: n,
        }
    }

    /// The eigenvalue contribution of one sampled bit string (a basis-state
    /// index measured *after* the basis-change circuit).
    pub fn contribution(&self, outcome: usize) -> f64 {
        let n = self.num_qubits;
        // The n/m projector must be satisfied.
        for &(q, v) in &self.key_controls {
            if qubit_bit(outcome, q, n) != v {
                return 0.0;
            }
        }
        // The non-pivot transition qubits must match the ladder pattern.
        for &(q, v) in &self.transition_controls {
            if qubit_bit(outcome, q, n) != v {
                return 0.0;
            }
        }
        let mut value = self.weight;
        // Pivot: H maps (|a⟩+|b⟩)/√2 → outcome 0 (+1), (|a⟩−|b⟩)/√2 → 1 (−1)
        // up to the pivot's own a-bit handled by the ladder construction.
        if let Some(p) = self.pivot {
            if qubit_bit(outcome, p, n) == 1 {
                value = -value;
            }
        }
        // Pauli family: product of Z eigenvalues after the local rotations.
        for &q in &self.pauli_qubits {
            if qubit_bit(outcome, q, n) == 1 {
                value = -value;
            }
        }
        value
    }

    /// Estimates `⟨ψ|H_term|ψ⟩` from `shots` samples drawn through an
    /// arbitrary [`Backend`] (fused, reference, or noisy trajectories); the
    /// backend's batched shot engine makes the draw `O(2^n + shots)` and
    /// bit-reproducible for a fixed `seed`.
    pub fn estimate(
        &self,
        backend: &dyn Backend,
        state: &StateVector,
        shots: usize,
        seed: u64,
    ) -> f64 {
        let initial = InitialState::from(state);
        let samples = backend
            .sample(&initial, &self.basis_change, shots, seed)
            .expect("dense backends sample basis-change circuits");
        samples.iter().map(|&s| self.contribution(s)).sum::<f64>() / shots as f64
    }

    /// Exact expectation using the rotated state's probabilities (infinite
    /// shots limit) — used to validate the estimator.
    pub fn exact(&self, state: &StateVector) -> f64 {
        let mut rotated = state.clone();
        rotated.run_fused(&self.basis_change);
        (0..rotated.dim())
            .map(|i| rotated.probability(i) * self.contribution(i))
            .sum()
    }

    /// Number of measurement settings the usual (Pauli-fragment) approach
    /// needs for the same term.
    pub fn usual_setting_count(term: &HermitianTerm) -> usize {
        term.to_pauli_sum()
            .terms()
            .iter()
            .filter(|(_, p)| p.weight() > 0)
            .count()
    }

    /// Number of measurement settings the usual approach needs after
    /// grouping its fragments into qubit-wise-commuting families
    /// ([`ghs_statevector::qwc_partition`]): all strings of a family are
    /// diagonalized by one local basis change, so they share one setting.
    /// Sits between the single direct setting of Annex C and the ungrouped
    /// [`TermMeasurement::usual_setting_count`].
    pub fn grouped_setting_count(term: &HermitianTerm) -> usize {
        let sum = term.to_pauli_sum();
        let weighted = ghs_operators::PauliSum::from_terms(
            sum.num_qubits(),
            sum.terms()
                .iter()
                .filter(|(_, p)| p.weight() > 0)
                .cloned()
                .collect(),
        );
        ghs_statevector::qwc_partition(&weighted).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FusedStatevector;
    use ghs_math::c64;
    use ghs_operators::{ScbOp, ScbString};
    use ghs_statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_expectation(term: &HermitianTerm, state: &StateVector) -> f64 {
        state.expectation_dense(&term.matrix()).re
    }

    fn check(term: &HermitianTerm, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = StateVector::random_state(term.num_qubits(), &mut rng);
        let meas = TermMeasurement::new(term, LadderStyle::Linear);
        let exact = exact_expectation(term, &state);
        let via_setting = meas.exact(&state);
        assert!(
            (exact - via_setting).abs() < 1e-9,
            "{term}: exact {exact} vs setting {via_setting}"
        );
        // Finite-shot estimate converges to the same value.
        let est = meas.estimate(&FusedStatevector, &state, 60_000, seed);
        assert!(
            (est - exact).abs() < 0.05,
            "{term}: estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn transition_only_term() {
        let term = HermitianTerm::paired(
            c64(0.7, 0.0),
            ScbString::new(vec![ScbOp::SigmaDag, ScbOp::Sigma, ScbOp::I]),
        );
        check(&term, 1);
    }

    #[test]
    fn transition_with_controls_and_pauli() {
        let term = HermitianTerm::paired(
            c64(-0.45, 0.0),
            ScbString::new(vec![ScbOp::N, ScbOp::SigmaDag, ScbOp::Z, ScbOp::Sigma]),
        );
        check(&term, 2);
    }

    #[test]
    fn diagonal_term() {
        let term = HermitianTerm::bare(1.2, ScbString::new(vec![ScbOp::N, ScbOp::M, ScbOp::I]));
        check(&term, 3);
    }

    #[test]
    fn pauli_term() {
        let term = HermitianTerm::bare(0.6, ScbString::new(vec![ScbOp::X, ScbOp::Y, ScbOp::I]));
        check(&term, 4);
    }

    #[test]
    fn backend_estimator_matches_exact_value() {
        use crate::backend::ReferenceStatevector;
        let term = HermitianTerm::paired(
            c64(0.6, 0.0),
            ScbString::new(vec![ScbOp::SigmaDag, ScbOp::N, ScbOp::Sigma]),
        );
        let mut rng = StdRng::seed_from_u64(31);
        let state = StateVector::random_state(term.num_qubits(), &mut rng);
        let meas = TermMeasurement::new(&term, LadderStyle::Linear);
        let exact = meas.exact(&state);
        for backend in [&FusedStatevector as &dyn Backend, &ReferenceStatevector] {
            let est = meas.estimate(backend, &state, 60_000, 9);
            assert!(
                (est - exact).abs() < 0.05,
                "{}: estimate {est} vs exact {exact}",
                backend.name()
            );
            // Seeded estimation is reproducible.
            let again = meas.estimate(backend, &state, 60_000, 9);
            assert_eq!(est, again);
        }
    }

    #[test]
    fn two_body_term_needs_sixteen_times_fewer_settings() {
        // Annex C: a two-body (σ†σ†σσ) contribution takes 2⁴ = 16 Pauli
        // settings but a single direct setting.
        let term = HermitianTerm::paired(
            c64(0.25, 0.0),
            ScbString::new(vec![
                ScbOp::SigmaDag,
                ScbOp::SigmaDag,
                ScbOp::Sigma,
                ScbOp::Sigma,
            ]),
        );
        check(&term, 5);
        let usual = TermMeasurement::usual_setting_count(&term);
        assert!(usual >= 8, "expected ≥ 8 Pauli settings, got {usual}");
        // QWC grouping cannot need more settings than the ungrouped count,
        // and one direct setting always suffices (the construction under
        // test).
        let grouped = TermMeasurement::grouped_setting_count(&term);
        assert!(grouped <= usual);
        assert!(grouped >= 1);
    }

    #[test]
    fn qwc_grouping_reduces_settings_for_mixed_terms() {
        // A projector-dressed transition expands into fragments that split
        // across few qubit-wise-commuting families.
        let term = HermitianTerm::paired(
            c64(0.5, 0.0),
            ScbString::new(vec![ScbOp::N, ScbOp::SigmaDag, ScbOp::Sigma, ScbOp::M]),
        );
        let usual = TermMeasurement::usual_setting_count(&term);
        let grouped = TermMeasurement::grouped_setting_count(&term);
        assert!(
            grouped < usual,
            "grouping should reduce {usual} settings, got {grouped}"
        );
    }
}
