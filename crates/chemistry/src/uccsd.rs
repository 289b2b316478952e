//! UCCSD-style ansatz and a VQE-lite driver (Section V-B3 of the paper:
//! "ansatz such as UCCSD thus mimic a series of electronic transitions
//! without error").
//!
//! Every excitation operator `T − T†` is anti-Hermitian; writing `γ = i` the
//! paired SCB term `γÂ + γ*Â†` equals `i(Â − Â†)`, so the direct construction
//! `exp(−iθ(γÂ + γ*Â†)) = exp(θ(Â − Â†))` realises each UCCSD factor exactly
//! with a single rotation.

use crate::models::ElectronicModel;
use ghs_circuit::{Circuit, ParameterizedCircuit};
use ghs_core::backend::{Backend, InitialState};
use ghs_core::optimize::{minimize_adam, AdamOptions};
use ghs_core::{direct_term_circuit, DirectOptions};
use ghs_math::Complex64;
use ghs_operators::{FermionTerm, HermitianTerm};
use ghs_statevector::{GroupedPauliSum, StateVector};
use rand::Rng;

/// One excitation operator of the UCCSD pool.
#[derive(Clone, Debug)]
pub struct Excitation {
    /// Label such as `"0→2"` or `"01→23"`.
    pub label: String,
    /// The SCB term whose direct exponential realises
    /// `exp(θ(T − T†))` when evolved by angle `θ`.
    pub term: HermitianTerm,
}

/// Builds the singles + doubles excitation pool of a model, using the
/// Hartree–Fock occupation to split occupied and virtual spin orbitals.
/// Spin-conserving singles and paired doubles only (sufficient for the small
/// molecules and chains of the examples).
pub fn uccsd_pool(model: &ElectronicModel) -> Vec<Excitation> {
    let n = model.num_qubits();
    let occupied: Vec<usize> = (0..model.num_electrons).collect();
    let virtuals: Vec<usize> = (model.num_electrons..n).collect();
    let mut pool = Vec::new();

    let anti_hermitian_term = |f: &FermionTerm| -> Option<HermitianTerm> {
        let mapped = f.jordan_wigner(n)?;
        if mapped.string.is_hermitian() {
            // T = T† → T − T† = 0: not a useful excitation.
            return None;
        }
        Some(HermitianTerm::paired(
            mapped.coeff * Complex64::I,
            mapped.string,
        ))
    };

    // Singles: occupied i → virtual a with the same spin (index parity).
    for &i in &occupied {
        for &a in &virtuals {
            if i % 2 != a % 2 {
                continue;
            }
            let f = FermionTerm::one_body(Complex64::ONE, a, i);
            if let Some(term) = anti_hermitian_term(&f) {
                pool.push(Excitation {
                    label: format!("{i}→{a}"),
                    term,
                });
            }
        }
    }
    // Doubles: pairs (i < j) occupied → (a < b) virtual with overall spin
    // conservation.
    for (ii, &i) in occupied.iter().enumerate() {
        for &j in &occupied[ii + 1..] {
            for (aa, &a) in virtuals.iter().enumerate() {
                for &b in &virtuals[aa + 1..] {
                    if (i % 2 + j % 2) != (a % 2 + b % 2) {
                        continue;
                    }
                    let f = FermionTerm::two_body(Complex64::ONE, a, b, j, i);
                    if let Some(term) = anti_hermitian_term(&f) {
                        pool.push(Excitation {
                            label: format!("{i}{j}→{a}{b}"),
                            term,
                        });
                    }
                }
            }
        }
    }
    pool
}

/// Builds the UCCSD ansatz circuit
/// `∏_k exp(θ_k (T_k − T_k†)) · |HF⟩-preparation` (first-order Trotterised
/// product over the pool, each factor exact).
pub fn uccsd_circuit(
    model: &ElectronicModel,
    pool: &[Excitation],
    thetas: &[f64],
    opts: &DirectOptions,
) -> Circuit {
    assert_eq!(pool.len(), thetas.len(), "one angle per excitation");
    let n = model.num_qubits();
    let mut c = Circuit::new(n);
    // Hartree–Fock reference preparation: X on the occupied spin orbitals.
    for q in 0..model.num_electrons {
        c.x(q);
    }
    for (exc, &theta) in pool.iter().zip(thetas.iter()) {
        c.append(&direct_term_circuit(&exc.term, theta, opts));
    }
    c
}

/// Builds the UCCSD ansatz as a **parameterized circuit** — one symbolic
/// parameter per pool excitation, bound to every rotation its direct
/// exponential carries (the construction is affine in each excitation
/// amplitude, so the template is derived automatically from
/// [`uccsd_circuit`]).
///
/// The template is the object the gradient engine differentiates: an
/// optimization run clones it once into a scratch circuit, then every
/// energy/gradient evaluation only rebinds angles in place and reuses the
/// cached fusion plan.
pub fn uccsd_parameterized(
    model: &ElectronicModel,
    pool: &[Excitation],
    opts: &DirectOptions,
) -> ParameterizedCircuit {
    ParameterizedCircuit::from_linear_template(pool.len(), |thetas| {
        uccsd_circuit(model, pool, thetas, opts)
    })
}

/// Energy of the ansatz at the given angles through an execution
/// [`Backend`], against a **prepared** matrix-free observable
/// ([`ElectronicModel::grouped_observable`]; prepare it once per model). The
/// evaluation goes through [`Backend::expectation`], so a stochastic backend
/// reports the ensemble-averaged energy under its noise channel.
pub fn uccsd_energy(
    backend: &dyn Backend,
    model: &ElectronicModel,
    observable: &GroupedPauliSum,
    pool: &[Excitation],
    thetas: &[f64],
    opts: &DirectOptions,
) -> f64 {
    let circuit = uccsd_circuit(model, pool, thetas, opts);
    backend
        .expectation(&InitialState::ZeroState, &circuit, observable)
        .expect("dense backends evaluate UCCSD circuits")
        + model.energy_offset
}

/// Result of a VQE run.
#[derive(Clone, Debug)]
pub struct VqeResult {
    /// Optimised angles (one per pool excitation).
    pub thetas: Vec<f64>,
    /// Final variational energy (includes the model's constant offset).
    pub energy: f64,
    /// Hartree–Fock reference energy.
    pub hartree_fock_energy: f64,
    /// Number of energy+gradient evaluations performed (each one adjoint
    /// sweep pair).
    pub evaluations: usize,
    /// True when any restart hit the optimizer's gradient tolerance before
    /// its iteration cap.
    pub converged: bool,
}

/// Gradient-based VQE: Adam over the excitation angles, driven by
/// **adjoint-mode** gradients (one forward + one reverse sweep per
/// iteration, every component at once — the same engine behind
/// [`Backend::expectation_gradient`], called through
/// [`ghs_statevector::adjoint_gradient_into`] so one scratch circuit is
/// rebound in place across every iteration of the run). Restart 0 starts
/// from the Hartree–Fock point (all angles zero); further restarts draw
/// random starting angles from `rng`.
pub fn run_vqe<R: Rng>(
    model: &ElectronicModel,
    opts: &DirectOptions,
    restarts: usize,
    iterations: usize,
    rng: &mut R,
) -> VqeResult {
    let pool = uccsd_pool(model);
    // One observable preparation and one ansatz template serve every
    // evaluation of the run.
    let observable = model.grouped_observable();
    let ansatz = uccsd_parameterized(model, &pool, opts);
    // One scratch circuit serves every evaluation: the template is cloned
    // into it once, after which rebinding only overwrites bound angles.
    let mut scratch = Circuit::new(0);
    let zero = StateVector::zero_state(model.num_qubits());
    let hf_state = StateVector::basis_state(model.num_qubits(), model.hartree_fock_state());
    let hartree_fock_energy = model.energy_with_observable(&observable, hf_state.amplitudes());

    let adam = AdamOptions {
        learning_rate: 0.08,
        max_iterations: iterations.max(1),
        gradient_tolerance: 1e-7,
        ..AdamOptions::default()
    };

    let mut best_thetas = vec![0.0; pool.len()];
    let mut best_energy = f64::INFINITY;
    let mut evaluations = 0usize;
    let mut converged = false;

    for restart in 0..restarts.max(1) {
        let x0: Vec<f64> = if restart == 0 {
            vec![0.0; pool.len()]
        } else {
            (0..pool.len()).map(|_| rng.gen_range(-0.3..0.3)).collect()
        };
        let result = minimize_adam(
            |thetas: &[f64]| {
                let r = ghs_statevector::adjoint_gradient_into(
                    &zero,
                    &ansatz,
                    thetas,
                    &observable,
                    &mut scratch,
                );
                (r.energy + model.energy_offset, r.gradient)
            },
            &x0,
            &adam,
        );
        evaluations += result.evaluations;
        converged |= result.converged;
        if result.value < best_energy {
            best_energy = result.value;
            best_thetas = result.params;
        }
    }

    VqeResult {
        thetas: best_thetas,
        energy: best_energy,
        hartree_fock_energy,
        evaluations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{h2_sto3g, hubbard_chain};
    use ghs_math::expm_minus_i_theta;
    use ghs_statevector::circuit_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pool_of_h2_has_expected_excitations() {
        let model = h2_sto3g();
        let pool = uccsd_pool(&model);
        // Two spin-conserving singles (0→2, 1→3) and one paired double (01→23).
        let labels: Vec<&str> = pool.iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"0→2"));
        assert!(labels.contains(&"1→3"));
        assert!(labels.contains(&"01→23"));
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn excitation_factor_is_exact_orthogonal_rotation() {
        // exp(θ(T − T†)) must be exactly the dense exponential of the
        // anti-Hermitian generator.
        let model = h2_sto3g();
        let pool = uccsd_pool(&model);
        let theta = 0.37;
        for exc in &pool {
            let c = direct_term_circuit(&exc.term, theta, &DirectOptions::linear());
            let u = circuit_unitary(&c);
            let expect = expm_minus_i_theta(&exc.term.matrix(), theta);
            assert!(u.approx_eq(&expect, 1e-9), "{}", exc.label);
            // The generator is i(T − T†): Hermitian, traceless on its support.
            assert!(exc.term.matrix().is_hermitian(1e-10));
        }
    }

    #[test]
    fn parameterized_ansatz_matches_direct_construction() {
        let model = h2_sto3g();
        let pool = uccsd_pool(&model);
        let ansatz = uccsd_parameterized(&model, &pool, &DirectOptions::linear());
        assert_eq!(ansatz.num_params(), pool.len());
        for thetas in [vec![0.0; 3], vec![0.2, -0.4, 0.9], vec![-1.1, 0.3, 0.05]] {
            assert_eq!(
                ansatz.bind(&thetas),
                uccsd_circuit(&model, &pool, &thetas, &DirectOptions::linear()),
                "binding diverged at {thetas:?}"
            );
        }
    }

    #[test]
    fn ansatz_gradients_agree_adjoint_vs_shift() {
        use ghs_core::{parameter_shift_gradient, FusedStatevector};
        let model = h2_sto3g();
        let pool = uccsd_pool(&model);
        let ansatz = uccsd_parameterized(&model, &pool, &DirectOptions::linear());
        let observable = model.grouped_observable();
        let zero = InitialState::ZeroState;
        let thetas = [0.13, -0.27, 0.41];
        let backend = FusedStatevector;
        let (e_adj, g_adj) = backend
            .expectation_gradient(&zero, &ansatz, &thetas, &observable)
            .unwrap();
        let (e_shift, g_shift) =
            parameter_shift_gradient(&backend, &zero, &ansatz, &thetas, &observable).unwrap();
        assert!((e_adj - e_shift).abs() < 1e-10);
        for (a, s) in g_adj.iter().zip(&g_shift) {
            assert!((a - s).abs() < 1e-8, "{a} vs {s}");
        }
    }

    #[test]
    fn vqe_reaches_fci_for_h2() {
        let model = h2_sto3g();
        let mut rng = StdRng::seed_from_u64(7);
        let result = run_vqe(&model, &DirectOptions::linear(), 1, 200, &mut rng);
        let fci = model.exact_ground_energy(3000);
        assert!(result.energy <= result.hartree_fock_energy + 1e-9);
        assert!(
            (result.energy - fci).abs() < 2e-3,
            "VQE {} vs FCI {fci}",
            result.energy
        );
    }

    #[test]
    fn vqe_improves_hubbard_over_hartree_fock() {
        let model = hubbard_chain(2, 1.0, 2.0, false);
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_vqe(&model, &DirectOptions::linear(), 2, 150, &mut rng);
        assert!(result.energy < result.hartree_fock_energy - 1e-3);
        let exact = model.exact_ground_energy(3000);
        assert!(result.energy >= exact - 1e-6);
    }
}
