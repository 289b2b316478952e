//! A QAOA driver over the HUBO phase separators, exercising the paper's
//! claim that the direct construction plugs straight into NISQ variational
//! routines (Section I and §VI-B).

use crate::circuits::{direct_phase_separator, usual_phase_separator};
use crate::problem::HuboProblem;
use ghs_circuit::{Circuit, LadderStyle, ParameterizedCircuit};
use ghs_core::backend::{Backend, FusedStatevector, InitialState};
use ghs_core::optimize::{minimize_adam, AdamOptions};
use ghs_statevector::{GroupedPauliSum, StateVector};
use rand::Rng;

/// Which phase-separator construction the QAOA circuit uses (both implement
/// the same unitary; they differ in gate counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeparatorStrategy {
    /// Multi-controlled phases on the boolean formalism.
    Direct,
    /// Pauli-`Z` string rotations on the Ising formalism.
    Usual,
}

/// QAOA parameters: one `(γ, β)` pair per layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QaoaParameters {
    /// Phase-separator angles.
    pub gammas: Vec<f64>,
    /// Mixer angles.
    pub betas: Vec<f64>,
}

impl QaoaParameters {
    /// All-zero parameters for `p` layers.
    pub fn zeros(p: usize) -> Self {
        Self {
            gammas: vec![0.0; p],
            betas: vec![0.0; p],
        }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.gammas.len()
    }

    /// Flat parameter-vector layout used by [`qaoa_parameterized`]:
    /// `[γ_0 … γ_{p−1}, β_0 … β_{p−1}]`.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = self.gammas.clone();
        v.extend_from_slice(&self.betas);
        v
    }

    /// Inverse of [`QaoaParameters::to_vec`].
    ///
    /// # Panics
    /// Panics when `v.len()` is odd.
    pub fn from_vec(v: &[f64]) -> Self {
        assert_eq!(v.len() % 2, 0, "flat QAOA vector must be [γ…, β…]");
        let p = v.len() / 2;
        Self {
            gammas: v[..p].to_vec(),
            betas: v[p..].to_vec(),
        }
    }
}

/// Builds the QAOA circuit `∏_l [mixer(β_l)·separator(γ_l)] · H^{⊗n}`.
pub fn qaoa_circuit(
    problem: &HuboProblem,
    params: &QaoaParameters,
    strategy: SeparatorStrategy,
) -> Circuit {
    assert_eq!(
        params.gammas.len(),
        params.betas.len(),
        "layer count mismatch"
    );
    let n = problem.num_vars().max(1);
    let mut c = Circuit::new(n);
    for q in 0..problem.num_vars() {
        c.h(q);
    }
    let ising = problem.to_ising();
    for (gamma, beta) in params.gammas.iter().zip(params.betas.iter()) {
        match strategy {
            SeparatorStrategy::Direct => c.append(&direct_phase_separator(problem, *gamma)),
            SeparatorStrategy::Usual => {
                c.append(&usual_phase_separator(&ising, *gamma, LadderStyle::Linear))
            }
        }
        for q in 0..problem.num_vars() {
            c.rx(q, 2.0 * beta);
        }
    }
    c
}

/// Builds the QAOA ansatz as a **parameterized circuit** over the flat
/// `[γ…, β…]` vector (see [`QaoaParameters::to_vec`]): every separator
/// phase is bound to its layer's `γ` and every mixer rotation to its
/// layer's `β` — both constructions are affine in the angles, so the
/// template is derived automatically from [`qaoa_circuit`]. This is the
/// object the adjoint gradient engine differentiates in
/// [`optimize_qaoa`]'s inner loop.
pub fn qaoa_parameterized(
    problem: &HuboProblem,
    layers: usize,
    strategy: SeparatorStrategy,
) -> ParameterizedCircuit {
    ParameterizedCircuit::from_linear_template(2 * layers, |v| {
        qaoa_circuit(problem, &QaoaParameters::from_vec(v), strategy)
    })
}

/// Expected cost `⟨ψ|C|ψ⟩` of the QAOA state through an execution
/// [`Backend`], evaluated matrix-free as the grouped expectation of a
/// **prepared** cost observable (`GroupedPauliSum::new` of
/// [`HuboProblem::to_pauli_sum`]; prepare it once per problem). With a noisy
/// trajectory backend this is the ensemble-averaged cost under the noise
/// channel.
pub fn qaoa_energy(
    backend: &dyn Backend,
    problem: &HuboProblem,
    observable: &GroupedPauliSum,
    params: &QaoaParameters,
    strategy: SeparatorStrategy,
) -> f64 {
    let circuit = qaoa_circuit(problem, params, strategy);
    backend
        .expectation(&InitialState::ZeroState, &circuit, observable)
        .expect("QAOA cost circuits run on any dense backend")
}

/// Draws `shots` assignments from the QAOA state through a backend's
/// batched shot engine (`O(2^n + shots)`; bit-reproducible per seed).
pub fn qaoa_sample(
    backend: &dyn Backend,
    problem: &HuboProblem,
    params: &QaoaParameters,
    strategy: SeparatorStrategy,
    shots: usize,
    seed: u64,
) -> Vec<usize> {
    let circuit = qaoa_circuit(problem, params, strategy);
    backend
        .sample(&InitialState::ZeroState, &circuit, shots, seed)
        .expect("QAOA circuits run on any dense backend")
}

/// Result of a QAOA optimisation run.
#[derive(Clone, Debug)]
pub struct QaoaResult {
    /// Optimised parameters.
    pub params: QaoaParameters,
    /// Final expected cost.
    pub energy: f64,
    /// Probability of sampling an optimal assignment (by brute force).
    pub optimum_probability: f64,
    /// The optimal cost found by brute force (reference).
    pub optimal_cost: f64,
}

/// Optimises QAOA angles by gradient descent: random restarts, each driven
/// by Adam over **adjoint-mode** gradients of the prepared cost observable
/// (every `γ`/`β` component from one forward + one reverse sweep, instead
/// of `O(P)` energy evaluations per step — the same engine behind
/// [`Backend::expectation_gradient`], called through
/// [`ghs_statevector::adjoint_gradient_into`] so one scratch circuit is
/// rebound in place across every iteration of the run).
pub fn optimize_qaoa<R: Rng>(
    problem: &HuboProblem,
    layers: usize,
    strategy: SeparatorStrategy,
    restarts: usize,
    iterations: usize,
    rng: &mut R,
) -> QaoaResult {
    let mut best_vec = QaoaParameters::zeros(layers).to_vec();
    let mut best_energy = f64::INFINITY;
    // One observable preparation and one ansatz template serve every
    // evaluation of the run.
    let observable = GroupedPauliSum::new(&problem.to_pauli_sum());
    let ansatz = qaoa_parameterized(problem, layers, strategy);
    // One scratch circuit serves every evaluation: the template is cloned
    // into it once, after which rebinding only overwrites bound angles.
    let mut scratch = Circuit::new(0);
    let zero = StateVector::zero_state(ansatz.num_qubits());
    let adam = AdamOptions {
        learning_rate: 0.08,
        max_iterations: iterations.max(1),
        gradient_tolerance: 1e-6,
        ..AdamOptions::default()
    };

    for _ in 0..restarts.max(1) {
        let x0: Vec<f64> = (0..2 * layers).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let result = minimize_adam(
            |v: &[f64]| {
                let r = ghs_statevector::adjoint_gradient_into(
                    &zero,
                    &ansatz,
                    v,
                    &observable,
                    &mut scratch,
                );
                (r.energy, r.gradient)
            },
            &x0,
            &adam,
        );
        if result.value < best_energy {
            best_energy = result.value;
            best_vec = result.params;
        }
    }
    let best_params = QaoaParameters::from_vec(&best_vec);

    // Probability of hitting a brute-force optimum.
    let (_, optimal_cost) = problem.brute_force_minimum();
    let circuit = qaoa_circuit(problem, &best_params, strategy);
    let probs = FusedStatevector
        .probabilities(&InitialState::ZeroState, &circuit)
        .expect("QAOA circuits run on the fused backend");
    let optimum_probability = probs
        .iter()
        .enumerate()
        .filter(|(x, _)| (problem.evaluate(*x) - optimal_cost).abs() < 1e-9)
        .map(|(_, p)| p)
        .sum();

    QaoaResult {
        params: best_params,
        energy: best_energy,
        optimum_probability,
        optimal_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_problem() -> HuboProblem {
        // A frustrated 4-variable instance.
        let mut p = HuboProblem::new(4);
        p.add_term(1.0, &[0, 1]);
        p.add_term(1.0, &[1, 2]);
        p.add_term(1.0, &[2, 3]);
        p.add_term(-2.0, &[0, 3]);
        p.add_term(-1.0, &[1]);
        p
    }

    fn fused_energy(p: &HuboProblem, params: &QaoaParameters, strategy: SeparatorStrategy) -> f64 {
        let observable = GroupedPauliSum::new(&p.to_pauli_sum());
        qaoa_energy(&FusedStatevector, p, &observable, params, strategy)
    }

    #[test]
    fn both_strategies_give_identical_energies() {
        let p = small_problem();
        let params = QaoaParameters {
            gammas: vec![0.7, -0.3],
            betas: vec![0.4, 0.2],
        };
        let e_direct = fused_energy(&p, &params, SeparatorStrategy::Direct);
        let e_usual = fused_energy(&p, &params, SeparatorStrategy::Usual);
        assert!((e_direct - e_usual).abs() < 1e-9);
    }

    #[test]
    fn grouped_expectation_matches_probability_weighted_cost() {
        // The matrix-free observable path must equal the old
        // probability-sweep definition Σ_x P(x)·C(x).
        let p = small_problem();
        let params = QaoaParameters {
            gammas: vec![0.6, -0.2],
            betas: vec![0.3, 0.5],
        };
        let circuit = qaoa_circuit(&p, &params, SeparatorStrategy::Direct);
        let classical: f64 = FusedStatevector
            .probabilities(&InitialState::ZeroState, &circuit)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(x, prob)| prob * p.evaluate(x))
            .sum();
        let e = fused_energy(&p, &params, SeparatorStrategy::Direct);
        assert!((e - classical).abs() < 1e-12, "{e} vs {classical}");
    }

    #[test]
    fn zero_parameters_give_uniform_average_cost() {
        let p = small_problem();
        let params = QaoaParameters::zeros(1);
        let e = fused_energy(&p, &params, SeparatorStrategy::Direct);
        let avg: f64 = (0..(1usize << 4)).map(|x| p.evaluate(x)).sum::<f64>() / 16.0;
        assert!((e - avg).abs() < 1e-9);
    }

    #[test]
    fn backend_energies_agree_and_sampling_is_seeded() {
        use ghs_core::backend::{PauliNoise, ReferenceStatevector};
        let p = small_problem();
        let params = QaoaParameters {
            gammas: vec![0.5],
            betas: vec![0.3],
        };
        let obs = GroupedPauliSum::new(&p.to_pauli_sum());
        let direct = SeparatorStrategy::Direct;
        let e_fused = qaoa_energy(&FusedStatevector, &p, &obs, &params, direct);
        let e_ref = qaoa_energy(&ReferenceStatevector, &p, &obs, &params, direct);
        assert!((e_fused - e_ref).abs() < 1e-12);
        // A zero-strength noise backend reproduces the noiseless energy.
        let quiet = PauliNoise::depolarizing(0.0, 3, 1);
        let e_quiet = qaoa_energy(&quiet, &p, &obs, &params, direct);
        assert!((e_quiet - e_fused).abs() < 1e-12);
        // Seeded batched sampling is reproducible and in-range.
        let shots = qaoa_sample(
            &FusedStatevector,
            &p,
            &params,
            SeparatorStrategy::Direct,
            2048,
            3,
        );
        assert_eq!(
            shots,
            qaoa_sample(
                &FusedStatevector,
                &p,
                &params,
                SeparatorStrategy::Direct,
                2048,
                3
            )
        );
        assert!(shots.iter().all(|&x| x < 16));
    }

    #[test]
    fn optimisation_improves_over_uniform() {
        let p = small_problem();
        let mut rng = StdRng::seed_from_u64(23);
        let uniform = fused_energy(&p, &QaoaParameters::zeros(1), SeparatorStrategy::Direct);
        let result = optimize_qaoa(&p, 2, SeparatorStrategy::Direct, 2, 80, &mut rng);
        assert!(
            result.energy < uniform - 0.1,
            "QAOA failed to improve: {} vs {uniform}",
            result.energy
        );
        assert!(result.optimum_probability > 1.0 / 16.0);
        assert!(result.energy >= result.optimal_cost - 1e-9);
    }

    #[test]
    fn parameterized_ansatz_matches_direct_construction() {
        let p = small_problem();
        for strategy in [SeparatorStrategy::Direct, SeparatorStrategy::Usual] {
            let ansatz = qaoa_parameterized(&p, 2, strategy);
            assert_eq!(ansatz.num_params(), 4);
            for params in [
                QaoaParameters::zeros(2),
                QaoaParameters {
                    gammas: vec![0.7, -0.3],
                    betas: vec![0.4, 0.2],
                },
            ] {
                assert_eq!(
                    ansatz.bind(&params.to_vec()),
                    qaoa_circuit(&p, &params, strategy),
                    "{strategy:?} binding diverged at {params:?}"
                );
            }
        }
    }

    #[test]
    fn qaoa_gradients_agree_adjoint_vs_shift() {
        use ghs_core::parameter_shift_gradient;
        let p = small_problem();
        let ansatz = qaoa_parameterized(&p, 2, SeparatorStrategy::Direct);
        let observable = GroupedPauliSum::new(&p.to_pauli_sum());
        let zero = InitialState::ZeroState;
        let v = [0.5, -0.2, 0.3, 0.8];
        let backend = FusedStatevector;
        let (e_adj, g_adj) = backend
            .expectation_gradient(&zero, &ansatz, &v, &observable)
            .unwrap();
        let (e_shift, g_shift) =
            parameter_shift_gradient(&backend, &zero, &ansatz, &v, &observable).unwrap();
        assert!((e_adj - e_shift).abs() < 1e-10);
        for (a, s) in g_adj.iter().zip(&g_shift) {
            assert!((a - s).abs() < 1e-8, "{a} vs {s}");
        }
        // Round trip of the flat layout.
        let qp = QaoaParameters::from_vec(&v);
        assert_eq!(qp.to_vec(), v.to_vec());
        assert_eq!(qp.layers(), 2);
    }
}
