//! H₂ / STO-3G ground-state estimation with a UCCSD ansatz whose factors are
//! exact electronic transitions (Section V-B of the paper), plus the
//! direct-vs-usual Trotter error comparison for the full Hamiltonian.
//!
//! Run with `cargo run --example chemistry_h2`.

use gate_efficient_hs::chemistry::{
    h2_sto3g, run_vqe, transition_resources, trotter_error_sweep, uccsd_pool, ElectronicTransition,
};
use gate_efficient_hs::core::{DirectOptions, FusedStatevector, ProductFormula};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let model = h2_sto3g();
    println!(
        "model: {} on {} spin orbitals",
        model.name,
        model.num_qubits()
    );

    let fci = model.exact_ground_energy(4000);
    println!("exact (FCI) ground energy  : {fci:.6} Ha");

    // Individual electronic transitions are exact single-rotation circuits.
    let t = ElectronicTransition::two_body(0.25, 0, 1, 2, 3, model.num_qubits()).unwrap();
    let res = transition_resources(&t, &DirectOptions::linear());
    println!(
        "double excitation {}: 1 rotation, {} two-qubit gates, depth {} (usual strategy: {} Pauli fragments)",
        t.label, res.two_qubit, res.depth, res.usual_fragments
    );

    // UCCSD-VQE, gradient-based: run_vqe drives the shared
    // ghs_core::optimize Adam loop with adjoint-mode gradients (every
    // iteration gets the full gradient from one forward + one reverse
    // sweep, instead of O(P) coordinate probes).
    let pool = uccsd_pool(&model);
    println!(
        "UCCSD pool: {:?}",
        pool.iter().map(|e| e.label.clone()).collect::<Vec<_>>()
    );
    let mut rng = StdRng::seed_from_u64(7);
    let vqe = run_vqe(&model, &DirectOptions::linear(), 1, 200, &mut rng);
    println!(
        "Hartree-Fock energy        : {:.6} Ha",
        vqe.hartree_fock_energy
    );
    println!(
        "UCCSD-VQE energy           : {:.6} Ha  (error vs FCI: {:.2e} Ha, {} gradient evaluations, converged: {})",
        vqe.energy,
        (vqe.energy - fci).abs(),
        vqe.evaluations,
        vqe.converged
    );

    // Full-Hamiltonian Trotter error, direct vs usual grouping.
    println!("\nfirst-order Trotter error at t = 0.5 (state-level, HF start):");
    println!("steps | direct (SCB terms) | usual (Pauli fragments)");
    for row in trotter_error_sweep(
        &FusedStatevector,
        &model,
        0.5,
        &[1, 2, 4, 8],
        ProductFormula::First,
    ) {
        println!(
            "{:5} | {:.6} ({} factors) | {:.6} ({} factors)",
            row.steps, row.direct_error, row.direct_factors, row.usual_error, row.usual_factors
        );
    }
}
