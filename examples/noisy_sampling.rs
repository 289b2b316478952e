//! Pluggable backends and the batched shot engine: runs the same QAOA
//! circuit through the fused, reference and stochastic Pauli-noise
//! backends, sweeps the noise strength, and draws a 4096-shot histogram
//! through the cached alias sampler.
//!
//! Run with `cargo run --release --example noisy_sampling`.
//! CI runs this in the smoke job and archives the output next to
//! `BENCH.json`.

use gate_efficient_hs::core::backend::{
    Backend, FusedStatevector, InitialState, PauliNoise, ReferenceStatevector,
};
use gate_efficient_hs::hubo::{
    qaoa_circuit, qaoa_energy, qaoa_sample, random_sparse_hubo, QaoaParameters, SeparatorStrategy,
};
use gate_efficient_hs::statevector::GroupedPauliSum;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A sparse order-3 HUBO on 8 variables and a fixed two-layer QAOA
    // schedule (the point here is the execution engines, not the angles).
    let mut rng = StdRng::seed_from_u64(11);
    let problem = random_sparse_hubo(8, 3, 16, &mut rng);
    let params = QaoaParameters {
        gammas: vec![0.45, -0.25],
        betas: vec![0.65, 0.35],
    };
    let strategy = SeparatorStrategy::Direct;
    let circuit = qaoa_circuit(&problem, &params, strategy);
    let cost = GroupedPauliSum::new(&problem.to_pauli_sum());
    println!(
        "QAOA circuit: {} qubits, {} gates, depth {}",
        circuit.num_qubits(),
        circuit.len(),
        circuit.depth()
    );

    // ---- 1. the same energy through three interchangeable backends --------
    let fused = FusedStatevector;
    let reference = ReferenceStatevector;
    let quiet = PauliNoise::depolarizing(0.0, 5, 3);
    println!("\nnoiseless energy through each backend:");
    for backend in [&fused as &dyn Backend, &reference, &quiet] {
        let e = qaoa_energy(backend, &problem, &cost, &params, strategy);
        println!("  {:<24} E = {e:+.12}", backend.name());
    }

    // ---- 2. noise sweep: depolarizing strength vs ensemble energy ---------
    println!("\ndepolarizing sweep (10 trajectories, seed 3):");
    let ideal = qaoa_energy(&fused, &problem, &cost, &params, strategy);
    for p in [0.0, 0.002, 0.01, 0.05] {
        let noisy = PauliNoise::depolarizing(p, 10, 3);
        let e = qaoa_energy(&noisy, &problem, &cost, &params, strategy);
        println!(
            "  p = {p:<6} E = {e:+.6}   drift from ideal = {:+.6}",
            e - ideal
        );
    }

    // ---- 3. batched shots: 4096 draws from the cached distribution --------
    let shots = 4096;
    let seed = 7;
    let samples = qaoa_sample(&fused, &problem, &params, strategy, shots, seed);
    let mut counts = vec![0usize; 1 << circuit.num_qubits()];
    for &s in &samples {
        counts[s] += 1;
    }
    let mut top: Vec<usize> = (0..counts.len()).collect();
    top.sort_by(|&a, &b| counts[b].cmp(&counts[a]));
    println!("\ntop assignments of {shots} batched shots (seed {seed}):");
    for &x in top.iter().take(5) {
        println!(
            "  x = {x:08b}  count = {:<4} C(x) = {:+.3}",
            counts[x],
            problem.evaluate(x)
        );
    }

    // ---- 4. determinism guarantee -----------------------------------------
    let again = qaoa_sample(&fused, &problem, &params, strategy, shots, seed);
    println!(
        "\nseeded batch reproducibility: {}",
        if samples == again {
            "bit-identical"
        } else {
            "MISMATCH (bug!)"
        }
    );

    // The noisy ensemble samples through the same batched engine. Compare
    // against the ideal *probabilities*, not the finite ideal histogram:
    // count shots on assignments the ideal state visits only rarely.
    let noisy = PauliNoise::depolarizing(0.02, 10, 3);
    let zero = InitialState::ZeroState;
    let ideal_probs = fused
        .probabilities(&zero, &circuit)
        .expect("QAOA circuits run on the fused backend");
    let noisy_samples = noisy
        .sample(&zero, &circuit, shots, seed)
        .expect("QAOA circuits run on the noisy backend");
    let rare = 1e-3;
    let ideal_rare_mass: f64 = ideal_probs.iter().filter(|&&p| p < rare).sum();
    let leaked = noisy_samples
        .iter()
        .filter(|&&s| ideal_probs[s] < rare)
        .count();
    println!(
        "noisy backend: {leaked}/{shots} shots ({:.2}%) on assignments with ideal probability \
         < {rare} (ideal mass there: {:.2}%)",
        100.0 * leaked as f64 / shots as f64,
        100.0 * ideal_rare_mass
    );
}
