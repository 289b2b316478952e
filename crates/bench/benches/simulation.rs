//! Criterion benches of the simulation substrate: state-vector gate kernels,
//! full direct-vs-usual Trotter slices, the sparse exponential action used
//! for large-register verification, and the diagonal Pauli-sum readout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ghs_bench::perf::chain_hamiltonian;
use ghs_circuit::{Circuit, ControlBit, LadderStyle};
use ghs_core::{direct_hamiltonian_slice, usual_hamiltonian_slice, DirectOptions};
use ghs_math::{c64, expm_multiply_minus_i_theta};
use ghs_operators::{PauliOp, PauliString, PauliSum};
use ghs_statevector::{GroupedPauliSum, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn bench_statevector_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_gates");
    for &n in &[12usize, 16, 18] {
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.h(q);
        }
        for q in 0..n - 1 {
            circuit.cx(q, q + 1);
        }
        circuit.mcrx((0..4).map(ControlBit::one).collect(), n - 1, 0.3);
        group.bench_with_input(BenchmarkId::new("unfused", n), &circuit, |b, circuit| {
            b.iter(|| {
                let mut s = StateVector::zero_state(n);
                s.run_unfused(circuit);
                s.probability(0)
            })
        });
        let fused = circuit.fused();
        group.bench_with_input(BenchmarkId::new("fused", n), &fused, |b, fused| {
            b.iter(|| {
                let mut s = StateVector::zero_state(n);
                s.apply_fused(fused);
                s.probability(0)
            })
        });
    }
    group.finish();
}

fn bench_fusion_pass(c: &mut Criterion) {
    // Cost of the fusion pass itself (pure circuit analysis, no simulation).
    let mut group = c.benchmark_group("fusion_pass");
    for &n in &[10usize, 14] {
        let h = chain_hamiltonian(n);
        let slice = direct_hamiltonian_slice(&h, 0.2, &DirectOptions::linear());
        group.bench_with_input(BenchmarkId::from_parameter(n), &slice, |b, circ| {
            b.iter(|| circ.fused().ops().len())
        });
    }
    group.finish();
}

fn bench_trotter_slice_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trotter_slice");
    for &n in &[6usize, 10, 14] {
        let h = chain_hamiltonian(n);
        let direct = direct_hamiltonian_slice(&h, 0.2, &DirectOptions::linear());
        let usual = usual_hamiltonian_slice(&h.to_pauli_sum(), 0.2, LadderStyle::Linear);
        group.bench_with_input(BenchmarkId::new("direct", n), &direct, |b, circ| {
            b.iter(|| {
                let mut s = StateVector::zero_state(n);
                s.run_fused(circ);
                s.probability(0)
            })
        });
        group.bench_with_input(BenchmarkId::new("usual", n), &usual, |b, circ| {
            b.iter(|| {
                let mut s = StateVector::zero_state(n);
                s.run_fused(circ);
                s.probability(0)
            })
        });
    }
    group.finish();
}

fn bench_sparse_exponential_action(c: &mut Criterion) {
    let mut group = c.benchmark_group("expm_multiply");
    for &n in &[10usize, 14] {
        let h = chain_hamiltonian(n).sparse_matrix();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let psi = StateVector::random_state(n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| expm_multiply_minus_i_theta(h, 0.4, psi.amplitudes()))
        });
    }
    group.finish();
}

/// `terms` distinct random Z-strings on `n` qubits with random weights.
fn random_z_sum(n: usize, terms: usize, rng: &mut StdRng) -> PauliSum {
    let mut masks = BTreeSet::new();
    while masks.len() < terms {
        masks.insert(rng.gen_range(1..1usize << n));
    }
    let mut sum = PauliSum::zero(n);
    for mask in masks {
        let qubits: Vec<usize> = (0..n).filter(|q| mask >> q & 1 == 1).collect();
        sum.push(
            c64(rng.gen_range(-1.0..1.0), 0.0),
            PauliString::with_op_on(n, PauliOp::Z, &qubits),
        );
    }
    sum
}

fn bench_diagonal_readout(c: &mut Criterion) {
    // Diagonal (Z-only) Pauli sums of T strings: the cost readout of a HUBO
    // expanded to Ising form (`hubo_cold` reads T = 116 at n = 16) and the
    // λ = H|ψ⟩ seed of the adjoint gradient.
    let mut group = c.benchmark_group("diagonal_readout");
    for &n in &[12usize, 16, 20] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let psi = StateVector::random_state(n, &mut rng);
        for &terms in &[1usize, 2, 4, 8, 16, 64, 116] {
            let observable = GroupedPauliSum::new(&random_z_sum(n, terms, &mut rng));
            group.bench_with_input(
                BenchmarkId::new(format!("expectation/n{n}"), terms),
                &observable,
                |b, obs| b.iter(|| obs.expectation(psi.amplitudes())),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("apply/n{n}"), terms),
                &observable,
                |b, obs| b.iter(|| obs.apply(psi.amplitudes())),
            );
        }
    }
    group.finish();
}

fn configured() -> Criterion {
    // Keep the full-workspace bench run short: the quantities of interest are
    // coarse scaling trends, not sub-percent timing resolution.
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
}

criterion_group!(
    name = benches;
    config = configured();
    targets =
    bench_statevector_gates,
    bench_fusion_pass,
    bench_trotter_slice_simulation,
    bench_sparse_exponential_action,
    bench_diagonal_readout
);
criterion_main!(benches);
