//! Criterion benches of the three applications (Section V): HUBO phase
//! separators and QAOA energies, chemistry Hamiltonian construction and VQE
//! energy evaluation, FDM decomposition and the classical reference solver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ghs_chemistry::{h2_sto3g, hubbard_chain, uccsd_energy, uccsd_pool};
use ghs_core::{DirectOptions, FusedStatevector};
use ghs_fdm::{laplacian_1d, laplacian_2d, solve_poisson, BoundaryCondition};
use ghs_hubo::{
    direct_phase_separator, qaoa_energy, random_sparse_hubo, usual_phase_separator, QaoaParameters,
    SeparatorStrategy,
};
use ghs_statevector::GroupedPauliSum;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hubo_separators(c: &mut Criterion) {
    let mut group = c.benchmark_group("hubo_phase_separator");
    let mut rng = StdRng::seed_from_u64(11);
    for &(vars, order) in &[(10usize, 4usize), (14, 6), (18, 8)] {
        let p = random_sparse_hubo(vars, order, 6, &mut rng);
        let ising = p.to_ising();
        group.bench_with_input(
            BenchmarkId::new("direct", format!("{vars}v-o{order}")),
            &p,
            |b, p| b.iter(|| direct_phase_separator(p, 0.7).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("usual", format!("{vars}v-o{order}")),
            &ising,
            |b, ising| {
                b.iter(|| usual_phase_separator(ising, 0.7, ghs_circuit::LadderStyle::Linear).len())
            },
        );
    }
    group.finish();
}

fn bench_qaoa_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("qaoa_energy");
    let mut rng = StdRng::seed_from_u64(5);
    for &vars in &[8usize, 12] {
        let p = random_sparse_hubo(vars, 3, 8, &mut rng);
        let params = QaoaParameters {
            gammas: vec![0.4, -0.2],
            betas: vec![0.3, 0.1],
        };
        // The observable is built inside the timed closure: the timing
        // covers preparation plus one evaluation.
        group.bench_with_input(BenchmarkId::from_parameter(vars), &p, |b, p| {
            b.iter(|| {
                let cost = GroupedPauliSum::new(&p.to_pauli_sum());
                qaoa_energy(
                    &FusedStatevector,
                    p,
                    &cost,
                    &params,
                    SeparatorStrategy::Direct,
                )
            })
        });
    }
    group.finish();
}

fn bench_chemistry(c: &mut Criterion) {
    let mut group = c.benchmark_group("chemistry");
    group.bench_function("h2_qubit_hamiltonian", |b| {
        let model = h2_sto3g();
        b.iter(|| model.qubit_hamiltonian().num_terms())
    });
    group.bench_function("hubbard3_qubit_hamiltonian", |b| {
        let model = hubbard_chain(3, 1.0, 2.0, false);
        b.iter(|| model.qubit_hamiltonian().num_terms())
    });
    group.bench_function("h2_uccsd_energy_eval", |b| {
        let model = h2_sto3g();
        let pool = uccsd_pool(&model);
        let thetas = vec![0.05; pool.len()];
        b.iter(|| {
            let observable = model.grouped_observable();
            let opts = DirectOptions::linear();
            uccsd_energy(
                &FusedStatevector,
                &model,
                &observable,
                &pool,
                &thetas,
                &opts,
            )
        })
    });
    group.finish();
}

fn bench_fdm(c: &mut Criterion) {
    let mut group = c.benchmark_group("fdm");
    for &k in &[6usize, 10] {
        group.bench_with_input(
            BenchmarkId::new("laplacian_1d_decomposition", k),
            &k,
            |b, &k| b.iter(|| laplacian_1d(k, 1.0, BoundaryCondition::Dirichlet).num_terms()),
        );
    }
    group.bench_function("laplacian_2d_decomposition_8x8", |b| {
        b.iter(|| laplacian_2d(3, 3, 1.0, BoundaryCondition::Dirichlet).num_terms())
    });
    group.bench_function("poisson_solve_64_nodes", |b| {
        let rhs = vec![1.0; 64];
        b.iter(|| solve_poisson(&[6], 0.05, BoundaryCondition::Dirichlet, &rhs))
    });
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
    targets = bench_hubo_separators, bench_qaoa_energy, bench_chemistry, bench_fdm);
criterion_main!(benches);
