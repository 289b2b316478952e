//! Property and regression tests of the matrix-free grouped Pauli
//! expectation engine, oracle-checked by the shared testkit:
//!
//! * matrix-free `expectation` ≡ `expectation_sparse` to 1e-12 on random
//!   2–10 qubit states and Pauli sums (Z-only, X/Y-heavy and mixed-group
//!   operator mixes), across all three execution backends — including the
//!   stochastic backend at non-zero strength, whose ensemble loop averages
//!   both functionals over the *same* seeded trajectories;
//! * grouped evaluation is bit-identical with the parallel threshold forced
//!   to 0 (always parallel) vs effectively infinite (never parallel);
//! * `PauliNoise` at zero strength matches the noiseless reference value
//!   exactly (bit-equal), not just to tolerance;
//! * the QWC partition really is qubit-wise commuting and never needs more
//!   settings than there are strings;
//! * on 11–14 qubit registers (several partial-sum chunks), diagonal and
//!   mixed sums of up to a few hundred Z-strings still match the sparse
//!   expectation and mat-vec oracles, bit-identically at both threshold
//!   extremes;
//! * a HUBO cost read through its Pauli expansion equals the cost averaged
//!   over the measurement distribution, `Σₓ |ψₓ|²·C(x)`.

use gate_efficient_hs::core::backend::{
    Backend, FusedStatevector, InitialState, PauliNoise, ReferenceStatevector, TrajectoryEnsemble,
};
use gate_efficient_hs::hubo::{
    qaoa_circuit, random_dense_hubo, HuboProblem, QaoaParameters, SeparatorStrategy,
};
use gate_efficient_hs::operators::{PauliOp, PauliSum};
use gate_efficient_hs::statevector::testkit::{
    random_circuit, random_pauli_sum, random_state, PauliSumKind,
};
use gate_efficient_hs::statevector::{qwc_partition, GroupedPauliSum, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Equivalence tolerance between the matrix-free engine and the sparse
/// oracle (the PR's acceptance criterion).
const ORACLE_TOL: f64 = 1e-12;

fn arb_kind() -> impl Strategy<Value = PauliSumKind> {
    prop_oneof![
        Just(PauliSumKind::Diagonal),
        Just(PauliSumKind::FlipHeavy),
        Just(PauliSumKind::Mixed),
    ]
}

proptest! {
    /// Acceptance criterion: the matrix-free engine matches the sparse
    /// oracle to 1e-12 on random states and sums of every structural kind.
    #[test]
    fn matrix_free_matches_sparse_oracle_on_states(
        n in 2usize..=10,
        terms in 1usize..12,
        kind in arb_kind(),
        seed in 0u64..5_000,
    ) {
        let sum = random_pauli_sum(n, terms, kind, seed);
        let state = random_state(n, seed ^ 0x0b53);
        let oracle = state.expectation_sparse(&sum.sparse_matrix());
        let grouped = GroupedPauliSum::new(&sum);
        let fast = grouped.expectation(state.amplitudes());
        prop_assert!(
            (fast - oracle).abs() < ORACLE_TOL,
            "n={n} kind={kind:?} seed={seed}: {fast} vs {oracle}"
        );
        // The per-term operators-layer path agrees as well.
        let term_by_term = sum.expectation(state.amplitudes());
        prop_assert!((term_by_term - oracle).abs() < ORACLE_TOL);
        // Grouping bookkeeping is consistent.
        prop_assert!(grouped.num_groups() <= grouped.num_terms().max(1));
        prop_assert!(grouped.num_settings() <= grouped.num_terms().max(1));
    }

    /// Acceptance criterion: all three backends agree with the sparse
    /// oracle read off their own output to 1e-12 on evolved random
    /// circuits. For the stochastic backend both paths average the same
    /// seeded trajectory ensemble, so the equivalence holds at non-zero
    /// noise strength too.
    #[test]
    fn all_backends_agree_with_sparse_oracle(
        n in 2usize..=8,
        gates in 1usize..30,
        terms in 1usize..8,
        kind in arb_kind(),
        seed in 0u64..2_000,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let sum = random_pauli_sum(n, terms, kind, seed ^ 0x5ca1e);
        let sparse = sum.sparse_matrix();
        let grouped = GroupedPauliSum::new(&sum);
        let initial = InitialState::from(random_state(n, seed ^ 0x1ead));
        let noisy = PauliNoise {
            depolarizing: 0.03,
            dephasing: 0.01,
            trajectories: 3,
            seed,
        };
        let oracle = |s: &StateVector| s.expectation_sparse(&sparse).re;
        for backend in [&FusedStatevector as &dyn Backend, &ReferenceStatevector] {
            let fast = backend.expectation(&initial, &circuit, &grouped).unwrap();
            let slow = oracle(&backend.run(&initial, &circuit).unwrap());
            prop_assert!(
                (fast - slow).abs() < ORACLE_TOL,
                "{}: {fast} vs {slow} (n={n}, seed={seed})",
                backend.name()
            );
        }
        let fast = noisy.expectation(&initial, &circuit, &grouped).unwrap();
        let slow = noisy.ensemble_mean(&initial, &circuit, oracle).unwrap();
        prop_assert!(
            (fast - slow).abs() < ORACLE_TOL,
            "{}: {fast} vs {slow} (n={n}, seed={seed})",
            noisy.name()
        );
    }

    /// Determinism regression: forcing the always-parallel and
    /// never-parallel sweep paths yields bit-identical expectation values
    /// (fixed-chunk partial sums combined in chunk order).
    #[test]
    fn grouped_expectation_is_threshold_invariant(
        n in 2usize..=10,
        terms in 1usize..10,
        kind in arb_kind(),
        seed in 0u64..2_000,
    ) {
        let sum = random_pauli_sum(n, terms, kind, seed);
        let state = random_state(n, seed ^ 0xd00d);
        let grouped = GroupedPauliSum::new(&sum);
        let serial = grouped.expectation_with_threshold(state.amplitudes(), usize::MAX);
        let parallel = grouped.expectation_with_threshold(state.amplitudes(), 0);
        prop_assert_eq!(serial.re.to_bits(), parallel.re.to_bits());
        prop_assert_eq!(serial.im.to_bits(), parallel.im.to_bits());
    }

    /// Every QWC group is genuinely qubit-wise commuting: within a group,
    /// any two strings agree on every qubit where both are non-identity.
    #[test]
    fn qwc_partition_is_sound(
        n in 2usize..=8,
        terms in 1usize..14,
        kind in arb_kind(),
        seed in 0u64..2_000,
    ) {
        let sum = random_pauli_sum(n, terms, kind, seed);
        let groups = qwc_partition(&sum);
        // The partition must cover every string exactly once.
        prop_assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), sum.num_terms());
        for group in &groups {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let pa = &sum.terms()[a].1;
                    let pb = &sum.terms()[b].1;
                    for q in 0..n {
                        let (oa, ob) = (pa.op(q), pb.op(q));
                        prop_assert!(
                            oa == PauliOp::I || ob == PauliOp::I || oa == ob,
                            "strings {pa} and {pb} conflict on qubit {q}"
                        );
                    }
                }
            }
        }
        // Diagonal sums always collapse to a single setting.
        if kind == PauliSumKind::Diagonal {
            prop_assert_eq!(groups.len(), 1);
        }
    }
}

#[test]
fn zero_noise_expectation_matches_reference_bit_exactly() {
    // The zero-strength noise backend consumes no RNG, degenerates to one
    // per-gate trajectory identical to the reference sweep, and divides by
    // an ensemble of one — the value must be *bit-equal*, not just close.
    let circuit = random_circuit(6, 35, 99);
    let sum = random_pauli_sum(6, 9, PauliSumKind::Mixed, 7);
    let grouped = GroupedPauliSum::new(&sum);
    let initial = InitialState::from(random_state(6, 3));
    let quiet = PauliNoise {
        depolarizing: 0.0,
        dephasing: 0.0,
        trajectories: 5,
        seed: 123,
    };
    let noiseless = ReferenceStatevector
        .expectation(&initial, &circuit, &grouped)
        .unwrap();
    let zero_noise = quiet.expectation(&initial, &circuit, &grouped).unwrap();
    assert_eq!(
        noiseless.to_bits(),
        zero_noise.to_bits(),
        "zero-strength noise must be RNG-free and exact: {noiseless} vs {zero_noise}"
    );
}

#[test]
fn grouped_expectation_shares_sweeps() {
    // XX/YY/XY/YX all flip the same pair of qubits: one gather sweep must
    // serve the whole family, while ZZ and the identity share the
    // probability sweep.
    use gate_efficient_hs::math::c64;
    use gate_efficient_hs::operators::{PauliString, PauliSum};
    let mut sum = PauliSum::zero(2);
    for (c, p) in [
        (0.5, "XX"),
        (-0.5, "YY"),
        (0.25, "XY"),
        (0.25, "YX"),
        (0.8, "ZZ"),
        (1.0, "II"),
    ] {
        sum.push(c64(c, 0.0), PauliString::parse(p).unwrap());
    }
    let grouped = GroupedPauliSum::new(&sum);
    assert_eq!(grouped.num_terms(), 6);
    assert_eq!(
        grouped.num_groups(),
        2,
        "one diagonal batch + one shared flip-mask sweep"
    );
    // Sanity: value still matches the oracle on a random state.
    let state = random_state(2, 21);
    let oracle = state.expectation_sparse(&sum.sparse_matrix());
    assert!((grouped.expectation(state.amplitudes()) - oracle).abs() < ORACLE_TOL);
}

#[test]
fn expectation_estimator_consistency_across_seeds() {
    // The grouped engine is seed-free: repeated evaluation of the same
    // state/observable is bit-identical (pure function), and evaluating
    // through a backend twice gives the same value.
    let circuit = random_circuit(5, 20, 11);
    let sum = random_pauli_sum(5, 6, PauliSumKind::Mixed, 31);
    let grouped = GroupedPauliSum::new(&sum);
    let zero = InitialState::ZeroState;
    let a = FusedStatevector
        .expectation(&zero, &circuit, &grouped)
        .unwrap();
    let b = FusedStatevector
        .expectation(&zero, &circuit, &grouped)
        .unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Registers of 11–14 qubits span 2–16 partial-sum chunks, so the
    /// diagonal sweep's block signs take index bits above the chunk. Up to
    /// 256 Z-strings reach blocks of up to 2¹⁰ entries; a mixed sum adds
    /// flip groups on top of the diagonal batch.
    #[test]
    fn multi_chunk_sums_match_sparse_oracles(
        n in 11usize..=14,
        diagonal in 1usize..=256,
        mixed in prop_oneof![Just(false), Just(true)],
        seed in 0u64..5_000,
    ) {
        // Keep the sparse oracle near 2²¹ stored entries.
        let diagonal = diagonal.min((1 << 21) >> n);
        let mut terms = random_pauli_sum(n, diagonal, PauliSumKind::Diagonal, seed)
            .terms()
            .to_vec();
        if mixed {
            terms.extend_from_slice(random_pauli_sum(n, 8, PauliSumKind::Mixed, !seed).terms());
        }
        let sum = PauliSum::from_terms(n, terms);
        let state = random_state(n, seed ^ 0xc4a1);
        let amps = state.amplitudes();
        let sparse = sum.sparse_matrix();
        let grouped = GroupedPauliSum::new(&sum);

        let oracle = state.expectation_sparse(&sparse);
        let serial = grouped.expectation_with_threshold(amps, usize::MAX);
        let parallel = grouped.expectation_with_threshold(amps, 0);
        prop_assert!(
            (serial - oracle).abs() < ORACLE_TOL,
            "n={n} diagonal={diagonal} seed={seed}: {serial} vs {oracle}"
        );
        prop_assert_eq!(serial.re.to_bits(), parallel.re.to_bits());
        prop_assert_eq!(serial.im.to_bits(), parallel.im.to_bits());

        let applied = grouped.apply_with_threshold(amps, usize::MAX);
        let applied_parallel = grouped.apply_with_threshold(amps, 0);
        for ((f, p), o) in applied.iter().zip(&applied_parallel).zip(sparse.matvec(amps)) {
            prop_assert!((*f - o).abs() < ORACLE_TOL, "n={n} seed={seed}: {f} vs {o}");
            prop_assert_eq!((f.re.to_bits(), f.im.to_bits()), (p.re.to_bits(), p.im.to_bits()));
        }
    }
}

/// A random HUBO on `num_vars` variables: `monomials` monomials of orders
/// drawn from `1..=max_order`, weights in `(−1, 1)`.
fn random_hubo(
    num_vars: usize,
    max_order: usize,
    monomials: usize,
    rng: &mut StdRng,
) -> HuboProblem {
    let mut problem = HuboProblem::new(num_vars);
    for _ in 0..monomials {
        let order = rng.gen_range(1..=max_order);
        let vars: Vec<usize> = (0..order).map(|_| rng.gen_range(0..num_vars)).collect();
        problem.add_term(rng.gen_range(-1.0..1.0), &vars);
    }
    problem
}

/// `⟨C⟩` read through the Ising expansion (`to_pauli_sum`, one Z-string
/// per subset of every monomial) and the grouped engine equals the cost
/// averaged over the measurement distribution, computed from
/// `HuboProblem::evaluate` with no Pauli expansion at all.
#[test]
fn hubo_cost_matches_probability_weighted_evaluation() {
    let mut rng = StdRng::seed_from_u64(1515);
    let mut problems: Vec<HuboProblem> = [
        (11, 1, 9),
        (12, 2, 30),
        (13, 3, 40),
        (14, 4, 40),
        (12, 5, 60),
    ]
    .into_iter()
    .map(|(n, order, monomials)| random_hubo(n, order, monomials, &mut rng))
    .collect();
    let orders: Vec<usize> = problems.iter().map(HuboProblem::order).collect();
    assert_eq!(orders, [1, 2, 3, 4, 5]);
    // Every monomial of order ≤ 5 on 12 variables: 1 586 Z-strings, more
    // than one partial-sum chunk's worth of terms.
    problems.push(random_dense_hubo(12, 5, &mut rng));
    assert!(problems.last().unwrap().to_pauli_sum().num_terms() > 1024);

    for (k, problem) in problems.iter().enumerate() {
        let n = problem.num_vars();
        let observable = GroupedPauliSum::new(&problem.to_pauli_sum());
        let params = QaoaParameters::from_vec(&[0.37, 0.61]);
        let mut qaoa = StateVector::zero_state(n);
        qaoa.run_fused(&qaoa_circuit(problem, &params, SeparatorStrategy::Direct));
        for state in [random_state(n, 40 + k as u64), qaoa] {
            let expected: f64 = state
                .amplitudes()
                .iter()
                .enumerate()
                .map(|(x, a)| a.norm_sqr() * problem.evaluate(x))
                .sum();
            let got = observable.expectation(state.amplitudes());
            assert!(
                (got.re - expected).abs() < 1e-10 && got.im.abs() < 1e-10,
                "problem {k} (n={n}, order {}): {got} vs {expected}",
                problem.order()
            );
        }
    }
}
