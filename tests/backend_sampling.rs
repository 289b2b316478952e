//! Backend-layer property tests: the dense execution backends implement the
//! same trait contract, the fused and reference engines agree to 1e-12 on
//! random circuits, the batched shot engine converges to `|amplitude|²`
//! identically across backends, its seeded output is bit-identical across
//! runs, the sharded engine matches the fused one bit-for-bit at whatever
//! `GHS_SHARD_COUNT` the determinism CI matrix forces, and the stochastic
//! noise backend at zero strength collapses to the noiseless simulation.
//! Random circuits come from the shared seeded testkit
//! (`ghs_statevector::testkit`).

use gate_efficient_hs::circuit::Circuit;
use gate_efficient_hs::core::backend::{
    backend_by_name, Backend, BackendError, FusedStatevector, InitialState, PauliNoise,
    ReferenceStatevector,
};
use gate_efficient_hs::statevector::testkit::random_circuit;
use gate_efficient_hs::statevector::StateVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Equivalence tolerance between exact backends.
const BACKEND_TOL: f64 = 1e-12;

proptest! {
    /// Acceptance criterion: the fused and reference backends agree to
    /// 1e-12 on random 2–10 qubit circuits.
    #[test]
    fn fused_and_reference_backends_agree(
        n in 2usize..=10,
        gates in 1usize..40,
        seed in 0u64..5_000,
    ) {
        let c = random_circuit(n, gates, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let s0 = InitialState::from(StateVector::random_state(n, &mut rng));
        let f = FusedStatevector.run(&s0, &c).unwrap();
        let r = ReferenceStatevector.run(&s0, &c).unwrap();
        let d = f.distance(&r);
        prop_assert!(d < BACKEND_TOL, "distance {d} on n={n}, gates={gates}, seed={seed}");
    }

    /// The noise backend at zero strength agrees with the noiseless
    /// backends to 1e-12 (it is RNG-free there, so this holds per
    /// trajectory, not just on average).
    #[test]
    fn zero_noise_backend_matches_noiseless(
        n in 2usize..=8,
        gates in 1usize..30,
        seed in 0u64..2_000,
    ) {
        let c = random_circuit(n, gates, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let s0 = InitialState::from(StateVector::random_state(n, &mut rng));
        let quiet = PauliNoise {
            depolarizing: 0.0,
            dephasing: 0.0,
            trajectories: 3,
            seed,
        };
        let q = quiet.run(&s0, &c).unwrap();
        let f = FusedStatevector.run(&s0, &c).unwrap();
        prop_assert!(q.distance(&f) < BACKEND_TOL);
        // Ensemble probabilities collapse to the pure-state ones as well.
        let probs = quiet.probabilities(&s0, &c).unwrap();
        for (p, amp) in probs.iter().zip(f.amplitudes()) {
            prop_assert!((p - amp.norm_sqr()).abs() < BACKEND_TOL);
        }
    }
}

#[test]
fn sample_frequencies_converge_identically_across_backends() {
    // One moderately entangling 6-qubit circuit, enough shots that the
    // per-outcome standard error (≤ ~1.1e-3) sits far below the tolerance.
    let c = random_circuit(6, 40, 99);
    let zero = InitialState::ZeroState;
    let probs = FusedStatevector.probabilities(&zero, &c).unwrap();
    let shots = 200_000;
    let tol = 0.01;
    let mut freq_tables: Vec<Vec<f64>> = Vec::new();
    for backend in [&FusedStatevector as &dyn Backend, &ReferenceStatevector] {
        let samples = backend.sample(&zero, &c, shots, 12_345).unwrap();
        // Bit-identical across runs under the fixed seed.
        assert_eq!(samples, backend.sample(&zero, &c, shots, 12_345).unwrap());
        let mut counts = vec![0usize; probs.len()];
        for &s in &samples {
            counts[s] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|&k| k as f64 / shots as f64).collect();
        for (i, (f, p)) in freqs.iter().zip(&probs).enumerate() {
            assert!(
                (f - p).abs() < tol,
                "{}: outcome {i} frequency {f} vs probability {p}",
                backend.name()
            );
        }
        freq_tables.push(freqs);
    }
    // The two exact backends converge to the same table.
    for (i, (a, b)) in freq_tables[0].iter().zip(&freq_tables[1]).enumerate() {
        assert!(
            (a - b).abs() < tol,
            "outcome {i}: fused {a} vs reference {b}"
        );
    }
}

#[test]
fn batched_shots_are_prefix_stable_and_seed_sensitive() {
    let c = random_circuit(5, 25, 7);
    let zero = InitialState::ZeroState;
    // 16 401 shots reach the sampler's parallel gate (a quarter of the
    // default 2¹⁶-amplitude threshold); 4096 shots are one serial chunk.
    let long = FusedStatevector.sample(&zero, &c, 16_401, 1).unwrap();
    // A shorter batch under the same seed is a prefix of the longer one
    // (chunk streams depend only on (seed, chunk index)).
    let short = FusedStatevector.sample(&zero, &c, 4096, 1).unwrap();
    assert_eq!(&long[..4096], &short[..]);
    // A different seed gives a different stream.
    assert_ne!(long, FusedStatevector.sample(&zero, &c, 16_401, 2).unwrap());
}

#[test]
fn noisy_sampling_is_deterministic_and_normalised() {
    let c = random_circuit(5, 30, 13);
    let zero = InitialState::ZeroState;
    let noisy = PauliNoise {
        depolarizing: 0.03,
        dephasing: 0.01,
        trajectories: 8,
        seed: 42,
    };
    let probs = noisy.probabilities(&zero, &c).unwrap();
    assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    assert_eq!(
        noisy.sample(&zero, &c, 3000, 5).unwrap(),
        noisy.sample(&zero, &c, 3000, 5).unwrap()
    );
}

#[test]
fn sharded_backend_matches_fused_at_any_forced_shard_count() {
    // The determinism CI matrix re-runs this suite with `GHS_SHARD_COUNT`
    // forced to 1 / 4 / 64: the sharded engine must produce byte-identical
    // states and seeded sample streams at every setting, so this test's
    // output never varies across the matrix legs. 10 qubits: above
    // `FUSED_MIN_DIM`, so the fused backend runs the same fused kernels the
    // sharded engine replays (below it, it falls back to per-gate sweeps
    // whose round-off differs in the last bits).
    let c = random_circuit(10, 50, 21);
    let s0 = InitialState::basis(5);
    let sharded = backend_by_name("sharded").expect("sharded backend registered");
    let flat = FusedStatevector.run(&s0, &c).unwrap();
    let out = sharded.run(&s0, &c).unwrap();
    for i in 0..out.dim() {
        assert_eq!(out.amplitude(i), flat.amplitude(i), "amplitude {i}");
    }
    assert_eq!(
        sharded.sample(&s0, &c, 500, 11).unwrap(),
        FusedStatevector.sample(&s0, &c, 500, 11).unwrap()
    );
}

#[test]
fn backend_registry_resolves_every_documented_name() {
    for name in ["fused", "reference", "noisy", "sharded", "stabilizer"] {
        let backend = backend_by_name(name).expect("documented backend name");
        // Smoke: every registry entry can run a circuit end to end.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let shots = backend.sample(&InitialState::ZeroState, &c, 64, 0).unwrap();
        assert_eq!(shots.len(), 64);
    }
    assert_eq!(
        backend_by_name("tensor-network").err(),
        Some(BackendError::UnknownName("tensor-network".into()))
    );
}
