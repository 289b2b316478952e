//! Wide-path property suite: the fused engine on registers of 2–16
//! 2¹³-amplitude tiles (14–17 qubits), where fused ops are wider than one
//! tile and take the whole-array sweeps, and phase tables resolve their
//! support bits above a tile or shard from its base.
//!
//! * fused ≡ per-gate to 1e-12 on direct-method QAOA circuits, CX/RZ
//!   ladders, the QFT and random circuits;
//! * flat ≡ sharded **bit for bit** at forced shard counts 1, 4 and 64;
//! * direct-method QAOA separators stay diagonal tables: no emitted op
//!   mixes a keyed phase with a mixer gate on a wider support;
//! * on small registers with shards of one or two amplitudes — chunks
//!   shorter than the strips the permutation and diagonal walks move — the
//!   sharded engine still matches the flat one bit for bit;
//! * phase tables applied to a state of signed zeros give the same bits
//!   whichever bit positions a relabeling gives their supports.
//!
//! The forced-split paths of the flat engine are pinned by the
//! `ghs_statevector` unit tests (`fused::tests`), which can reach them.

use gate_efficient_hs::circuit::{qft, Circuit, ControlBit, FusedKernel, QubitRelabeling};
use gate_efficient_hs::hubo::{
    qaoa_circuit, random_sparse_hubo, QaoaParameters, SeparatorStrategy,
};
use gate_efficient_hs::math::{c64, Complex64};
use gate_efficient_hs::statevector::testkit::random_circuit;
use gate_efficient_hs::statevector::{ShardedStateVector, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Equivalence tolerance against the per-gate engine.
const TOL: f64 = 1e-12;

/// Forced shard counts: one shard, a few wide ones, and shards narrower
/// than a tile.
const COUNTS: [usize; 3] = [1, 4, 64];

/// A direct-method QAOA circuit on a random sparse order-3 HUBO.
fn direct_qaoa(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let problem = random_sparse_hubo(n, 3, 2 * n, &mut rng);
    let mut angles = || (0..layers).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let params = QaoaParameters {
        gammas: angles(),
        betas: angles(),
    };
    qaoa_circuit(&problem, &params, SeparatorStrategy::Direct)
}

/// CX ladders down the register and back around an RZ, with a random
/// rotation on one qubit per layer so some ladders carry phases and some
/// blocks are not permutations.
fn ladder(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.rz(n - 1, rng.gen_range(-2.0..2.0));
        for q in (0..n - 1).rev() {
            c.cx(q, q + 1);
        }
        c.ry(rng.gen_range(0..n), rng.gen_range(-2.0..2.0));
    }
    c
}

fn circuit(family: usize, n: usize, seed: u64) -> Circuit {
    match family {
        0 => direct_qaoa(n, 1 + (seed % 2) as usize, seed),
        1 => ladder(n, 2, seed),
        2 => qft(n, &(0..n).collect::<Vec<_>>(), true),
        _ => random_circuit(n, 60, seed),
    }
}

/// Phase gates only, none on qubit 0 and most on the last qubit (the
/// lowest index bit): keyed phases on two or three qubits and controlled
/// phases. They fuse into phase tables with many unit entries, whose
/// support a reversed relabeling moves off the lowest index bit.
fn phase_circuit(n: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..n {
        let mut key = Vec::new();
        if rng.gen_bool(0.7) {
            key.push(ControlBit::one(n - 1));
        }
        let width = rng.gen_range(2..=3usize).min(key.len() + n - 2);
        while key.len() < width {
            let q = rng.gen_range(1..n - 1);
            if key.iter().all(|k: &ControlBit| k.qubit != q) {
                key.push(if rng.gen_bool(0.5) {
                    ControlBit::one(q)
                } else {
                    ControlBit::zero(q)
                });
            }
        }
        c.keyed_phase(key, rng.gen_range(-3.0..3.0));
        if rng.gen_bool(0.3) {
            c.cp(rng.gen_range(1..n - 1), n - 1, rng.gen_range(-3.0..3.0));
        }
    }
    c
}

/// Signed zeros everywhere but one unit amplitude. A unit table entry
/// turns `(+0, −0)` into `(+0, +0)`, so only walks that treat unit entries
/// alike wherever the support sits keep such a state bit-identical.
fn signed_zero_state(n: usize, rng: &mut StdRng) -> StateVector {
    let zeros = [
        c64(0.0, 0.0),
        c64(-0.0, 0.0),
        c64(0.0, -0.0),
        c64(-0.0, -0.0),
    ];
    let mut amps: Vec<Complex64> = (0..1usize << n)
        .map(|_| zeros[rng.gen_range(0..4usize)])
        .collect();
    let hot = rng.gen_range(0..amps.len());
    amps[hot] = Complex64::ONE;
    StateVector::from_amplitudes(n, amps)
}

/// Index of the first amplitude whose bits differ, if any.
fn first_drift(got: &StateVector, want: &StateVector) -> Option<usize> {
    got.amplitudes()
        .iter()
        .zip(want.amplitudes())
        .position(|(g, w)| g.re.to_bits() != w.re.to_bits() || g.im.to_bits() != w.im.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fused ≡ per-gate to 1e-12 and flat ≡ sharded bit for bit, on
    /// registers wider than one tile.
    #[test]
    fn wide_registers_match_per_gate_and_sharded(
        family in 0usize..4,
        n in 14usize..=17,
        seed in 0u64..10_000,
    ) {
        let c = circuit(family, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x91de);
        let s0 = StateVector::random_state(n, &mut rng);
        let fused_c = c.fused();

        let mut flat = s0.clone();
        flat.apply_fused(&fused_c);
        let mut reference = s0.clone();
        reference.run_unfused(&c);
        let d = flat.distance(&reference);
        prop_assert!(d < TOL, "family {family}, n={n}, seed={seed}: distance {d}");

        for count in COUNTS {
            let mut sharded = ShardedStateVector::from_state_with(&s0, count);
            sharded.run(&c);
            let drift = first_drift(&sharded.to_state(), &flat);
            prop_assert!(
                drift.is_none(),
                "family {family}, n={n}, seed={seed}, {count} shards: amplitude {drift:?} drifted"
            );
        }
    }

    /// Direct-method separators stay diagonal tables and mixers stay
    /// single-qubit ops: no sparse or dense op wider than one qubit.
    #[test]
    fn direct_separators_never_merge_into_mixers(
        n in 4usize..=16,
        layers in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let fused = direct_qaoa(n, layers, seed).fused();
        for op in fused.ops() {
            if matches!(op.kernel, FusedKernel::Dense { .. } | FusedKernel::Sparse { .. }) {
                prop_assert!(
                    op.qubits.len() == 1,
                    "n={n}, seed={seed}: {} op on {:?}",
                    op.kind_name(),
                    op.qubits
                );
            }
        }
        prop_assert!(fused.kind_histogram().get("diag").copied().unwrap_or(0) >= layers);
    }

    /// Small registers split into shards of one or two amplitudes, shorter
    /// than the strips below each op's lowest support bit: the sharded
    /// engine still reproduces the flat engine bit for bit.
    #[test]
    fn chunks_shorter_than_a_strip_stay_bit_identical(
        family in 0usize..4,
        n in 4usize..=8,
        seed in 0u64..10_000,
    ) {
        let c = circuit(family, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57a1);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut flat = s0.clone();
        flat.apply_fused(&c.fused());
        for count in [1usize << (n - 1), 1 << n] {
            let mut sharded = ShardedStateVector::from_state_with(&s0, count);
            sharded.run(&c);
            let drift = first_drift(&sharded.to_state(), &flat);
            prop_assert!(
                drift.is_none(),
                "family {family}, n={n}, seed={seed}, {count} shards: amplitude {drift:?} drifted"
            );
        }
    }
    /// Phase tables on a state of signed zeros: the sharded engine under a
    /// reversed and a shuffled relabeling, which move the lowest index bit
    /// into and out of each table's support, matches the flat engine bit
    /// for bit.
    #[test]
    fn unit_entries_do_not_depend_on_where_a_support_sits(
        n in 4usize..=10,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fused = phase_circuit(n, &mut rng).fused();
        let s0 = signed_zero_state(n, &mut rng);
        let mut flat = s0.clone();
        flat.apply_fused(&fused);
        let mut shuffled: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let relabelings = [(0..n).rev().collect::<Vec<_>>(), shuffled];
        for forward in relabelings {
            let relabeling = QubitRelabeling::new(forward.clone());
            for count in [1usize, 4, 1 << (n - 1)] {
                let mut sharded = ShardedStateVector::from_state_with(&s0, count);
                sharded.run_fused_with(&fused, &relabeling);
                let drift = first_drift(&sharded.to_state(), &flat);
                prop_assert!(
                    drift.is_none(),
                    "n={n}, seed={seed}, relabeling {forward:?}, {count} shards: amplitude {drift:?} drifted"
                );
            }
        }
    }
}
