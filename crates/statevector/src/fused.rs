//! Application kernels for fused circuits.
//!
//! [`StateVector::apply_circuit`] pays one full sweep over all `2^n`
//! amplitudes per gate. The engine here executes a [`FusedCircuit`] instead:
//! every fused op is lowered once to the shared `Prepared` base-offset form
//! (`crate::kernels`, also the sharded engine's executor), and then:
//!
//! * **runs of small-span ops are cache-blocked** — consecutive ops whose
//!   span fits one `TILE_AMPS`-amplitude tile are replayed over a single
//!   tile at a time, so a run of `r` ops costs one pass over the state
//!   instead of `r`, with every intermediate amplitude staying cache-hot;
//! * diagonal tables read their support bits above a tile off the tile's
//!   base, so every diagonal, whatever its support, joins the tile runs;
//! * other ops spanning more than a tile sweep the whole array through
//!   `Prepared::apply_sweep`, which parallelizes over group *index space*
//!   (ranges of group ranks) rather than slicing the amplitude array — so an
//!   op whose support includes qubit 0 (the most significant bit, whose
//!   groups interleave across the entire state) fans out across worker
//!   threads like any other op. Apart from single-qubit ops, whose workers
//!   take contiguous runs of pairs through the laned pair kernel, that split
//!   runs scalar per-group code (and a permutation on the top bits has a
//!   single group of strips), so wide ops take it only from four times the
//!   parallel threshold; below, their laned serial sweep is faster;
//! * the hot inner loops run in SIMD lanes: two amplitudes at a time along
//!   contiguous runs ([`ghs_math::simd::C64x2`]), or four groups at a time
//!   in split real/imaginary layout ([`ghs_math::C64x4`]), with scalar
//!   remainder paths that are bit-identical by construction (see
//!   `crate::kernels`).
//!
//! [`StateVector::run_fused`] is the default execution path of the
//! workspace; [`StateVector::run_unfused`] keeps the per-gate path alive as
//! the correctness oracle (see `tests/property_based.rs`).

use crate::kernels::{sweep_parallel, wide_sweep_parallel, Prepared};
use crate::state::StateVector;
use ghs_circuit::{Circuit, FusedCircuit, FusedOp};
use ghs_math::Complex64;
use rayon::prelude::*;

/// State dimension below which [`StateVector::run_fused`] falls back to the
/// per-gate path: fusing costs more than it saves on tiny registers. Shared
/// with the adjoint gradient engine (whose forward sweep makes the same
/// crossover choice) and the job service's executor, which must stay
/// bit-identical to `run_fused` at every register size.
pub const FUSED_MIN_DIM: usize = 1 << 10;

/// Amplitudes per cache tile for replaying runs of small-span fused ops:
/// 2¹³ amplitudes = 128 KiB, sized so one tile plus the gather buffers stays
/// resident in L2 while a whole run of ops streams over it.
pub(crate) const TILE_AMPS: usize = 1 << 13;

/// Which paths of [`apply_prepared`] use worker threads.
#[derive(Clone, Copy)]
struct Split {
    /// Runs of tile-sized ops, one tile per task.
    parallel: bool,
    /// Ops wider than a tile, through the index-space split.
    wide: bool,
}

impl Split {
    /// The production choice for a register of `dim` amplitudes.
    fn for_dim(dim: usize) -> Self {
        Split {
            parallel: sweep_parallel(dim),
            wide: wide_sweep_parallel(dim),
        }
    }
}

/// Replays `run` over the amplitudes one tile at a time. Each tile sees
/// every op of the run before the next tile is touched; `base` resolves
/// control masks on bits above the tile.
fn apply_run_tiled(amps: &mut [Complex64], tile: usize, parallel: bool, run: &[Prepared]) {
    if parallel && amps.len() > tile {
        amps.par_chunks_mut(tile)
            .enumerate()
            .for_each(|(ti, chunk)| {
                let base = ti * tile;
                for op in run {
                    op.apply_local(base, chunk);
                }
            });
    } else {
        for (ti, chunk) in amps.chunks_mut(tile).enumerate() {
            let base = ti * tile;
            for op in run {
                op.apply_local(base, chunk);
            }
        }
    }
}

/// Replays `prepared` over the amplitudes: each maximal run of ops that
/// fit one tile goes tile by tile, each wider op sweeps the whole array.
fn apply_prepared(amps: &mut [Complex64], prepared: &[Prepared], split: Split) {
    let tile = TILE_AMPS.min(amps.len());
    let mut i = 0;
    while i < prepared.len() {
        if prepared[i].span <= tile {
            let mut j = i + 1;
            while j < prepared.len() && prepared[j].span <= tile {
                j += 1;
            }
            apply_run_tiled(amps, tile, split.parallel, &prepared[i..j]);
            i = j;
        } else {
            prepared[i].apply_sweep(amps, split.wide);
            i += 1;
        }
    }
}

impl StateVector {
    /// Applies a pre-fused circuit (see [`Circuit::fused`]).
    ///
    /// Fuse once and reuse the [`FusedCircuit`] when applying the same
    /// circuit to many states (e.g. columns of a unitary, QAOA sweeps).
    pub fn apply_fused(&mut self, fused: &FusedCircuit) {
        assert_eq!(
            fused.num_qubits(),
            self.num_qubits(),
            "register size mismatch"
        );
        let n = self.num_qubits();
        let prepared: Vec<Prepared> = fused
            .ops()
            .iter()
            .map(|op| Prepared::build(n, op))
            .collect();
        let split = Split::for_dim(self.dim());
        let amps = self.amplitudes_mut();
        apply_prepared(amps, &prepared, split);
        if fused.global_phase() != 0.0 {
            let p = Complex64::cis(fused.global_phase());
            for a in amps.iter_mut() {
                *a *= p;
            }
        }
    }

    /// Fuses the circuit and applies it: the default execution path.
    ///
    /// Below 10 qubits the fusion pass itself costs more than the per-gate
    /// simulation it accelerates (its cost is independent of the state
    /// dimension), so small registers fall back to [`Self::run_unfused`] —
    /// the same crossover [`crate::circuit_unitary`] uses. Call
    /// [`Self::apply_fused`] with a pre-fused circuit to force the fused
    /// engine at any size (and to amortise fusion across repeated
    /// applications).
    pub fn run_fused(&mut self, circuit: &Circuit) {
        if self.dim() >= FUSED_MIN_DIM {
            self.apply_fused(&circuit.fused());
        } else {
            self.apply_circuit(circuit);
        }
    }

    /// Applies the circuit gate by gate, one sweep per gate: the slow,
    /// obviously-correct oracle against which the fused path is property
    /// tested.
    pub fn run_unfused(&mut self, circuit: &Circuit) {
        self.apply_circuit(circuit);
    }

    /// Applies one fused operation through the same `Prepared` lowering
    /// [`Self::apply_fused`] uses (without the run blocking, which needs a
    /// whole op sequence to pay off).
    pub fn apply_fused_op(&mut self, op: &FusedOp) {
        let prepared = Prepared::build(self.num_qubits(), op);
        let split = Split::for_dim(self.dim());
        apply_prepared(
            self.amplitudes_mut(),
            std::slice::from_ref(&prepared),
            split,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_circuit::{ControlBit, FusedKernel, Gate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_circuit(n: usize, seed: u64) -> Circuit {
        // A deterministic mix that exercises every kernel class.
        let mut c = Circuit::new(n);
        let angle = |i: usize| 0.1 + 0.37 * (i as f64) + seed as f64 * 0.013;
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            c.rz(q, angle(q));
        }
        c.swap(0, n - 1)
            .cz(0, 1)
            .cp(1, n - 1, 0.6)
            .keyed_z(vec![ControlBit::one(0), ControlBit::zero(n - 1)])
            .mcry(
                vec![ControlBit::one(0), ControlBit::zero(1)],
                n - 1,
                angle(1),
            )
            .global_phase(0.3)
            .y(1)
            .rx(0, angle(2))
            .ry(n - 2, angle(3))
            .sdg(1)
            .x(n - 1);
        c
    }

    #[test]
    fn fused_matches_unfused_on_mixed_circuits() {
        for n in 2..=8 {
            let c = mixed_circuit(n.max(3), n as u64);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let s0 = StateVector::random_state(c.num_qubits(), &mut rng);
            let mut fused = s0.clone();
            // apply_fused rather than run_fused: the engine itself must be
            // exercised even below the run_fused size crossover.
            fused.apply_fused(&c.fused());
            let mut unfused = s0.clone();
            unfused.run_unfused(&c);
            assert!(
                fused.distance(&unfused) < 1e-12,
                "n={n}: distance {}",
                fused.distance(&unfused)
            );
        }
    }

    #[test]
    fn reordered_plans_never_lose_blocks_and_emit_the_same_unitary() {
        // The commutation-aware schedule may regroup gates across blocks,
        // but it must (a) never produce more blocks than the in-order scan
        // — plan_fusion keeps whichever plan is smaller, so the fusion
        // ratio is non-decreasing — and (b) emit the same unitary: on
        // random states the two emissions must agree to 1e-12.
        use ghs_circuit::{plan_fusion, plan_fusion_in_order};
        let mut rng = StdRng::seed_from_u64(57);
        for n in 2..=10usize {
            let c = crate::testkit::random_circuit(n, 50, 400 + n as u64);
            let reordered = plan_fusion(&c);
            let in_order = plan_fusion_in_order(&c);
            assert!(
                reordered.num_blocks() <= in_order.num_blocks(),
                "n={n}: reordering lost blocks ({} > {})",
                reordered.num_blocks(),
                in_order.num_blocks()
            );
            let s0 = StateVector::random_state(n, &mut rng);
            let mut a = s0.clone();
            a.apply_fused(&reordered.emit(&c));
            let mut b = s0.clone();
            b.apply_fused(&in_order.emit(&c));
            assert!(
                a.distance(&b) < 1e-12,
                "n={n}: reordered emission drifted by {}",
                a.distance(&b)
            );
        }
    }

    #[test]
    fn relabeled_unsorted_supports_are_bit_identical_on_permuted_amplitudes() {
        // Pins the unsorted-support invariant: [`FusedCircuit::relabeled`]
        // maps every op's qubit list element-wise, so relabeled supports
        // are generally NOT ascending, and the kernels must address
        // amplitudes purely through bit positions (the scatter table) —
        // never by assuming the planner's sorted order. Reversal unsorts
        // every multi-qubit support; the relabeled run must land on the
        // permuted amplitudes bit for bit, as the relabeling contract
        // promises.
        use ghs_circuit::QubitRelabeling;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        for n in 2..=8usize {
            let c = crate::testkit::random_circuit(n, 40, 900 + n as u64);
            let fused = c.fused();
            // Fisher–Yates: a seeded random permutation of the labels.
            let mut shuffled: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                shuffled.swap(i, j);
            }
            for relabeling in [
                QubitRelabeling::new((0..n).rev().collect()),
                QubitRelabeling::new(shuffled.clone()),
            ] {
                let s0 = StateVector::random_state(n, &mut rng);
                let mut flat = s0.clone();
                flat.apply_fused(&fused);
                let mut permuted_amps = vec![Complex64::ZERO; 1 << n];
                for (l, a) in s0.amplitudes().iter().enumerate() {
                    permuted_amps[relabeling.permute_index(l)] = *a;
                }
                let mut permuted = StateVector::from_amplitudes(n, permuted_amps);
                permuted.apply_fused(&fused.relabeled(&relabeling));
                for (l, a) in flat.amplitudes().iter().enumerate() {
                    let b = permuted.amplitudes()[relabeling.permute_index(l)];
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "n={n} index {l} drifted under relabeling {:?}",
                        relabeling.as_slice()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_matches_above_parallel_threshold() {
        let n = crate::state::parallel_test_qubits();
        let c = mixed_circuit(n, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.run_fused(&c);
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-11);
    }

    #[test]
    fn forced_parallel_serial_and_tiled_sweeps_are_bit_identical() {
        // The determinism contract at the GHS_PARALLEL_THRESHOLD extremes:
        // forcing every sweep through the index-space split (which
        // production takes for most wide ops only from four times the
        // threshold), forcing
        // every sweep serial, the tiled replay forced either way and the
        // production path must agree bit for bit — SIMD-laned kernels
        // included, since the lanes mirror scalar operation order exactly
        // (see `ghs_math` SIMD docs).
        let n = 14; // two TILE_AMPS tiles; both paths are forced below
        let c = mixed_circuit(n, 31);
        let fused = c.fused();
        let mut rng = StdRng::seed_from_u64(77);
        let s0 = StateVector::random_state(n, &mut rng);
        let prepared: Vec<Prepared> = fused
            .ops()
            .iter()
            .map(|op| Prepared::build(n, op))
            .collect();
        let mut serial = s0.clone();
        let mut parallel = s0.clone();
        for p in &prepared {
            p.apply_sweep(serial.amplitudes_mut(), false);
            p.apply_sweep(parallel.amplitudes_mut(), true);
        }
        let mut tiled_serial = s0.clone();
        let serial_split = Split {
            parallel: false,
            wide: false,
        };
        apply_prepared(tiled_serial.amplitudes_mut(), &prepared, serial_split);
        let mut tiled_parallel = s0.clone();
        let parallel_split = Split {
            parallel: true,
            wide: true,
        };
        apply_prepared(tiled_parallel.amplitudes_mut(), &prepared, parallel_split);
        // Match apply_fused's trailing global-phase pass on the forced copies.
        if fused.global_phase() != 0.0 {
            let ph = Complex64::cis(fused.global_phase());
            for s in [
                &mut serial,
                &mut parallel,
                &mut tiled_serial,
                &mut tiled_parallel,
            ] {
                for a in s.amplitudes_mut() {
                    *a *= ph;
                }
            }
        }
        let mut production = s0.clone();
        production.apply_fused(&fused);
        for (label, other) in [
            ("parallel", &parallel),
            ("tiled serial", &tiled_serial),
            ("tiled parallel", &tiled_parallel),
            ("production", &production),
        ] {
            for (i, (s, o)) in serial
                .amplitudes()
                .iter()
                .zip(other.amplitudes())
                .enumerate()
            {
                assert_eq!(
                    (s.re.to_bits(), s.im.to_bits()),
                    (o.re.to_bits(), o.im.to_bits()),
                    "drift at {i} ({label})"
                );
            }
        }
    }

    /// A CX ladder down the register and back around an RZ, `layers`
    /// times: its blocks are 10-qubit phased permutations on the top,
    /// middle and bottom bits.
    fn ladder(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for layer in 0..layers {
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
            c.rz(n - 1, 0.1 + 0.01 * layer as f64);
            for q in (0..n - 1).rev() {
                c.cx(q, q + 1);
            }
        }
        c
    }

    /// A direct-method QAOA shape: H layer, keyed phases on one to three
    /// variables, RX mixers. Its separators fuse into wide phase tables.
    fn separator_circuit(n: usize, seed: u64) -> Circuit {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for layer in 0..2 {
            for _ in 0..2 * n {
                let mut key: Vec<ControlBit> = Vec::new();
                for _ in 0..rng.gen_range(1..=3) {
                    let v = rng.gen_range(0..n);
                    if key.iter().all(|k| k.qubit != v) {
                        key.push(ControlBit::one(v));
                    }
                }
                c.keyed_phase(key, rng.gen_range(-1.0..1.0));
            }
            for q in 0..n {
                c.rx(q, 0.3 + 0.2 * layer as f64);
            }
        }
        c
    }

    #[test]
    fn forced_splits_are_bit_identical_on_wide_tables() {
        // Registers of two to sixteen tiles, whose ops include tables wider
        // than a tile: every forced `Split` and every op swept alone
        // through the index-space split must match the serial replay bit
        // for bit.
        let all = |n: usize| (0..n).collect::<Vec<_>>();
        let cases = [
            (14, separator_circuit(14, 3)),
            (15, ghs_circuit::qft(15, &all(15), true)),
            (16, ladder(16, 2)),
            (17, crate::testkit::random_circuit(17, 120, 17)),
        ];
        for (n, c) in cases {
            let fused = c.fused();
            let prepared: Vec<Prepared> = fused
                .ops()
                .iter()
                .map(|op| Prepared::build(n, op))
                .collect();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let s0 = StateVector::random_state(n, &mut rng);
            let mut serial = s0.clone();
            let off = Split {
                parallel: false,
                wide: false,
            };
            apply_prepared(serial.amplitudes_mut(), &prepared, off);
            let mut runs = Vec::new();
            for (parallel, wide) in [(true, false), (false, true), (true, true)] {
                let mut s = s0.clone();
                apply_prepared(s.amplitudes_mut(), &prepared, Split { parallel, wide });
                runs.push((format!("split ({parallel}, {wide})"), s));
            }
            let mut swept = s0.clone();
            for p in &prepared {
                p.apply_sweep(swept.amplitudes_mut(), true);
            }
            runs.push(("forced sweeps".to_string(), swept));
            for (label, s) in &runs {
                for (i, (a, b)) in serial.amplitudes().iter().zip(s.amplitudes()).enumerate() {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "n={n}: {label} drifted at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_matches_across_multiple_tiles() {
        // 2^14 amplitudes = two TILE_AMPS tiles: the run replay must resolve
        // cross-tile controls and high-bit supports correctly.
        let n = 14;
        let c = mixed_circuit(n, 21);
        let mut rng = StdRng::seed_from_u64(5);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.apply_fused(&c.fused());
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-11);
    }

    #[test]
    fn wide_diagonal_and_wide_control_passthrough() {
        let n = 12;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        // Keyed phase over 11 qubits: wider than the diagonal window → must
        // still be exact through the passthrough kernel.
        c.keyed_z((0..n - 1).map(ControlBit::one).collect());
        // McX with 9 controls: wider than the dense window.
        c.mcx((0..n - 3).map(ControlBit::one).collect(), n - 1);
        let mut rng = StdRng::seed_from_u64(3);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.run_fused(&c);
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);
    }

    #[test]
    fn high_bit_supports_run_exact_at_scale() {
        // Ops whose support includes qubit 0 (the most significant bit) take
        // the whole-array sweep once the register exceeds one tile; pin it
        // against the oracle at the parallel threshold, both as production
        // runs it and with the index-space split forced (production takes
        // it for ops other than permutations only from four times the
        // threshold).
        let n = crate::state::parallel_test_qubits();
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.cx(1, 0) // permutation support spanning the MSB
            .rz(0, 0.7)
            .swap(0, n - 1)
            .mcry(
                vec![ControlBit::one(n - 1), ControlBit::zero(n - 2)],
                0,
                0.4,
            )
            .cp(0, 1, 0.9);
        let mut rng = StdRng::seed_from_u64(31);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        let fused_c = c.fused();
        fused.apply_fused(&fused_c);
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);
        let prepared: Vec<Prepared> = fused_c
            .ops()
            .iter()
            .map(|op| Prepared::build(n, op))
            .collect();
        assert!(prepared.iter().any(|p| p.span > TILE_AMPS));
        let mut split = s0.clone();
        let forced = Split {
            parallel: true,
            wide: true,
        };
        apply_prepared(split.amplitudes_mut(), &prepared, forced);
        let ph = Complex64::cis(fused_c.global_phase());
        for a in split.amplitudes_mut() {
            *a *= ph;
        }
        assert!(split.distance(&unfused) < 1e-12);
    }

    #[test]
    fn contradictory_controls_match_no_state() {
        // The same qubit required to be both |0⟩ and |1⟩: identity, on both
        // paths (regression test for the mask-fold control check).
        let n = 3;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.keyed_phase(vec![ControlBit::one(0), ControlBit::zero(0)], 1.0);
        c.mcx(vec![ControlBit::one(1), ControlBit::zero(1)], 2);
        let mut rng = StdRng::seed_from_u64(17);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.apply_fused(&c.fused());
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);
        // And both equal just the H layer (the contradictory gates are no-ops).
        let mut h_only = Circuit::new(n);
        for q in 0..n {
            h_only.h(q);
        }
        let mut expect = s0.clone();
        expect.run_unfused(&h_only);
        assert!(unfused.distance(&expect) < 1e-12);
    }

    #[test]
    fn unsatisfiable_controls_leave_the_state_alone_on_the_laned_paths() {
        // `control_mask` folds a contradictory pattern to `(0, 1)`; the
        // laned single-qubit and dense arms must not take its zero mask
        // for "uncontrolled". Target 0 is the top bit, whose pair sweep is
        // laned at every register size.
        let contradictory = |n: usize| {
            let mut controls: Vec<ControlBit> = (2..n).map(ControlBit::one).collect();
            controls.push(ControlBit::zero(2));
            controls
        };
        let n = 12;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.mcx(contradictory(n), 0).rz(0, 0.3);
        let mut rng = StdRng::seed_from_u64(29);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.run_fused(&c);
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);

        // The McX as a pass-through op, and a dense 2-qubit block under the
        // same controls, leave every amplitude's bits as they were.
        let hh = {
            let h = Gate::H(0).base_matrix().expect("H");
            h.kron(&h)
        };
        for n in [3, 5, 8, 12] {
            let ops = [
                FusedOp {
                    qubits: (0..n).collect(),
                    kernel: FusedKernel::Gate(Gate::McX {
                        controls: contradictory(n),
                        target: 0,
                    }),
                },
                FusedOp {
                    qubits: vec![0, 1],
                    kernel: FusedKernel::Dense {
                        controls: contradictory(n),
                        matrix: hh.clone(),
                    },
                },
            ];
            let s0 = StateVector::random_state(n, &mut rng);
            for op in &ops {
                let mut s = s0.clone();
                s.apply_fused_op(op);
                let bits = |s: &StateVector| -> Vec<(u64, u64)> {
                    s.amplitudes()
                        .iter()
                        .map(|a| (a.re.to_bits(), a.im.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&s), bits(&s0), "n = {n}: {:?}", op.kernel);
            }
        }
    }

    #[test]
    fn evolve_leaves_original_untouched() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s0 = StateVector::zero_state(2);
        let s1 = crate::state::evolve(&s0, &c);
        assert!((s0.probability(0) - 1.0).abs() < 1e-12);
        assert!((s1.probability(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reusing_a_fused_circuit_across_states() {
        let c = mixed_circuit(5, 1);
        let fused = c.fused();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s0 = StateVector::random_state(5, &mut rng);
            let mut a = s0.clone();
            a.apply_fused(&fused);
            let mut b = s0.clone();
            b.run_unfused(&c);
            assert!(a.distance(&b) < 1e-12);
        }
    }
}
