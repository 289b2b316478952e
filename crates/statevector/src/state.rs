//! Dense state-vector representation and gate application kernels.
//!
//! The simulator substitutes for the QPU the paper targets: it executes the
//! circuits produced by the construction crates exactly (no noise), which is
//! what lets the workspace *verify* the paper's claims of per-term exactness
//! rather than merely assert them.
//!
//! Convention: qubit 0 is the most-significant bit of the basis-state index,
//! matching `ghs_math::bits` and the paper's left-to-right tensor ordering.

use ghs_circuit::{Circuit, ControlBit, Gate};
use ghs_math::bits::qubit_bit;
use ghs_math::{c64, CMatrix, Complex64, SparseMatrix};
use rand::Rng;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Default number of amplitudes from which kernels switch to rayon: the
/// serial-vs-parallel crossover that `ghs_bench`'s `crossover` binary
/// measured on a 2-vCPU host (see the README's *Tuning* section).
pub(crate) const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 16;

/// Number of amplitudes from which the per-gate kernels, the fused sweeps,
/// the sharded engine and the expectation and gradient reductions switch to
/// rayon (the batched sampler weighs each shot as several amplitudes).
///
/// Overridable via the `GHS_PARALLEL_THRESHOLD` environment variable (read
/// once per process): raise it where thread spawn overhead dominates, lower
/// it on many-core runners. Unparsable or missing values fall back to the
/// built-in default of 65536 (2¹⁶).
pub fn parallel_threshold() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("GHS_PARALLEL_THRESHOLD")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_PARALLEL_THRESHOLD)
    })
}

/// Register size for tests that must reach the parallel kernels: the
/// smallest register at [`parallel_threshold`], at least 14 qubits (two
/// fused tiles) and at most the default threshold's size, so a
/// serial-forcing override (`usize::MAX`) does not blow the test up.
#[cfg(test)]
pub(crate) fn parallel_test_qubits() -> usize {
    let at_default = DEFAULT_PARALLEL_THRESHOLD.trailing_zeros() as usize;
    (14.min(at_default)..at_default)
        .find(|&n| 1usize << n >= parallel_threshold())
        .unwrap_or(at_default)
}

/// Folds control/key conditions into one `(mask, value)` pair so an index
/// satisfies all conditions iff `index & mask == value` (qubit 0 = most
/// significant bit, matching `ghs_math::bits`).
///
/// A contradictory list (the same qubit required to be both `0` and `1`)
/// matches no basis state; the returned pair `(0, 1)` then fails for every
/// index, preserving the semantics of checking each condition in turn.
#[inline]
pub(crate) fn control_mask(controls: &[ControlBit], num_qubits: usize) -> (usize, usize) {
    let mut mask = 0usize;
    let mut value = 0usize;
    for c in controls {
        let bit = 1usize << (num_qubits - 1 - c.qubit);
        let v = if c.value == 1 { bit } else { 0 };
        if mask & bit != 0 && value & bit != v {
            return (0, 1); // unsatisfiable
        }
        mask |= bit;
        value |= v;
    }
    (mask, value)
}

/// A pure quantum state on `num_qubits` qubits.
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational-basis state `|index⟩`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(index < dim, "basis index out of range");
        let mut amps = vec![Complex64::ZERO; dim];
        amps[index] = Complex64::ONE;
        Self { num_qubits, amps }
    }

    /// Resets the state to the computational-basis state `|index⟩` **in
    /// place**, reusing the existing amplitude buffer. This is the batched
    /// execution path's reset between jobs: no allocation, one linear sweep.
    pub fn reset_to_basis(&mut self, index: usize) {
        assert!(index < self.amps.len(), "basis index out of range");
        self.amps.fill(Complex64::ZERO);
        self.amps[index] = Complex64::ONE;
    }

    /// Builds a state from raw amplitudes (normalising is the caller's
    /// responsibility; use [`StateVector::normalize`] if needed).
    pub fn from_amplitudes(num_qubits: usize, amps: Vec<Complex64>) -> Self {
        assert_eq!(amps.len(), 1usize << num_qubits, "amplitude count mismatch");
        Self { num_qubits, amps }
    }

    /// A reproducible pseudo-random normalised state.
    pub fn random_state<R: Rng>(num_qubits: usize, rng: &mut R) -> Self {
        let dim = 1usize << num_qubits;
        let amps: Vec<Complex64> = (0..dim)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut s = Self { num_qubits, amps };
        s.normalize();
        s
    }

    /// Register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension `2^n`.
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Amplitudes (read-only).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable amplitude slice for the fused kernels.
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Amplitude of one basis state.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.amps[index]
    }

    /// Probability of measuring `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Euclidean norm of the state.
    pub fn norm(&self) -> f64 {
        ghs_math::vec_norm(&self.amps)
    }

    /// Normalises in place.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner(&self, other: &Self) -> Complex64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        ghs_math::vec_inner(&self.amps, &other.amps)
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &Self) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Euclidean distance to another state.
    pub fn distance(&self, other: &Self) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        ghs_math::vec_distance(&self.amps, &other.amps)
    }

    /// Tensor product `self ⊗ other` (self occupies the most significant
    /// qubits).
    pub fn tensor(&self, other: &Self) -> Self {
        let n = self.num_qubits + other.num_qubits;
        let mut amps = Vec::with_capacity(1usize << n);
        for a in &self.amps {
            for b in &other.amps {
                amps.push(*a * *b);
            }
        }
        Self {
            num_qubits: n,
            amps,
        }
    }

    #[inline(always)]
    fn bit_pos(&self, qubit: usize) -> usize {
        self.num_qubits - 1 - qubit
    }

    /// Applies an arbitrary single-qubit matrix on `qubit`, conditioned on
    /// the (possibly empty) control pattern.
    pub fn apply_controlled_single_qubit(
        &mut self,
        qubit: usize,
        controls: &[ControlBit],
        u: &CMatrix,
    ) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        assert_eq!(u.rows(), 2);
        assert_eq!(u.cols(), 2);
        debug_assert!(
            controls.iter().all(|c| c.qubit != qubit),
            "control equals target"
        );
        let pos = self.bit_pos(qubit);
        let stride = 1usize << pos;
        let block = stride << 1;
        let n = self.num_qubits;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        // Fold all control conditions into one mask compare per pair.
        let (cmask, cval) = control_mask(controls, n);

        let kernel = |chunk_idx: usize, chunk: &mut [Complex64]| {
            let base = chunk_idx * block;
            for k in 0..stride {
                if (base + k) & cmask != cval {
                    continue;
                }
                let a0 = chunk[k];
                let a1 = chunk[k + stride];
                chunk[k] = u00 * a0 + u01 * a1;
                chunk[k + stride] = u10 * a0 + u11 * a1;
            }
        };

        if self.dim() >= parallel_threshold() {
            self.amps
                .par_chunks_mut(block)
                .enumerate()
                .for_each(|(ci, chunk)| kernel(ci, chunk));
        } else {
            for (ci, chunk) in self.amps.chunks_mut(block).enumerate() {
                kernel(ci, chunk);
            }
        }
    }

    /// Applies a diagonal phase `e^{iθ}` to every basis state matching `key`.
    pub fn apply_keyed_phase(&mut self, key: &[ControlBit], theta: f64) {
        let phase = Complex64::cis(theta);
        let n = self.num_qubits;
        let (kmask, kval) = control_mask(key, n);
        let apply = |(i, a): (usize, &mut Complex64)| {
            if i & kmask == kval {
                *a *= phase;
            }
        };
        if self.dim() >= parallel_threshold() {
            self.amps.par_iter_mut().enumerate().for_each(apply);
        } else {
            self.amps.iter_mut().enumerate().for_each(apply);
        }
    }

    /// Applies one gate.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match gate {
            Gate::GlobalPhase(theta) => {
                let p = Complex64::cis(*theta);
                for a in &mut self.amps {
                    *a *= p;
                }
            }
            Gate::KeyedPhase { key, theta } => self.apply_keyed_phase(key, *theta),
            Gate::Cz { a, b } => {
                self.apply_keyed_phase(
                    &[ControlBit::one(*a), ControlBit::one(*b)],
                    std::f64::consts::PI,
                );
            }
            Gate::Swap { a, b } => {
                let (pa, pb) = (self.bit_pos(*a), self.bit_pos(*b));
                let dim = self.dim();
                for i in 0..dim {
                    let ba = (i >> pa) & 1;
                    let bb = (i >> pb) & 1;
                    if ba == 1 && bb == 0 {
                        let j = (i ^ (1 << pa)) | (1 << pb);
                        self.amps.swap(i, j);
                    }
                }
            }
            Gate::Cx { control, target } => {
                let u = gate.base_matrix().expect("CX base matrix");
                self.apply_controlled_single_qubit(*target, &[ControlBit::one(*control)], &u);
            }
            Gate::McX { controls, target }
            | Gate::McRx {
                controls, target, ..
            }
            | Gate::McRy {
                controls, target, ..
            }
            | Gate::McRz {
                controls, target, ..
            } => {
                let u = gate.base_matrix().expect("controlled base matrix");
                self.apply_controlled_single_qubit(*target, controls, &u);
            }
            other => {
                let q = other.qubits()[0];
                let u = other.base_matrix().expect("single-qubit matrix");
                self.apply_controlled_single_qubit(q, &[], &u);
            }
        }
    }

    /// Applies a full circuit in order.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "register size mismatch"
        );
        for g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Expectation value `⟨ψ|A|ψ⟩` of a sparse operator.
    pub fn expectation_sparse(&self, a: &SparseMatrix) -> Complex64 {
        let av = a.matvec(&self.amps);
        ghs_math::vec_inner(&self.amps, &av)
    }

    /// Expectation value of a dense operator.
    pub fn expectation_dense(&self, a: &CMatrix) -> Complex64 {
        let av = a.matvec(&self.amps);
        ghs_math::vec_inner(&self.amps, &av)
    }

    /// Samples `shots` measurement outcomes in the computational basis by
    /// rebuilding the cumulative table and binary-searching it per shot.
    ///
    /// This is the slow, obviously-correct **oracle** kept for the
    /// statistical tests: every production call site draws through the
    /// `O(2^n + shots)` cached alias path instead — see
    /// [`StateVector::sample_cached`] and
    /// [`crate::sampling::CachedDistribution`].
    pub fn sample<R: Rng>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        let mut cumulative = Vec::with_capacity(self.dim());
        let mut acc = 0.0;
        for a in &self.amps {
            acc += a.norm_sqr();
            cumulative.push(acc);
        }
        let total = acc;
        (0..shots)
            .map(|_| {
                let r: f64 = rng.gen_range(0.0..total);
                cumulative.partition_point(|&c| c < r).min(self.dim() - 1)
            })
            .collect()
    }

    /// Marginal probability that `qubit` reads `1`.
    pub fn probability_of_one(&self, qubit: usize) -> f64 {
        let n = self.num_qubits;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| qubit_bit(*i, qubit, n) == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }
}

/// Builds the full `2^n × 2^n` unitary matrix implemented by a circuit by
/// applying it to every computational-basis state.
///
/// For registers of 10+ qubits the circuit is fused once and the fused form
/// is reused across all `2^n` columns; below that the per-gate path is
/// cheaper than the fusion pass itself.
pub fn circuit_unitary(circuit: &Circuit) -> CMatrix {
    let n = circuit.num_qubits();
    let dim = 1usize << n;
    let fused = (n >= 10).then(|| circuit.fused());
    let mut m = CMatrix::zeros(dim, dim);
    for col in 0..dim {
        let mut s = StateVector::basis_state(n, col);
        match &fused {
            Some(f) => s.apply_fused(f),
            None => s.apply_circuit(circuit),
        }
        for row in 0..dim {
            m[(row, col)] = s.amplitude(row);
        }
    }
    m
}

/// Applies a circuit to a copy of the state and returns the result (through
/// the fused engine; see [`StateVector::run_fused`]).
pub fn evolve(state: &StateVector, circuit: &Circuit) -> StateVector {
    let mut s = state.clone();
    s.run_fused(circuit);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_circuit::matrices;
    use ghs_math::DEFAULT_TOL;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basis_state_probabilities() {
        let s = StateVector::basis_state(3, 5);
        assert_eq!(s.dim(), 8);
        assert!((s.probability(5) - 1.0).abs() < DEFAULT_TOL);
        assert!((s.norm() - 1.0).abs() < DEFAULT_TOL);
    }

    #[test]
    fn hadamard_makes_uniform_superposition() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let mut s = StateVector::zero_state(3);
        s.apply_circuit(&c);
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < DEFAULT_TOL);
        }
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut s = StateVector::zero_state(2);
        s.apply_circuit(&c);
        assert!((s.probability(0b00) - 0.5).abs() < DEFAULT_TOL);
        assert!((s.probability(0b11) - 0.5).abs() < DEFAULT_TOL);
        assert!(s.probability(0b01) < DEFAULT_TOL);
        assert!(s.probability(0b10) < DEFAULT_TOL);
    }

    #[test]
    fn cx_respects_msb_convention() {
        // |10⟩: qubit 0 (MSB) is 1, so CX(0→1) flips qubit 1 → |11⟩.
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        assert!((s.probability(0b11) - 1.0).abs() < DEFAULT_TOL);
        // |01⟩: control is 0 → unchanged.
        let mut s = StateVector::basis_state(2, 0b01);
        s.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        assert!((s.probability(0b01) - 1.0).abs() < DEFAULT_TOL);
    }

    #[test]
    fn zero_polarity_controls() {
        // McX controlled on qubit 0 being |0⟩.
        let g = Gate::McX {
            controls: vec![ControlBit::zero(0)],
            target: 1,
        };
        let mut s = StateVector::basis_state(2, 0b00);
        s.apply_gate(&g);
        assert!((s.probability(0b01) - 1.0).abs() < DEFAULT_TOL);
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(&g);
        assert!((s.probability(0b10) - 1.0).abs() < DEFAULT_TOL);
    }

    #[test]
    fn keyed_phase_only_hits_selected_state() {
        let key = vec![ControlBit::one(0), ControlBit::zero(1), ControlBit::one(2)];
        let mut c = Circuit::new(3);
        c.h(0)
            .h(1)
            .h(2)
            .keyed_phase(key, std::f64::consts::FRAC_PI_2);
        let u = circuit_unitary(&c);
        // Column 0: uniform amplitudes, with phase i only on |101⟩ = index 5.
        let col0: Vec<Complex64> = (0..8).map(|r| u[(r, 0)]).collect();
        let amp = 1.0 / (8f64).sqrt();
        for (i, a) in col0.iter().enumerate() {
            if i == 0b101 {
                assert!(a.approx_eq(c64(0.0, amp), DEFAULT_TOL));
            } else {
                assert!(a.approx_eq(c64(amp, 0.0), DEFAULT_TOL));
            }
        }
    }

    #[test]
    fn circuit_unitary_matches_kron_for_single_qubit_gates() {
        let mut c = Circuit::new(2);
        c.h(0).s(1);
        let u = circuit_unitary(&c);
        let expect = matrices::h().kron(&matrices::s());
        assert!(u.approx_eq(&expect, DEFAULT_TOL));
    }

    #[test]
    fn swap_gate_permutes_basis_states() {
        let mut s = StateVector::basis_state(3, 0b100);
        s.apply_gate(&Gate::Swap { a: 0, b: 2 });
        assert!((s.probability(0b001) - 1.0).abs() < DEFAULT_TOL);
        // SWAP is its own inverse.
        let mut c = Circuit::new(3);
        c.swap(0, 2).swap(0, 2);
        let u = circuit_unitary(&c);
        assert!(u.approx_eq(&CMatrix::identity(8), DEFAULT_TOL));
    }

    #[test]
    fn dagger_circuit_inverts() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Circuit::new(3);
        c.h(0)
            .rx(1, 0.7)
            .cx(0, 2)
            .mcry(vec![ControlBit::one(0), ControlBit::zero(2)], 1, 1.3)
            .cp(1, 2, 0.4)
            .rz(2, -0.9);
        let s0 = StateVector::random_state(3, &mut rng);
        let mut s = s0.clone();
        s.apply_circuit(&c);
        s.apply_circuit(&c.dagger());
        assert!(s.distance(&s0) < 1e-10);
    }

    #[test]
    fn unitarity_of_random_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.3).cz(1, 2).cp(0, 2, 1.1).swap(1, 2);
        let u = circuit_unitary(&c);
        assert!(u.is_unitary(DEFAULT_TOL));
    }

    #[test]
    fn expectation_values() {
        // ⟨+|X|+⟩ = 1.
        let mut c = Circuit::new(1);
        c.h(0);
        let mut s = StateVector::zero_state(1);
        s.apply_circuit(&c);
        let x = SparseMatrix::from_dense(&matrices::x(), 0.0);
        assert!(s
            .expectation_sparse(&x)
            .approx_eq(Complex64::ONE, DEFAULT_TOL));
        assert!(s
            .expectation_dense(&matrices::z())
            .approx_eq(Complex64::ZERO, DEFAULT_TOL));
    }

    #[test]
    fn sampling_statistics() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut c = Circuit::new(1);
        c.h(0);
        let mut s = StateVector::zero_state(1);
        s.apply_circuit(&c);
        let shots = 4000;
        let samples = s.sample(shots, &mut rng);
        let ones = samples.iter().filter(|&&x| x == 1).count() as f64 / shots as f64;
        assert!((ones - 0.5).abs() < 0.05);
    }

    #[test]
    fn tensor_product_of_states() {
        let a = StateVector::basis_state(1, 1);
        let b = StateVector::basis_state(2, 0b01);
        let t = a.tensor(&b);
        assert_eq!(t.num_qubits(), 3);
        assert!((t.probability(0b101) - 1.0).abs() < DEFAULT_TOL);
    }

    #[test]
    fn probability_of_one_marginal() {
        let mut c = Circuit::new(2);
        c.h(0);
        let mut s = StateVector::zero_state(2);
        s.apply_circuit(&c);
        assert!((s.probability_of_one(0) - 0.5).abs() < DEFAULT_TOL);
        assert!(s.probability_of_one(1) < DEFAULT_TOL);
    }

    #[test]
    fn global_phase_gate() {
        let mut s = StateVector::zero_state(1);
        s.apply_gate(&Gate::GlobalPhase(0.7));
        assert!(s.amplitude(0).approx_eq(Complex64::cis(0.7), DEFAULT_TOL));
    }

    #[test]
    fn parallel_threshold_path_matches_small_path() {
        // A register at the parallel threshold runs the rayon kernels.
        let n = parallel_test_qubits();
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.keyed_z((0..n).map(ControlBit::one).collect());
        for q in 0..n {
            c.h(q);
        }
        // This is a Grover-style reflection; applying it twice returns close
        // to |0…0⟩ only approximately, so just verify unitarity via norm and
        // a dagger round trip.
        let mut rng = StdRng::seed_from_u64(2);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut s = s0.clone();
        s.apply_circuit(&c);
        assert!((s.norm() - 1.0).abs() < 1e-9);
        s.apply_circuit(&c.dagger());
        assert!(s.distance(&s0) < 1e-9);
    }
}
