//! Matrix-free expectation values of Pauli sums.
//!
//! Every energy evaluation of the application layers (`UCCSD`/VQE energies,
//! QAOA costs, Trotter-error sweeps) reduces to `⟨ψ|H|ψ⟩` for a Hamiltonian
//! expanded over Pauli strings. The generic path materializes the observable
//! as a sparse matrix and runs a mat-vec plus an inner product — two `O(2^n)`
//! passes, an `O(2^n)` allocation, and an expensive `O(T·2^n)` matrix
//! construction per observable. The engine here evaluates the same quantity
//! **directly from the strings' X/Z bitmasks**, without ever materializing an
//! operator:
//!
//! * a string with no `X`/`Y` factor is diagonal: `⟨ψ|P|ψ⟩` is a
//!   parity-signed sum of measurement probabilities, and *all* diagonal
//!   strings of a sum share one probability sweep;
//! * a string with flip structure pairs amplitude `j` with `j ⊕ x_mask`:
//!   `⟨ψ|P|ψ⟩ = Σ 2·(±1)·f(conj(a_{j⊕x})·a_j)` over one index per pair,
//!   where the `i^{#Y}` phase of the string folds into the choice of the
//!   real or imaginary component `f` — a single gather sweep, and every
//!   string with the *same* flip mask shares it.
//!
//! [`GroupedPauliSum`] preprocesses a [`PauliSum`] once into those shared
//! sweeps (satisfying the qubit-wise-commutation structure described in
//! [`qwc_partition`]), then evaluates the whole sum in one pass per group.
//! Sweeps of at least [`crate::parallel_threshold`] amplitudes run
//! rayon-parallel over fixed-size index chunks whose partial sums are
//! combined in chunk order, so the result is **bit-identical** across
//! thread counts and across the serial/parallel crossover — the same
//! determinism contract as the fused gate kernels and the batched shot
//! engine.
//!
//! The diagonal sweep is 4-wide ([`F64x4`] lanes): probabilities for an
//! aligned index quad are computed once, the per-term parity sign needs a
//! single popcount per quad (the two low index bits contribute a
//! precomputed per-lane pattern), and contributions accumulate into
//! per-term lane registers reduced left-to-right at each chunk boundary —
//! a fixed summation order, so the determinism contract above is
//! unaffected.
//!
//! The sparse path ([`StateVector::expectation_sparse`]) stays available as
//! the slow, obviously-correct oracle the property tests compare against.
//!
//! ```
//! use ghs_math::c64;
//! use ghs_operators::{PauliString, PauliSum};
//! use ghs_statevector::{GroupedPauliSum, StateVector};
//!
//! // H = 0.5·Z − 0.25·X on one qubit, evaluated on |0⟩: ⟨H⟩ = 0.5.
//! let mut sum = PauliSum::zero(1);
//! sum.push(c64(0.5, 0.0), PauliString::parse("Z").unwrap());
//! sum.push(c64(-0.25, 0.0), PauliString::parse("X").unwrap());
//! let observable = GroupedPauliSum::new(&sum);
//! let state = StateVector::zero_state(1);
//! let e = observable.expectation(state.amplitudes());
//! assert!((e.re - 0.5).abs() < 1e-15 && e.im.abs() < 1e-15);
//! ```

use crate::state::{parallel_threshold, StateVector};
use ghs_math::{Complex64, F64x4};
use ghs_operators::{PauliOp, PauliString, PauliSum};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Amplitudes (or amplitude pairs) per deterministic partial-sum chunk.
///
/// Partial sums are always accumulated per fixed-size chunk and combined in
/// chunk order, whether or not the chunks ran in parallel — that is what
/// makes the result bit-identical across thread counts. Small enough that a
/// register at the default parallel threshold still splits into several
/// chunks.
const EXP_CHUNK: usize = 1 << 10;

/// One diagonal (`I`/`Z`-only) string: a parity-signed probability sum.
#[derive(Clone, Copy, Debug)]
struct DiagonalTerm {
    /// Bitmask of the `Z` factors over basis-state indices.
    z_mask: usize,
    /// Coefficient of the string in the sum.
    coeff: Complex64,
}

/// One flip string within a shared-mask group. The constant `i^{#Y}` phase
/// of the string is folded into `(component, sign)`: the pair contribution
/// is `2·sign·(±1)^{parity(j & z_mask)}·f(w)` with `w = conj(a_{j⊕x})·a_j`
/// and `f` selecting `w.re` or `w.im`.
#[derive(Clone, Copy, Debug)]
struct FlipTerm {
    /// Bitmask of the `Z` and `Y` factors (the parity-sign mask).
    z_mask: usize,
    /// Which component of the pair product contributes: `0` = real (even
    /// `#Y`), `1` = imaginary (odd `#Y`). Stored as an index so the sweep
    /// stays branch-free.
    component: usize,
    /// Constant sign from the folded `i^{#Y}` phase.
    sign: f64,
    /// Coefficient of the string in the sum.
    coeff: Complex64,
}

/// All strings sharing one flip mask: they pair the same amplitudes, so a
/// single gather sweep evaluates every one of them.
#[derive(Clone, Debug)]
struct FlipGroup {
    /// Common `X`/`Y` support mask (non-zero).
    x_mask: usize,
    /// Lowest set bit of `x_mask`; pairs are enumerated with this bit clear.
    low_bit: usize,
    /// The strings of the group.
    terms: Vec<FlipTerm>,
}

/// A [`PauliSum`] preprocessed for matrix-free, single-sweep-per-group
/// expectation evaluation.
///
/// Construction is `O(T·n)` (mask extraction plus grouping); evaluation is
/// one shared sweep for *all* diagonal strings plus one gather sweep per
/// distinct flip mask — `O(G·2^n)` with `G` the number of groups, no
/// allocation proportional to `2^n`, and no operator matrix anywhere.
///
/// See the module docs for the kernel derivation and the determinism
/// contract.
#[derive(Clone, Debug)]
pub struct GroupedPauliSum {
    num_qubits: usize,
    /// X/Z masks of every string in the source sum's order (kept for the
    /// lazily computed measurement-setting count).
    term_masks: Vec<(usize, usize)>,
    /// QWC measurement-setting count, computed on first request — the hot
    /// evaluation paths never need it.
    num_settings: OnceLock<usize>,
    diagonal: Vec<DiagonalTerm>,
    flips: Vec<FlipGroup>,
}

impl GroupedPauliSum {
    /// Preprocesses a sum: extracts X/Z bitmasks, folds the `i^{#Y}` phases,
    /// and groups strings by flip mask so each group shares one sweep.
    pub fn new(sum: &PauliSum) -> Self {
        let mut diagonal = Vec::new();
        let mut flips: Vec<FlipGroup> = Vec::new();
        let mut term_masks = Vec::with_capacity(sum.num_terms());
        for &(coeff, ref string) in sum.terms() {
            let (x_mask, z_mask) = string.masks();
            term_masks.push((x_mask, z_mask));
            if x_mask == 0 {
                diagonal.push(DiagonalTerm { z_mask, coeff });
                continue;
            }
            let term = {
                // `PauliString::mask_phase` (i^{#Y}) folded into a component
                // selector and a sign: Re(i^k·w) cycles through w.re, −w.im,
                // −w.re, w.im for k = 0..4. The pair identity
                // term(j⊕x) = conj(term(j)) makes every per-string sweep
                // real (see the module docs).
                let (component, sign) = match (x_mask & z_mask).count_ones() % 4 {
                    0 => (0, 1.0),
                    1 => (1, -1.0),
                    2 => (0, -1.0),
                    _ => (1, 1.0),
                };
                FlipTerm {
                    z_mask,
                    component,
                    sign,
                    coeff,
                }
            };
            match flips.iter_mut().find(|g| g.x_mask == x_mask) {
                Some(g) => g.terms.push(term),
                None => flips.push(FlipGroup {
                    x_mask,
                    low_bit: x_mask & x_mask.wrapping_neg(),
                    terms: vec![term],
                }),
            }
        }
        Self {
            num_qubits: sum.num_qubits(),
            term_masks,
            num_settings: OnceLock::new(),
            diagonal,
            flips,
        }
    }

    /// Register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of Pauli strings in the sum.
    pub fn num_terms(&self) -> usize {
        self.term_masks.len()
    }

    /// Number of amplitude sweeps one evaluation performs: one shared sweep
    /// for the diagonal batch (if any) plus one per distinct flip mask.
    pub fn num_groups(&self) -> usize {
        usize::from(!self.diagonal.is_empty()) + self.flips.len()
    }

    /// Number of measurement settings the sum needs on hardware after
    /// qubit-wise-commuting grouping (see [`qwc_partition`]) — the
    /// measurement-setting-reduction count of the paper's Annex C, computed
    /// lazily on first request (evaluation never pays for it) and cached.
    pub fn num_settings(&self) -> usize {
        *self
            .num_settings
            .get_or_init(|| qwc_groups_from_masks(&self.term_masks).len())
    }

    /// Every string of the sum in `(coefficient, x_mask, z_mask)` form —
    /// the mask representation non-dense backends (the stabilizer tableau
    /// engine) evaluate term by term, `⟨H⟩ = Σ cᵢ·⟨Pᵢ⟩`. Order is the
    /// diagonal batch first, then the flip groups; the sum is
    /// order-independent.
    pub fn string_masks(&self) -> Vec<(Complex64, usize, usize)> {
        let mut out = Vec::with_capacity(self.num_terms());
        for t in &self.diagonal {
            out.push((t.coeff, 0, t.z_mask));
        }
        for g in &self.flips {
            for t in &g.terms {
                out.push((t.coeff, g.x_mask, t.z_mask));
            }
        }
        out
    }

    /// Expectation value `⟨ψ|H|ψ⟩` of the preprocessed sum on raw
    /// amplitudes.
    ///
    /// For a Hermitian sum (real coefficients) the imaginary part is zero to
    /// machine precision. Sweeps parallelize from
    /// [`crate::parallel_threshold`] amplitudes on, with bit-identical
    /// results across thread counts.
    ///
    /// # Panics
    /// Panics when `amps.len() != 2^n` for the sum's register size.
    pub fn expectation(&self, amps: &[Complex64]) -> Complex64 {
        self.expectation_with_threshold(amps, parallel_threshold())
    }

    /// [`GroupedPauliSum::expectation`] with an explicit parallel threshold
    /// in place of [`crate::parallel_threshold`].
    ///
    /// Exposed so the determinism regression tests can force the
    /// always-parallel (`0`) and never-parallel (`usize::MAX`) paths in one
    /// process and assert bit-identical results; application code should
    /// call [`GroupedPauliSum::expectation`].
    pub fn expectation_with_threshold(&self, amps: &[Complex64], threshold: usize) -> Complex64 {
        assert_eq!(
            amps.len(),
            1usize << self.num_qubits,
            "amplitude count does not match the observable's register"
        );
        let parallel = amps.len() >= threshold;
        let mut acc = Complex64::ZERO;

        if !self.diagonal.is_empty() {
            let terms = &self.diagonal;
            // Per-term lane precomputation for the 4-wide sweep below: over
            // an aligned index quad `j..j+4` only the two low index bits
            // vary, so each lane's parity sign is the quad's shared parity
            // (one popcount with the low bits masked off) XOR a constant
            // per-lane pattern derived from the low two `z_mask` bits.
            let lane_flips: Vec<(usize, [u64; 4])> = terms
                .iter()
                .map(|t| {
                    let b0 = ((t.z_mask as u64) & 1) << 63;
                    let b1 = (((t.z_mask as u64) >> 1) & 1) << 63;
                    (t.z_mask & !3, [0, b0, b1, b0 ^ b1])
                })
                .collect();
            let sums = chunked_partials(amps.len(), terms.len(), parallel, |chunk, out| {
                let base = chunk * EXP_CHUNK;
                let end = (base + EXP_CHUNK).min(amps.len());
                // 4-wide Z-parity sweep: probability lanes once per quad,
                // one parity popcount per (quad, term), vector adds into
                // per-term lane accumulators. The lane partials are reduced
                // left-to-right ([`F64x4::reduce_add`]) before the scalar
                // tail, so the summation order is fixed and results stay
                // bit-identical across thread counts.
                let quads_end = base + ((end - base) & !3);
                let mut lanes = vec![F64x4::zero(); terms.len()];
                let mut j = base;
                while j < quads_end {
                    let p = F64x4([
                        amps[j].norm_sqr(),
                        amps[j + 1].norm_sqr(),
                        amps[j + 2].norm_sqr(),
                        amps[j + 3].norm_sqr(),
                    ]);
                    for ((zm_hi, pat), l) in lane_flips.iter().zip(lanes.iter_mut()) {
                        let b = (((j & zm_hi).count_ones() & 1) as u64) << 63;
                        // Branch-free parity signs: flip the IEEE sign bits.
                        *l += F64x4([
                            f64::from_bits(p.0[0].to_bits() ^ (b ^ pat[0])),
                            f64::from_bits(p.0[1].to_bits() ^ (b ^ pat[1])),
                            f64::from_bits(p.0[2].to_bits() ^ (b ^ pat[2])),
                            f64::from_bits(p.0[3].to_bits() ^ (b ^ pat[3])),
                        ]);
                    }
                    j += 4;
                }
                for (l, o) in lanes.into_iter().zip(out.iter_mut()) {
                    *o = l.reduce_add();
                }
                // Scalar tail for registers smaller than one quad.
                for j in quads_end..end {
                    let p = amps[j].norm_sqr();
                    for (term, o) in terms.iter().zip(out.iter_mut()) {
                        let flip = (((j & term.z_mask).count_ones() & 1) as u64) << 63;
                        *o += f64::from_bits(p.to_bits() ^ flip);
                    }
                }
            });
            for (term, s) in terms.iter().zip(&sums) {
                acc += term.coeff * *s;
            }
        }

        for group in &self.flips {
            let terms = &group.terms;
            let x = group.x_mask;
            let low = group.low_bit;
            let pairs = amps.len() / 2;
            let sums = chunked_partials(pairs, terms.len(), parallel, |chunk, out| {
                let base = chunk * EXP_CHUNK;
                let end = (base + EXP_CHUNK).min(pairs);
                for h in base..end {
                    // Expand `h` into the pair representative `j` with the
                    // group's low flip bit clear.
                    let j = ((h & !(low - 1)) << 1) | (h & (low - 1));
                    let w = amps[j ^ x].conj() * amps[j];
                    let components = [w.re, w.im];
                    for (term, o) in terms.iter().zip(out.iter_mut()) {
                        let v = term.sign * components[term.component];
                        // Branch-free parity sign: flip the IEEE sign bit.
                        let flip = (((j & term.z_mask).count_ones() & 1) as u64) << 63;
                        *o += f64::from_bits(v.to_bits() ^ flip);
                    }
                }
            });
            for (term, s) in terms.iter().zip(&sums) {
                acc += term.coeff * (2.0 * *s);
            }
        }
        acc
    }

    /// Applies the sum to raw amplitudes, matrix-free: returns `H·ψ`.
    ///
    /// This is the observable-application primitive of the adjoint gradient
    /// engine (`λ = H|ψ⟩` seeds the reverse sweep, see
    /// [`crate::gradient::adjoint_gradient`]). Each output amplitude is
    /// assembled independently from the string masks —
    /// `P|j⟩ = i^{#Y}·(−1)^{popcount(j ∧ z)}·|j ⊕ x⟩` — so the sweep
    /// parallelizes over output chunks with bit-identical results across
    /// thread counts (no cross-chunk accumulation exists to reorder).
    ///
    /// # Panics
    /// Panics when `amps.len() != 2^n` for the sum's register size.
    pub fn apply(&self, amps: &[Complex64]) -> Vec<Complex64> {
        self.apply_with_threshold(amps, parallel_threshold())
    }

    /// [`GroupedPauliSum::apply`] with an explicit parallel threshold, for
    /// the determinism regression tests (mirrors
    /// [`GroupedPauliSum::expectation_with_threshold`]).
    pub fn apply_with_threshold(&self, amps: &[Complex64], threshold: usize) -> Vec<Complex64> {
        assert_eq!(
            amps.len(),
            1usize << self.num_qubits,
            "amplitude count does not match the observable's register"
        );
        // Fold each flip string's constant i^{#Y} phase into its coefficient
        // once, outside the sweep.
        struct ApplyGroup {
            x_mask: usize,
            terms: Vec<(usize, Complex64)>, // (z_mask, coeff·i^{#Y})
        }
        let groups: Vec<ApplyGroup> = self
            .flips
            .iter()
            .map(|g| ApplyGroup {
                x_mask: g.x_mask,
                terms: g
                    .terms
                    .iter()
                    .map(|t| {
                        (
                            t.z_mask,
                            t.coeff * PauliString::mask_phase(g.x_mask, t.z_mask),
                        )
                    })
                    .collect(),
            })
            .collect();
        let diagonal = &self.diagonal;
        let mut out = vec![Complex64::ZERO; amps.len()];
        let kernel = |base: usize, chunk: &mut [Complex64]| {
            for (k, o) in chunk.iter_mut().enumerate() {
                let i = base + k;
                let mut acc = Complex64::ZERO;
                let ai = amps[i];
                for t in diagonal {
                    let v = t.coeff * ai;
                    acc += if (i & t.z_mask).count_ones() & 1 == 1 {
                        -v
                    } else {
                        v
                    };
                }
                for g in &groups {
                    let j = i ^ g.x_mask;
                    let aj = amps[j];
                    for &(z_mask, coeff) in &g.terms {
                        let v = coeff * aj;
                        acc += if (j & z_mask).count_ones() & 1 == 1 {
                            -v
                        } else {
                            v
                        };
                    }
                }
                *o = acc;
            }
        };
        if amps.len() >= threshold && amps.len() > EXP_CHUNK {
            out.par_chunks_mut(EXP_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| kernel(ci * EXP_CHUNK, chunk));
        } else {
            for (ci, chunk) in out.chunks_mut(EXP_CHUNK).enumerate() {
                kernel(ci * EXP_CHUNK, chunk);
            }
        }
        out
    }
}

impl StateVector {
    /// Matrix-free expectation value of a preprocessed Pauli sum — the
    /// production observable path (see [`GroupedPauliSum`]);
    /// [`StateVector::expectation_sparse`] remains the oracle.
    pub fn expectation_grouped(&self, observable: &GroupedPauliSum) -> Complex64 {
        observable.expectation(self.amplitudes())
    }
}

/// Runs `kernel(chunk_index, partials_of_chunk)` over `units` work items in
/// fixed [`EXP_CHUNK`] blocks and combines the per-chunk partial sums in
/// chunk order. The combine order is independent of whether the chunks ran
/// in parallel, which is what makes evaluation bit-identical across thread
/// counts.
fn chunked_partials<F>(units: usize, num_terms: usize, parallel: bool, kernel: F) -> Vec<f64>
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if num_terms == 0 || units == 0 {
        return vec![0.0; num_terms];
    }
    let num_chunks = units.div_ceil(EXP_CHUNK);
    let mut partials = vec![0.0f64; num_chunks * num_terms];
    if parallel && num_chunks > 1 {
        partials
            .par_chunks_mut(num_terms)
            .enumerate()
            .for_each(|(ci, out)| kernel(ci, out));
    } else {
        for (ci, out) in partials.chunks_mut(num_terms).enumerate() {
            kernel(ci, out);
        }
    }
    let mut sums = vec![0.0f64; num_terms];
    for chunk in partials.chunks(num_terms) {
        for (s, p) in sums.iter_mut().zip(chunk) {
            *s += p;
        }
    }
    sums
}

/// Greedy first-fit partition of a sum's strings into qubit-wise-commuting
/// (QWC) groups: two strings share a group iff on every qubit their factors
/// are equal or one is the identity. All strings of a QWC group are
/// simultaneously diagonalized by one local basis change, so a group is a
/// single *measurement setting* — the measurement-count reduction of the
/// paper's Annex C applied to the usual (Pauli-fragment) strategy.
///
/// Returns the groups as index lists into `sum.terms()`; their number is
/// available lazily on [`GroupedPauliSum::num_settings`].
pub fn qwc_partition(sum: &PauliSum) -> Vec<Vec<usize>> {
    let masks: Vec<(usize, usize)> = sum.terms().iter().map(|(_, s)| s.masks()).collect();
    qwc_groups_from_masks(&masks)
}

/// [`qwc_partition`] on pre-extracted `(x_mask, z_mask)` pairs (the form the
/// grouped evaluator already stores).
fn qwc_groups_from_masks(masks: &[(usize, usize)]) -> Vec<Vec<usize>> {
    // Per-group signature: accumulated X/Z masks and support of its strings.
    struct Signature {
        x: usize,
        z: usize,
        support: usize,
        members: Vec<usize>,
    }
    let mut groups: Vec<Signature> = Vec::new();
    for (idx, &(x, z)) in masks.iter().enumerate() {
        let support = x | z;
        match groups.iter_mut().find(|g| {
            let overlap = g.support & support;
            (g.x ^ x) & overlap == 0 && (g.z ^ z) & overlap == 0
        }) {
            Some(g) => {
                g.x |= x;
                g.z |= z;
                g.support |= support;
                g.members.push(idx);
            }
            None => groups.push(Signature {
                x,
                z,
                support,
                members: vec![idx],
            }),
        }
    }
    groups.into_iter().map(|g| g.members).collect()
}

/// The basis-change signature of one QWC group of `sum`: for every qubit in
/// the group's joint support, the common Pauli factor its strings apply
/// there. Useful for building the measurement circuit of a setting.
pub fn qwc_signature(sum: &PauliSum, group: &[usize]) -> Vec<(usize, PauliOp)> {
    let n = sum.num_qubits();
    let mut sig = vec![PauliOp::I; n];
    for &idx in group {
        for (q, &op) in sum.terms()[idx].1.ops().iter().enumerate() {
            if op != PauliOp::I {
                debug_assert!(
                    sig[q] == PauliOp::I || sig[q] == op,
                    "group is not qubit-wise commuting"
                );
                sig[q] = op;
            }
        }
    }
    sig.into_iter()
        .enumerate()
        .filter(|&(_, op)| op != PauliOp::I)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_math::c64;
    use ghs_operators::PauliString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sum_of(n: usize, terms: &[(f64, &str)]) -> PauliSum {
        let mut s = PauliSum::zero(n);
        for &(c, p) in terms {
            s.push(c64(c, 0.0), PauliString::parse(p).unwrap());
        }
        s
    }

    #[test]
    fn diagonal_and_flip_kernels_match_sparse_oracle() {
        let mut rng = StdRng::seed_from_u64(5);
        let state = StateVector::random_state(4, &mut rng);
        let sum = sum_of(
            4,
            &[
                (0.7, "ZIZI"),
                (-0.4, "IIII"),
                (0.9, "XXII"),
                (0.35, "YYII"),
                (-0.6, "XYZI"),
                (0.25, "IZYX"),
            ],
        );
        let oracle = state.expectation_sparse(&sum.sparse_matrix());
        let grouped = GroupedPauliSum::new(&sum);
        let fast = grouped.expectation(state.amplitudes());
        assert!((fast - oracle).abs() < 1e-12, "{fast} vs {oracle}");
        // XXII, YYII and XYZI all share the flip mask 0b1100; IZYX flips
        // 0b0011. One diagonal batch + two gather sweeps.
        assert_eq!(grouped.num_groups(), 1 + 2);
    }

    #[test]
    fn single_qubit_paulis_on_known_states() {
        // ⟨+|X|+⟩ = 1, ⟨0|Z|0⟩ = 1, ⟨0|Y|0⟩ = 0.
        let plus =
            StateVector::from_amplitudes(1, vec![c64(std::f64::consts::FRAC_1_SQRT_2, 0.0); 2]);
        let x = GroupedPauliSum::new(&sum_of(1, &[(1.0, "X")]));
        assert!((x.expectation(plus.amplitudes()).re - 1.0).abs() < 1e-15);
        let zero = StateVector::zero_state(1);
        let z = GroupedPauliSum::new(&sum_of(1, &[(1.0, "Z")]));
        assert!((z.expectation(zero.amplitudes()).re - 1.0).abs() < 1e-15);
        let y = GroupedPauliSum::new(&sum_of(1, &[(1.0, "Y")]));
        assert!(y.expectation(zero.amplitudes()).abs() < 1e-15);
    }

    #[test]
    fn y_expectation_has_correct_sign() {
        // |ψ⟩ = (|0⟩ + i|1⟩)/√2 is the +1 eigenstate of Y.
        let amp = std::f64::consts::FRAC_1_SQRT_2;
        let state = StateVector::from_amplitudes(1, vec![c64(amp, 0.0), c64(0.0, amp)]);
        let y = GroupedPauliSum::new(&sum_of(1, &[(1.0, "Y")]));
        assert!((y.expectation(state.amplitudes()).re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn complex_coefficients_are_carried_through() {
        let mut rng = StdRng::seed_from_u64(11);
        let state = StateVector::random_state(3, &mut rng);
        let mut sum = PauliSum::zero(3);
        sum.push(c64(0.4, -0.9), PauliString::parse("XZY").unwrap());
        sum.push(c64(-0.2, 0.3), PauliString::parse("ZIZ").unwrap());
        let oracle = state.expectation_sparse(&sum.sparse_matrix());
        let fast = GroupedPauliSum::new(&sum).expectation(state.amplitudes());
        assert!((fast - oracle).abs() < 1e-12);
    }

    #[test]
    fn parallel_and_serial_paths_are_bit_identical() {
        // Both paths are forced through the threshold hook; 13 qubits is
        // eight EXP_CHUNK partial sums.
        let mut rng = StdRng::seed_from_u64(3);
        let state = StateVector::random_state(13, &mut rng);
        let n = 13;
        let sum = sum_of(
            n,
            &[
                (0.8, "ZZIIIIIIIIIII"),
                (-0.3, "IZIIIIZIIIIIZ"),
                (0.5, "XXIIIIIIIIIII"),
                (0.2, "YIYIIIIIIIIII"),
                (-0.7, "XIIIIIIIIIIIX"),
            ],
        );
        let grouped = GroupedPauliSum::new(&sum);
        let serial = grouped.expectation_with_threshold(state.amplitudes(), usize::MAX);
        let parallel = grouped.expectation_with_threshold(state.amplitudes(), 0);
        assert_eq!(serial.re.to_bits(), parallel.re.to_bits());
        assert_eq!(serial.im.to_bits(), parallel.im.to_bits());
    }

    #[test]
    fn qwc_partition_groups_compatible_strings() {
        let sum = sum_of(
            3,
            &[
                (1.0, "ZZI"), // diagonal family
                (1.0, "IZZ"),
                (1.0, "XIX"), // X-family, QWC with each other
                (1.0, "XII"),
                (1.0, "YII"), // conflicts with X on qubit 0
            ],
        );
        let groups = qwc_partition(&sum);
        assert_eq!(groups.len(), 3);
        // Within every group, factors agree wherever both are non-identity.
        for g in &groups {
            let sig = qwc_signature(&sum, g);
            for &idx in g {
                for (q, &op) in sum.terms()[idx].1.ops().iter().enumerate() {
                    if op != PauliOp::I {
                        assert!(sig.contains(&(q, op)));
                    }
                }
            }
        }
        let grouped = GroupedPauliSum::new(&sum);
        assert_eq!(grouped.num_settings(), 3);
        assert_eq!(grouped.num_terms(), 5);
    }

    #[test]
    fn apply_matches_sparse_matvec_oracle() {
        let mut rng = StdRng::seed_from_u64(19);
        let state = StateVector::random_state(5, &mut rng);
        let sum = sum_of(
            5,
            &[
                (0.7, "ZIZII"),
                (-0.4, "IIIII"),
                (0.9, "XXIII"),
                (0.35, "YYIII"),
                (-0.6, "XYZII"),
                (0.25, "IZYXI"),
                (0.5, "IIIYZ"),
            ],
        );
        let grouped = GroupedPauliSum::new(&sum);
        let fast = grouped.apply(state.amplitudes());
        let oracle = sum.sparse_matrix().matvec(state.amplitudes());
        for (f, o) in fast.iter().zip(&oracle) {
            assert!((*f - *o).abs() < 1e-12, "{f} vs {o}");
        }
        // ⟨ψ|H|ψ⟩ through apply agrees with the expectation sweep.
        let via_apply = ghs_math::vec_inner(state.amplitudes(), &fast);
        let direct = grouped.expectation(state.amplitudes());
        assert!((via_apply - direct).abs() < 1e-12);
    }

    #[test]
    fn apply_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(23);
        let state = StateVector::random_state(13, &mut rng);
        let sum = sum_of(
            13,
            &[
                (0.8, "ZZIIIIIIIIIII"),
                (0.5, "XXIIIIIIIIIII"),
                (-0.7, "XIIIIIIIIIIIX"),
                (0.2, "YIYIIIIIIIIII"),
            ],
        );
        let grouped = GroupedPauliSum::new(&sum);
        let serial = grouped.apply_with_threshold(state.amplitudes(), usize::MAX);
        let parallel = grouped.apply_with_threshold(state.amplitudes(), 0);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.re.to_bits(), p.re.to_bits());
            assert_eq!(s.im.to_bits(), p.im.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "register")]
    fn register_mismatch_panics() {
        let sum = sum_of(2, &[(1.0, "ZZ")]);
        let state = StateVector::zero_state(3);
        let _ = GroupedPauliSum::new(&sum).expectation(state.amplitudes());
    }
}
