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
//! The diagonal sweep reads all `D` diagonal strings at once through
//! blocked fast Walsh–Hadamard transforms. Write an index as `j = b + r`,
//! with `b` a multiple of the block length `2^w` and `r < 2^w`. Then
//! `(−1)^{popcount(j ∧ z)} = (−1)^{popcount(b ∧ z)}·(−1)^{popcount(r ∧ z)}`,
//! so a string's parity-signed sum over one block is entry `z mod 2^w` of
//! the block's transform `p̂[k] = Σ_r (−1)^{popcount(r ∧ k)}·p_{b+r}`, times
//! the constant sign its high bits give it. One in-place transform per
//! block (`w·2^{w−1}` butterflies) serves every string, and each string
//! then costs one read per block: `O(2^n·w/2 + D·2^{n−w})` in place of the
//! `O(D·2^n)` of one parity pass per string. The block exponent `w` is
//! `⌈log₂ D⌉ + 2`, clamped to `[3, log₂ EXP_CHUNK]` and to the register
//! (see `diagonal_block_exponent`), so blocks never straddle a chunk.
//! [`GroupedPauliSum::apply`] runs the transform the other way: each
//! string's coefficient, signed by the block's high bits, lands on entry
//! `z mod 2^w` of a block vector whose transform is the sum's diagonal on
//! that block, and the block writes `diagonal·ψ` before the flip groups add
//! their part.
//!
//! Both transforms are deterministic functions of the block: the butterfly
//! order is fixed, a chunk adds its blocks' reads in index order, and the
//! chunk partials combine in chunk order as above, so the determinism
//! contract holds for the diagonal batch too. Its results may differ from
//! a per-string parity sweep in the last bits, because the additions are
//! grouped differently.
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
use ghs_math::Complex64;
use ghs_operators::{PauliOp, PauliString, PauliSum};
use rayon::prelude::*;
use std::ops::{Add, Sub};
use std::sync::OnceLock;

/// Amplitudes (or amplitude pairs) per deterministic partial-sum chunk.
///
/// Partial sums are always accumulated per fixed-size chunk and combined in
/// chunk order, whether or not the chunks ran in parallel — that is what
/// makes the result bit-identical across thread counts. Small enough that a
/// register at the default parallel threshold still splits into several
/// chunks.
const EXP_CHUNK: usize = 1 << 10;

/// The diagonal sweep's block exponent `w` for `num_diagonal` strings on
/// `num_qubits` qubits: `⌈log₂ D⌉ + 2`, clamped to `[3, log₂ EXP_CHUNK]`
/// and to the register. A string's read per block (a parity, a gather and
/// a signed add) costs several butterflies, so blocks of about `4·D`
/// entries balance the transform against the reads; below 8 entries the
/// per-block loop costs more than the transform saves. On the
/// `diagonal_readout` bench of `ghs_bench` this rule read up to twice as
/// fast as `⌈log₂ D⌉` (with a floor of 2) for `D ≤ 8`, and the same from
/// `D = 16` on.
fn diagonal_block_exponent(num_diagonal: usize, num_qubits: usize) -> u32 {
    (num_diagonal.next_power_of_two().trailing_zeros() + 2)
        .clamp(3, EXP_CHUNK.trailing_zeros())
        .min(num_qubits as u32)
}

/// Calls `$kernel::<B>(args…)` with the block length `B = 2^w` for a
/// block exponent `w ≤ log₂ EXP_CHUNK` known only at run time, so every
/// block kernel works on fixed-size stack arrays the compiler unrolls.
macro_rules! with_block {
    ($w:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $w {
            0 => $kernel::<1>($($arg),*),
            1 => $kernel::<2>($($arg),*),
            2 => $kernel::<4>($($arg),*),
            3 => $kernel::<8>($($arg),*),
            4 => $kernel::<16>($($arg),*),
            5 => $kernel::<32>($($arg),*),
            6 => $kernel::<64>($($arg),*),
            7 => $kernel::<128>($($arg),*),
            8 => $kernel::<256>($($arg),*),
            9 => $kernel::<512>($($arg),*),
            _ => $kernel::<1024>($($arg),*),
        }
    };
}
// `with_block!` covers block exponents up to log₂ EXP_CHUNK.
const _: () = assert!(EXP_CHUNK == 1 << 10);

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
/// Construction is `O(T·n)` (mask extraction plus grouping). Evaluation is
/// one shared sweep for the `D` diagonal strings plus one gather sweep per
/// distinct flip mask, with no allocation proportional to `2^n` and no
/// operator matrix anywhere. The diagonal sweep Walsh–Hadamard transforms
/// blocks of `2^w` probabilities, `w = ⌈log₂ D⌉ + 2` clamped to
/// `[3, 10]` and to the register, and costs `O(2^n·w/2 + D·2^{n−w})`
/// instead of the `O(D·2^n)` of one parity pass per string. A flip group
/// of `T_g` strings costs `O(T_g·2^{n−1})`.
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
    /// `w`: the diagonal sweep transforms blocks of `2^w` amplitudes.
    log_block: u32,
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
        let log_block = diagonal_block_exponent(diagonal.len(), sum.num_qubits());
        Self {
            num_qubits: sum.num_qubits(),
            term_masks,
            num_settings: OnceLock::new(),
            diagonal,
            log_block,
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
            let sums = chunked_partials(amps.len(), terms.len(), parallel, |chunk, out| {
                let base = chunk * EXP_CHUNK;
                let end = (base + EXP_CHUNK).min(amps.len());
                with_block!(
                    self.log_block,
                    diagonal_partials(&amps[base..end], base, terms, out)
                );
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
                        *o += f64::from_bits(v.to_bits() ^ parity_flip(j, term.z_mask));
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
    /// [`crate::gradient::adjoint_gradient`]). Each output chunk is
    /// assembled independently from the string masks —
    /// `P|j⟩ = i^{#Y}·(−1)^{popcount(j ∧ z)}·|j ⊕ x⟩` — the diagonal strings
    /// through one Walsh–Hadamard transform of their signed coefficients
    /// per block (see the module docs), then the flip groups amplitude by
    /// amplitude. The sweep therefore parallelizes over output chunks with
    /// bit-identical results across thread counts (no cross-chunk
    /// accumulation exists to reorder).
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
            if !diagonal.is_empty() {
                let a = &amps[base..base + chunk.len()];
                with_block!(self.log_block, diagonal_apply(a, base, diagonal, chunk));
            }
            if groups.is_empty() {
                return;
            }
            for (k, o) in chunk.iter_mut().enumerate() {
                let i = base + k;
                let mut acc = *o;
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

/// In-place unnormalized Walsh–Hadamard transform of a block:
/// `v[k] ← Σ_r (−1)^{popcount(r ∧ k)}·v[r]`, one butterfly stage per index
/// bit, lowest bit first. Stages go in pairs (radix 4), so a block of
/// `2^w` entries takes `⌈w/2⌉` passes.
#[inline(always)]
fn walsh_hadamard<T, const B: usize>(v: &mut [T; B])
where
    T: Copy + Add<Output = T> + Sub<Output = T>,
{
    let mut h = 1;
    while 4 * h <= B {
        for quad in v.chunks_exact_mut(4 * h) {
            let (a, rest) = quad.split_at_mut(h);
            let (b, rest) = rest.split_at_mut(h);
            let (c, d) = rest.split_at_mut(h);
            for j in 0..h {
                let (s0, d0) = (a[j] + b[j], a[j] - b[j]);
                let (s1, d1) = (c[j] + d[j], c[j] - d[j]);
                a[j] = s0 + s1;
                b[j] = d0 + d1;
                c[j] = s0 - s1;
                d[j] = d0 - d1;
            }
        }
        h *= 4;
    }
    if 2 * h == B {
        let (lo, hi) = v.split_at_mut(h);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let (a, b) = (*x, *y);
            *x = a + b;
            *y = a - b;
        }
    }
}

/// `(−1)^{popcount(index ∧ z_mask)}` as an IEEE sign-bit pattern.
#[inline(always)]
fn parity_flip(index: usize, z_mask: usize) -> u64 {
    (((index & z_mask).count_ones() & 1) as u64) << 63
}

/// Adds the parity-signed probability sums of every diagonal term over the
/// chunk `amps` (starting at index `base`) to `out`. Block by block, the
/// `B` probabilities are Walsh–Hadamard transformed in place; entry
/// `z & (B − 1)` is then the term's sum over the block's low index bits,
/// and the block's high bits contribute the constant sign
/// `(−1)^{popcount(block_base ∧ z)}`. Blocks are added in index order.
fn diagonal_partials<const B: usize>(
    amps: &[Complex64],
    base: usize,
    terms: &[DiagonalTerm],
    out: &mut [f64],
) {
    for (k, block) in amps.chunks_exact(B).enumerate() {
        let block: &[Complex64; B] = block.try_into().expect("chunks_exact yields B entries");
        let mut p: [f64; B] = std::array::from_fn(|r| block[r].norm_sqr());
        walsh_hadamard(&mut p);
        let block_base = base + k * B;
        for (t, o) in terms.iter().zip(out.iter_mut()) {
            let v = p[t.z_mask & (B - 1)];
            *o += f64::from_bits(v.to_bits() ^ parity_flip(block_base, t.z_mask));
        }
    }
}

/// Writes `d·ψ` for the diagonal part `d` of the sum over the chunk `amps`
/// (starting at index `base`) into `out`. Per block, each term's
/// coefficient, signed by the block's high bits, lands on entry
/// `z & (B − 1)`; the Walsh–Hadamard transform of that vector is `d` on
/// the block.
fn diagonal_apply<const B: usize>(
    amps: &[Complex64],
    base: usize,
    terms: &[DiagonalTerm],
    out: &mut [Complex64],
) {
    for (k, (a, o)) in amps
        .chunks_exact(B)
        .zip(out.chunks_exact_mut(B))
        .enumerate()
    {
        let block_base = base + k * B;
        let mut d = [Complex64::ZERO; B];
        for t in terms {
            d[t.z_mask & (B - 1)] += if parity_flip(block_base, t.z_mask) != 0 {
                -t.coeff
            } else {
                t.coeff
            };
        }
        walsh_hadamard(&mut d);
        for ((o, a), d) in o.iter_mut().zip(a).zip(&d) {
            *o = *d * *a;
        }
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
    use crate::testkit::{random_pauli_sum, random_state, PauliSumKind};
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

    /// `diagonal` random Z-strings plus `flips` random mixed strings on `n`
    /// qubits.
    fn diagonal_plus_mixed(n: usize, diagonal: usize, flips: usize, seed: u64) -> PauliSum {
        let mut terms = random_pauli_sum(n, diagonal, PauliSumKind::Diagonal, seed)
            .terms()
            .to_vec();
        terms.extend_from_slice(random_pauli_sum(n, flips, PauliSumKind::Mixed, !seed).terms());
        PauliSum::from_terms(n, terms)
    }

    #[test]
    fn every_block_exponent_matches_the_oracles_across_chunks() {
        // 11–14 qubits are 2–16 EXP_CHUNK chunks, so the block signs take
        // index bits above the chunk as well as inside it.
        for w in 3u32..=10 {
            // A diagonal count in the middle of the range that selects w.
            let diagonal = if w == 3 { 2 } else { 3 << (w - 4) };
            let n = 14 - (w as usize - 3) % 4;
            for flips in [0, 6] {
                let seed = u64::from(w) * 31 + flips as u64;
                let sum = diagonal_plus_mixed(n, diagonal, flips, seed);
                let grouped = GroupedPauliSum::new(&sum);
                assert_eq!(grouped.log_block, w, "n={n}, {diagonal} Z-strings");
                let state = random_state(n, seed ^ 0xa11);
                let amps = state.amplitudes();
                let sparse = sum.sparse_matrix();
                let oracle = state.expectation_sparse(&sparse);
                let serial = grouped.expectation_with_threshold(amps, usize::MAX);
                assert!(
                    (serial - oracle).abs() < 1e-12,
                    "w={w}: {serial} vs {oracle}"
                );
                let parallel = grouped.expectation_with_threshold(amps, 0);
                assert_eq!(serial.re.to_bits(), parallel.re.to_bits(), "w={w}");
                assert_eq!(serial.im.to_bits(), parallel.im.to_bits(), "w={w}");
                let applied = grouped.apply_with_threshold(amps, usize::MAX);
                for (f, o) in applied.iter().zip(sparse.matvec(amps)) {
                    assert!((*f - o).abs() < 1e-12, "w={w}: {f} vs {o}");
                }
                let applied_parallel = grouped.apply_with_threshold(amps, 0);
                for (s, p) in applied.iter().zip(&applied_parallel) {
                    assert_eq!(s.re.to_bits(), p.re.to_bits(), "w={w}");
                    assert_eq!(s.im.to_bits(), p.im.to_bits(), "w={w}");
                }
            }
        }
    }

    #[test]
    fn block_exponent_follows_the_term_count_and_the_register() {
        let w = |d, n| diagonal_block_exponent(d, n);
        assert_eq!([w(0, 16), w(1, 16), w(2, 16), w(3, 16)], [3, 3, 3, 4]);
        assert_eq!(
            [w(116, 16), w(128, 16), w(129, 16), w(5000, 16)],
            [9, 9, 10, 10]
        );
        // Blocks never outgrow the register.
        assert_eq!([w(116, 1), w(116, 2), w(1, 2), w(116, 5)], [1, 2, 2, 5]);
    }

    #[test]
    #[should_panic(expected = "register")]
    fn register_mismatch_panics() {
        let sum = sum_of(2, &[(1.0, "ZZ")]);
        let state = StateVector::zero_state(3);
        let _ = GroupedPauliSum::new(&sum).expectation(state.amplitudes());
    }
}
