//! Shared fused-op kernels: base-offset lowering, SIMD inner loops, and the
//! index-space parallel split.
//!
//! Both dense engines execute fused ops through the [`Prepared`] lowering in
//! this module:
//!
//! * the **flat engine** ([`crate::StateVector::apply_fused`]) replays runs
//!   of small-span ops over one cache-sized amplitude tile at a time via
//!   [`Prepared::apply_local`], and sweeps the whole array via
//!   [`Prepared::apply_sweep`] when an op's span exceeds the tile;
//! * the **sharded engine** ([`crate::ShardedStateVector`]) replays runs of
//!   shard-local ops per shard through the *same* [`Prepared::apply_local`],
//!   and crosses shard boundaries via [`Prepared::apply_cross`].
//!
//! Because the per-amplitude arithmetic of every path is identical — one
//! shared `apply_local` body, and one index-space split for the sweep and
//! cross paths that mirrors it operation for operation — the two engines
//! produce bit-identical states for any tile size, shard count and thread
//! count.
//!
//! **Address order.** Wide diagonal and permutation tables are walked in
//! address order, never at the power-of-two strides of one group at a time,
//! which alias in the caches (cache-blocked fused kernels, Häner & Steiger,
//! SC'17, arXiv:1704.01127):
//!
//! * a diagonal's support bits above a chunk are read off the chunk's base,
//!   as control bits are, so every diagonal has span 1 and joins tile and
//!   shard runs. Inside the chunk, the bits below the lowest support bit
//!   form strips of consecutive amplitudes that share one table entry; when
//!   the lowest bits are themselves support bits, each strip multiplies by
//!   a contiguous slice of the table, which is re-indexed by ascending bit
//!   position once at lowering. Every amplitude is multiplied, unit
//!   entries included, so no result depends on where the support sits
//!   (`(−0)·1` is `+0`, so skipping would);
//! * a permutation swaps whole strips (the run below its lowest support
//!   bit) and then scales the strips of its image slots, so a 10-qubit
//!   ladder on the top bits moves `2^k`-amplitude blocks with `memcpy`-like
//!   swaps. Permutations whose strips are shorter than four amplitudes
//!   lane four groups at once instead;
//! * a keyed phase (a pass-through gate) reads its key bits above a chunk
//!   off the base and scales only the strips its key selects.
//!
//! **Lanes.** Two lane layouts from `ghs_math::simd`, never laid inside a
//! dot product:
//!
//! * loops that walk **along** contiguous runs — the uncontrolled
//!   single-qubit pair sweep at every stride, diagonal strips and table
//!   slices, keyed-phase and permutation-phase strips — take two
//!   amplitudes at a time as they lie in memory ([`C64x2`]). Stride 1
//!   transposes two adjacent pairs so one register holds both low
//!   amplitudes;
//! * dense blocks, sparse components and the permutation lane walk lay
//!   four lanes **across** groups in split real/imaginary layout
//!   ([`C64x4`]), since their operands are a gather anyway.
//!
//! [`Prepared::apply_local`] is generic over the [`C64x2`] body, so its
//! AVX2 re-dispatch runs the intrinsic body with every lane op inlined.
//! Both layouts reproduce the scalar complex arithmetic bit for bit for
//! finite inputs (see `ghs_math::simd`), so the SIMD kernels are
//! bit-identical to the scalar remainder paths that double as their
//! oracle.
//!
//! The index-space split ([`Prepared::apply_sweep`] with worker threads,
//! and [`Prepared::apply_cross`]) parallelizes over *group index space*
//! (ranges of group ranks, expanded to scatter offsets by bit deposit)
//! instead of splitting the amplitude slice. This is what lets an op whose
//! support includes qubit 0 — the most significant bit, whose span is the
//! whole array — still fan out across worker threads: distinct groups
//! address disjoint amplitude sets, so the range workers write through
//! shared raw pointers without overlap.

use crate::state::{control_mask, parallel_threshold};
use ghs_circuit::{FusedKernel, FusedOp, Gate};
#[cfg(target_arch = "x86_64")]
use ghs_math::simd::Avx2C64x2;
use ghs_math::simd::{C64x2, PortableC64x2};
use ghs_math::{C64x4, CMatrix, Complex64};
use rayon::prelude::*;

/// Stack gather-buffer bound, shared by every dense/sparse kernel.
pub(crate) const MAX_BLOCK_DIM: usize = 1 << ghs_circuit::MAX_DENSE_QUBITS;

/// Calls `f(s)` for every `s` whose set bits lie inside `mask` (including
/// `0`), in increasing order — the standard subset-iteration identity
/// `s' = (s - mask) & mask`.
///
/// Always inlined, so that `f` inlines into `apply_local`'s AVX2 copy: a
/// closure compiled on its own has no AVX2 and would call every intrinsic
/// out of line (a keyed phase on the top bits ran about 40× slower that way).
#[inline(always)]
pub(crate) fn for_each_subset<F: FnMut(usize)>(mask: usize, mut f: F) {
    let mut s = 0usize;
    loop {
        f(s);
        s = s.wrapping_sub(mask) & mask;
        if s == 0 {
            break;
        }
    }
}

/// Calls `f4` on four consecutive subsets of `mask` at a time, in the same
/// increasing order as [`for_each_subset`]. The subset count is a power of
/// two, so there is no remainder; callers must route masks with fewer than
/// two set bits to the scalar path instead.
#[inline]
fn for_each_subset_x4<F4: FnMut([usize; 4])>(mask: usize, mut f4: F4) {
    debug_assert!(mask.count_ones() >= 2);
    let mut s = 0usize;
    loop {
        let s0 = s;
        let s1 = s0.wrapping_sub(mask) & mask;
        let s2 = s1.wrapping_sub(mask) & mask;
        let s3 = s2.wrapping_sub(mask) & mask;
        f4([s0, s1, s2, s3]);
        s = s3.wrapping_sub(mask) & mask;
        if s == 0 {
            break;
        }
    }
}

/// Gathers the four lanes `p[offs[k] + o]` into split layout.
///
/// Safety: all four `offs[k] + o` must be in bounds of `p`'s allocation.
#[inline(always)]
unsafe fn gather_quad(p: *const Complex64, offs: &[usize; 4], o: usize) -> C64x4 {
    C64x4::gather(
        *p.add(offs[0] + o),
        *p.add(offs[1] + o),
        *p.add(offs[2] + o),
        *p.add(offs[3] + o),
    )
}

/// Scatters the four lanes of `v` back to `p[offs[k] + o]`.
///
/// Safety: as in [`gather_quad`]; the four targets must also be distinct.
#[inline(always)]
unsafe fn scatter_quad(p: *mut Complex64, offs: &[usize; 4], o: usize, v: C64x4) {
    for (k, &off) in offs.iter().enumerate() {
        *p.add(off + o) = v.lane(k);
    }
}

/// Expands a group *rank* (0-based position in subset order) to the subset
/// of `mask` with that rank, by depositing the rank's bits into the mask's
/// set positions from least significant upward.
#[inline]
fn expand_rank(rank: usize, mask: usize) -> usize {
    let mut out = 0usize;
    let mut rest = mask;
    let mut j = 0usize;
    while rest != 0 {
        let p = rest.trailing_zeros() as usize;
        if (rank >> j) & 1 == 1 {
            out |= 1 << p;
        }
        rest &= rest - 1;
        j += 1;
    }
    out
}

/// Runs `per_group` over every subset of `gmask`, splitting the group-rank
/// space into one contiguous range per worker thread when `parallel` holds.
/// `per_group` must write only amplitudes of its own group (`i & gmask ==
/// group`), which is exactly what every kernel below does.
fn sweep_groups<F: Fn(usize) + Sync>(gmask: usize, parallel: bool, per_group: F) {
    for_each_range(1usize << gmask.count_ones(), parallel, |lo, hi| {
        let mut off = expand_rank(lo, gmask);
        for _ in lo..hi {
            per_group(off);
            off = off.wrapping_sub(gmask) & gmask;
        }
    });
}

/// Calls `f(lo, hi)` on `0..count` whole, or, when `parallel` holds, on one
/// contiguous range per worker thread.
fn for_each_range<F: Fn(usize, usize) + Sync>(count: usize, parallel: bool, f: F) {
    let workers = if parallel {
        rayon::current_num_threads().min(count)
    } else {
        1
    };
    if workers <= 1 {
        f(0, count);
        return;
    }
    let mut ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (count * w / workers, count * (w + 1) / workers))
        .collect();
    ranges.par_iter_mut().for_each(|&mut (lo, hi)| f(lo, hi));
}

/// A sparse component resolved to scatter offsets, with the pre-broadcast
/// matrix for the laned path alongside the scalar one.
pub(crate) struct Comp {
    offs: Vec<usize>,
    flat: Vec<Complex64>,
    flat_x4: Vec<C64x4>,
}

/// A fused op lowered to base-offset form: every variant can be applied to
/// a chunk `[base, base + len)` of the physical amplitude array given the
/// chunk's absolute base (which resolves control masks and shard-index
/// bits), element-wise across shards, or over the whole flat array.
pub(crate) enum Kind {
    /// Phase table, walked in address order. Its support bits above a
    /// chunk are read off the chunk's base, so the op has span 1 and joins
    /// every tile and shard run.
    Diagonal {
        /// The table, indexed by the support bits in ascending position
        /// order: bit `j` of an index is the amplitude's bit `pos[j]`.
        table: Vec<Complex64>,
        /// Bit position of each support qubit, ascending.
        pos: Vec<usize>,
    },
    /// Phased shuffle: the swaps move every amplitude to its image (a
    /// length-`m` cycle is `m − 1` swaps against its first slot), then each
    /// image slot with a non-unit phase is scaled. Both lists hold scatter
    /// offsets.
    Permutation {
        pairs: Vec<(usize, usize)>,
        scale: Vec<(usize, Complex64)>,
    },
    /// Gather → `2^k × 2^k` multiply → scatter with a control mask.
    /// `flat_x4` is the matrix with every entry pre-broadcast to four
    /// lanes, so the laned multiply runs without per-iteration splats.
    Dense {
        scatter: Vec<usize>,
        flat: Vec<Complex64>,
        flat_x4: Vec<C64x4>,
        kdim: usize,
        cmask: usize,
        cval: usize,
    },
    /// Block-sparse components.
    Sparse { comps: Vec<Comp> },
    /// (Multi-)controlled single-qubit unitary: pair sweep at `stride`.
    CtrlSingle {
        stride: usize,
        cmask: usize,
        cval: usize,
        u: [Complex64; 4],
    },
    /// Keyed phase: one multiply per amplitude whose key bits match,
    /// walked in strips.
    Keyed {
        kmask: usize,
        kval: usize,
        phase: Complex64,
    },
    /// SWAP of two bit positions.
    Swap { pa: usize, pb: usize },
    /// Global phase over every amplitude.
    Phase { phase: Complex64 },
}

/// A prepared op: its kind plus the smallest aligned power-of-two window
/// (`span`) containing its support, and the support mask (`smask`) group
/// sweeps exclude. Control/key masks are *not* part of the span, and
/// neither is a diagonal's support: they are resolved from the absolute
/// base, so controls and phase-table bits on high (shard-index /
/// out-of-tile) positions never force a full-array pass.
pub(crate) struct Prepared {
    pub(crate) span: usize,
    smask: usize,
    kind: Kind,
}

/// Scatter table of a support: local index `l` lives at
/// `group_base + scatter[l]`, with the op's first qubit as the most
/// significant local bit. Works for unsorted (relabeled) supports: each
/// listed qubit keeps its position in the local index regardless of order.
pub(crate) fn scatter_table(num_qubits: usize, qubits: &[usize]) -> (Vec<usize>, usize, usize) {
    let k = qubits.len();
    let pos: Vec<usize> = qubits.iter().map(|q| num_qubits - 1 - q).collect();
    let kdim = 1usize << k;
    let scatter: Vec<usize> = (0..kdim)
        .map(|l| {
            let mut off = 0usize;
            for (j, p) in pos.iter().enumerate() {
                if (l >> (k - 1 - j)) & 1 == 1 {
                    off |= 1 << p;
                }
            }
            off
        })
        .collect();
    let smask: usize = pos.iter().map(|p| 1usize << p).sum();
    let span = match pos.iter().max() {
        Some(&m) => 1usize << (m + 1),
        None => 1,
    };
    (scatter, smask, span)
}

impl Prepared {
    pub(crate) fn build(num_qubits: usize, op: &FusedOp) -> Self {
        // Diagonals need only the support mask, not the scatter table.
        let lower = || scatter_table(num_qubits, &op.qubits);
        match &op.kernel {
            FusedKernel::Diagonal(table) => Prepared::diagonal(num_qubits, &op.qubits, table),
            FusedKernel::Permutation { targets, phases } => {
                let (scatter, smask, span) = lower();
                // A length-m cycle is m−1 swaps against its first slot:
                // swap(o0,o1), swap(o0,o2), …, swap(o0,o_{m−1}) leaves
                // o0 ← o_{m−1} and o_i ← o_{i−1}, the cycle's moves. Local
                // state `l`'s phase then scales its image slot.
                let mut pairs = Vec::new();
                let mut visited = vec![false; targets.len()];
                for start in 0..targets.len() {
                    let mut l = targets[start] as usize;
                    visited[start] = true;
                    while !visited[l] {
                        visited[l] = true;
                        pairs.push((scatter[start], scatter[l]));
                        l = targets[l] as usize;
                    }
                }
                let mut scale: Vec<(usize, Complex64)> = phases
                    .iter()
                    .zip(targets)
                    .filter(|(p, _)| **p != Complex64::ONE)
                    .map(|(p, &t)| (scatter[t as usize], *p))
                    .collect();
                scale.sort_unstable_by_key(|&(o, _)| o);
                Prepared {
                    span,
                    smask,
                    kind: Kind::Permutation { pairs, scale },
                }
            }
            FusedKernel::Dense { controls, matrix } => {
                let (cmask, cval) = control_mask(controls, num_qubits);
                if op.qubits.len() == 1 {
                    Prepared::ctrl_single(num_qubits, op.qubits[0], cmask, cval, matrix)
                } else {
                    let (scatter, smask, span) = lower();
                    let flat: Vec<Complex64> = matrix.data().to_vec();
                    let flat_x4 = flat.iter().map(|c| C64x4::splat(*c)).collect();
                    Prepared {
                        span,
                        smask,
                        kind: Kind::Dense {
                            flat,
                            flat_x4,
                            kdim: scatter.len(),
                            scatter,
                            cmask,
                            cval,
                        },
                    }
                }
            }
            FusedKernel::Sparse { components } => {
                let (scatter, smask, span) = lower();
                let comps: Vec<Comp> = components
                    .iter()
                    .map(|c| {
                        let flat: Vec<Complex64> = c.matrix.data().to_vec();
                        let flat_x4 = flat.iter().map(|m| C64x4::splat(*m)).collect();
                        Comp {
                            offs: c.indices.iter().map(|&i| scatter[i as usize]).collect(),
                            flat,
                            flat_x4,
                        }
                    })
                    .collect();
                Prepared {
                    span,
                    smask,
                    kind: Kind::Sparse { comps },
                }
            }
            FusedKernel::Gate(g) => Prepared::from_gate(num_qubits, g),
        }
    }

    /// A phase table on `qubits` (the op's first qubit is the most
    /// significant local bit). The table is re-indexed by ascending bit
    /// position, so a strip of low support bits reads a contiguous slice
    /// of it whatever the qubit order (relabeled supports are unsorted);
    /// each amplitude still meets the same entry. Ascending qubits, the
    /// order of every emitted op, already index it that way.
    fn diagonal(num_qubits: usize, qubits: &[usize], table: &[Complex64]) -> Self {
        let k = qubits.len();
        // (position, local-index bit) of each support qubit, ascending by
        // position.
        let mut bits: Vec<(usize, usize)> = qubits
            .iter()
            .enumerate()
            .map(|(j, q)| (num_qubits - 1 - q, k - 1 - j))
            .collect();
        bits.sort_unstable();
        let table = if bits.iter().enumerate().all(|(j, &(_, b))| b == j) {
            table.to_vec()
        } else {
            (0..table.len())
                .map(|m| {
                    let l = bits
                        .iter()
                        .enumerate()
                        .fold(0usize, |l, (j, &(_, b))| l | (m >> j & 1) << b);
                    table[l]
                })
                .collect()
        };
        Prepared {
            span: 1,
            smask: bits.iter().map(|&(p, _)| 1usize << p).sum(),
            kind: Kind::Diagonal {
                table,
                pos: bits.iter().map(|&(p, _)| p).collect(),
            },
        }
    }

    /// A controlled single-qubit unitary at the target's bit position. The
    /// `u00·a0 + u01·a1` pair arithmetic mirrors
    /// `StateVector::apply_controlled_single_qubit` exactly.
    fn ctrl_single(
        num_qubits: usize,
        target: usize,
        cmask: usize,
        cval: usize,
        u: &CMatrix,
    ) -> Self {
        let pos = num_qubits - 1 - target;
        let stride = 1usize << pos;
        Prepared {
            span: stride << 1,
            smask: stride,
            kind: Kind::CtrlSingle {
                stride,
                cmask,
                cval,
                u: [u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]],
            },
        }
    }

    /// Pass-through gates (wider than the fusion windows) lowered to the
    /// same primitive sweeps the flat `StateVector::apply_gate` uses.
    fn from_gate(num_qubits: usize, gate: &Gate) -> Self {
        match gate {
            Gate::GlobalPhase(theta) => Prepared {
                span: 1,
                smask: 0,
                kind: Kind::Phase {
                    phase: Complex64::cis(*theta),
                },
            },
            Gate::KeyedPhase { key, theta } => {
                let (kmask, kval) = control_mask(key, num_qubits);
                Prepared {
                    span: 1,
                    smask: 0,
                    kind: Kind::Keyed {
                        kmask,
                        kval,
                        phase: Complex64::cis(*theta),
                    },
                }
            }
            Gate::Cz { a, b } => {
                let (kmask, kval) = control_mask(
                    &[
                        ghs_circuit::ControlBit::one(*a),
                        ghs_circuit::ControlBit::one(*b),
                    ],
                    num_qubits,
                );
                Prepared {
                    span: 1,
                    smask: 0,
                    kind: Kind::Keyed {
                        kmask,
                        kval,
                        phase: Complex64::cis(std::f64::consts::PI),
                    },
                }
            }
            Gate::Swap { a, b } => {
                let pa = num_qubits - 1 - *a;
                let pb = num_qubits - 1 - *b;
                Prepared {
                    span: 1usize << (pa.max(pb) + 1),
                    smask: (1 << pa) | (1 << pb),
                    kind: Kind::Swap { pa, pb },
                }
            }
            Gate::Cx { control, target } => {
                let u = gate.base_matrix().expect("CX base matrix");
                let (cmask, cval) =
                    control_mask(&[ghs_circuit::ControlBit::one(*control)], num_qubits);
                Prepared::ctrl_single(num_qubits, *target, cmask, cval, &u)
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
                let (cmask, cval) = control_mask(controls, num_qubits);
                Prepared::ctrl_single(num_qubits, *target, cmask, cval, &u)
            }
            other => {
                let q = other.qubits()[0];
                let u = other.base_matrix().expect("single-qubit matrix");
                Prepared::ctrl_single(num_qubits, q, 0, 0, &u)
            }
        }
    }

    /// Applies the op to one aligned chunk `[base, base + chunk.len())` of
    /// the physical array. Requires `span <= chunk.len()`. This is the one
    /// shared hot path of the flat (tiled) and sharded engines; the SIMD
    /// lanes here replay the scalar arithmetic (see module docs), so
    /// outputs are bit-identical to the scalar remainder loops.
    ///
    /// On x86-64 with AVX2 available at runtime the body is re-dispatched
    /// into an `#[target_feature(enable = "avx2")]` copy instantiated with
    /// the intrinsic [`C64x2`] body, every lane op inlined, and the split
    /// [`C64x4`] loops compile to 256-bit vector ops. No FMA is enabled, so
    /// the AVX2 copy computes bit-identical results to the portable one.
    pub(crate) fn apply_local(&self, base: usize, chunk: &mut [Complex64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // Safety: the required CPU feature was just checked.
            unsafe { self.apply_local_avx2(base, chunk) };
            return;
        }
        // Safety: the portable lanes need no CPU feature.
        unsafe { self.apply_local_impl::<PortableC64x2>(base, chunk) };
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_local_avx2(&self, base: usize, chunk: &mut [Complex64]) {
        self.apply_local_impl::<Avx2C64x2>(base, chunk);
    }

    /// Safety: the CPU must support `L`'s target features.
    #[inline(always)]
    unsafe fn apply_local_impl<L: C64x2>(&self, base: usize, chunk: &mut [Complex64]) {
        let gmask = (chunk.len() - 1) & !self.smask;
        match &self.kind {
            Kind::Diagonal { table, pos } => {
                // Address-order walk: every amplitude is multiplied by its
                // entry, unit entries included, so the result does not
                // depend on where the support sits. The index bits above
                // the chunk come from its base.
                let lmask = chunk.len() - 1;
                let c = lmask.count_ones() as usize;
                let mut idx = 0usize;
                for (j, &p) in pos.iter().enumerate().rev() {
                    if p < c {
                        break;
                    }
                    idx |= (base >> p & 1) << j;
                }
                let lo = self.smask & lmask;
                if lo == 0 {
                    scale_run::<L>(chunk, table[idx]);
                    return;
                }
                // Strips are the chunk's lowest `run` bits: the run of
                // positions below the lowest support bit (one entry per
                // strip), or the run of support bits from position 0 (a
                // table slice per strip). `flips[i]` holds the index bits
                // that toggle when the strip counter carries through its
                // lowest `i + 1` bits.
                let r = lo.trailing_zeros() as usize;
                let run = if r == 0 {
                    lo.trailing_ones() as usize
                } else {
                    r
                };
                let mut flips = [0usize; usize::BITS as usize];
                let mut acc = 0usize;
                let mut next = pos.partition_point(|&p| p < run);
                for (i, f) in flips[..c - run].iter_mut().enumerate() {
                    if next < pos.len() && pos[next] == run + i {
                        acc ^= 1 << next;
                        next += 1;
                    }
                    *f = acc;
                }
                // The last strip's carry reads `flips[c - run]`, which is 0.
                let strip = 1usize << run;
                let strips = chunk.chunks_exact_mut(strip).enumerate();
                if r > 0 {
                    for (s, seg) in strips {
                        scale_run::<L>(seg, table[idx]);
                        idx ^= flips[s.trailing_ones() as usize];
                    }
                } else {
                    for (s, seg) in strips {
                        mul_runs::<L>(seg, &table[idx..idx + strip]);
                        idx ^= flips[s.trailing_ones() as usize];
                    }
                }
            }
            Kind::Permutation { pairs, scale } => {
                if pairs.is_empty() && scale.is_empty() {
                    return;
                }
                let strip = 1usize << self.smask.trailing_zeros();
                let p = chunk.as_mut_ptr();
                if strip < 4 && gmask.count_ones() >= 2 {
                    // Strips shorter than four amplitudes: lane four
                    // groups at once instead. Safety: every index is
                    // `group | scatter` with both parts below
                    // `span ≤ chunk.len()`, and groups are disjoint.
                    for_each_subset_x4(gmask, |offs| unsafe {
                        for &(a, b) in pairs {
                            for o in offs {
                                std::ptr::swap(p.add(o + a), p.add(o + b));
                            }
                        }
                        for &(o, e) in scale {
                            let out = gather_quad(p, &offs, o) * C64x4::splat(e);
                            scatter_quad(p, &offs, o, out);
                        }
                    });
                    return;
                }
                // Safety: strips are aligned runs of `strip` amplitudes
                // below `span ≤ chunk.len()`, disjoint across slots.
                for_each_subset(gmask & !(strip - 1), |g| unsafe {
                    permute_strips::<L>(|o| p.add(g + o), strip, pairs, scale);
                });
            }
            Kind::Dense {
                scatter,
                flat,
                flat_x4,
                kdim,
                cmask,
                cval,
            } => {
                if *cmask == 0 && *cval == 0 && gmask.count_ones() >= 2 {
                    // Uncontrolled dense block: four groups per iteration in
                    // split layout — gather 4 local vectors, one laned
                    // matrix multiply against the pre-broadcast matrix,
                    // scatter 4 results. Safety of the raw accesses: every
                    // index is `group | scatter` with both parts below
                    // `span ≤ chunk.len()`.
                    let mut buf = [C64x4::zero(); MAX_BLOCK_DIM];
                    let p = chunk.as_mut_ptr();
                    for_each_subset_x4(gmask, |offs| unsafe {
                        for (b, s) in buf[..*kdim].iter_mut().zip(scatter) {
                            *b = gather_quad(p, &offs, *s);
                        }
                        for (row, mrow) in flat_x4.chunks_exact(*kdim).enumerate() {
                            let mut acc = C64x4::zero();
                            for (mc, bc) in mrow.iter().zip(&buf[..*kdim]) {
                                acc += *mc * *bc;
                            }
                            scatter_quad(p, &offs, scatter[row], acc);
                        }
                    });
                } else {
                    for_each_subset(gmask, |off| {
                        if (base + off) & cmask != *cval {
                            return;
                        }
                        dense_group_scalar(chunk, off, scatter, flat, *kdim);
                    });
                }
            }
            Kind::Sparse { comps } => {
                if gmask.count_ones() >= 2 {
                    // Lane across four groups per component. Phases and 2×2
                    // blocks mirror the scalar update shape exactly; wider
                    // blocks gather into a laned buffer and multiply against
                    // the pre-broadcast component matrix. Safety: as in the
                    // dense arm, every index is below `span <= chunk.len()`.
                    let mut buf = [C64x4::zero(); MAX_BLOCK_DIM];
                    let p = chunk.as_mut_ptr();
                    for_each_subset_x4(gmask, |offs| unsafe {
                        for comp in comps {
                            match comp.offs.len() {
                                1 => {
                                    let o = comp.offs[0];
                                    let out = gather_quad(p, &offs, o) * comp.flat_x4[0];
                                    scatter_quad(p, &offs, o, out);
                                }
                                2 => {
                                    let (o0, o1) = (comp.offs[0], comp.offs[1]);
                                    let a0 = gather_quad(p, &offs, o0);
                                    let a1 = gather_quad(p, &offs, o1);
                                    let n0 = comp.flat_x4[0] * a0 + comp.flat_x4[1] * a1;
                                    let n1 = comp.flat_x4[2] * a0 + comp.flat_x4[3] * a1;
                                    scatter_quad(p, &offs, o0, n0);
                                    scatter_quad(p, &offs, o1, n1);
                                }
                                4 => {
                                    // Fully unrolled 4×4: the four gathered
                                    // vectors stay in registers instead of
                                    // round-tripping through the stack
                                    // buffer. Same zero-started column-order
                                    // accumulation as the scalar path.
                                    let (a0, a1, a2, a3) = (
                                        gather_quad(p, &offs, comp.offs[0]),
                                        gather_quad(p, &offs, comp.offs[1]),
                                        gather_quad(p, &offs, comp.offs[2]),
                                        gather_quad(p, &offs, comp.offs[3]),
                                    );
                                    let m = &comp.flat_x4;
                                    for r in 0..4 {
                                        let mut acc = C64x4::zero();
                                        acc += m[4 * r] * a0;
                                        acc += m[4 * r + 1] * a1;
                                        acc += m[4 * r + 2] * a2;
                                        acc += m[4 * r + 3] * a3;
                                        scatter_quad(p, &offs, comp.offs[r], acc);
                                    }
                                }
                                md => {
                                    for (b, o) in buf[..md].iter_mut().zip(&comp.offs) {
                                        *b = gather_quad(p, &offs, *o);
                                    }
                                    for (row, mrow) in comp.flat_x4.chunks_exact(md).enumerate() {
                                        let mut acc = C64x4::zero();
                                        for (mc, bc) in mrow.iter().zip(&buf[..md]) {
                                            acc += *mc * *bc;
                                        }
                                        scatter_quad(p, &offs, comp.offs[row], acc);
                                    }
                                }
                            }
                        }
                    });
                    return;
                }
                let mut buf = [Complex64::ZERO; MAX_BLOCK_DIM];
                for_each_subset(gmask, |off| {
                    sparse_group_scalar(chunk, off, comps, &mut buf);
                });
            }
            Kind::CtrlSingle {
                stride,
                cmask,
                cval,
                u,
            } => {
                if *cmask == 0 && *cval == 0 {
                    single_sweep::<L>(chunk, *stride, u);
                    return;
                }
                // Controlled, or never satisfied (`(0, 1)`): test each pair.
                let block = stride << 1;
                for (b, blk) in chunk.chunks_exact_mut(block).enumerate() {
                    let (lo, hi) = blk.split_at_mut(*stride);
                    controlled_pair_run(lo, hi, base + b * block, *cmask, *cval, u);
                }
            }
            Kind::Keyed { kmask, kval, phase } => {
                // Key bits above the chunk come from its base (an
                // unsatisfiable key has a value bit outside its mask).
                // Inside it, the matching amplitudes form strips (the run
                // below the lowest key bit), one per setting of the free
                // bits.
                let lmask = chunk.len() - 1;
                let hi = kmask & !lmask;
                if kval & !kmask != 0 || base & hi != kval & hi {
                    return;
                }
                let lo = kmask & lmask;
                let strip = 1usize << (lo | chunk.len()).trailing_zeros();
                let at = kval & lo;
                for_each_subset(lmask & !lo & !(strip - 1), |g| {
                    scale_run::<L>(&mut chunk[g | at..(g | at) + strip], *phase);
                });
            }
            Kind::Swap { pa, pb } => {
                for i in 0..chunk.len() {
                    let ba = (i >> pa) & 1;
                    let bb = (i >> pb) & 1;
                    if ba == 1 && bb == 0 {
                        let j = (i ^ (1 << pa)) | (1 << pb);
                        chunk.swap(i, j);
                    }
                }
            }
            Kind::Phase { phase } => scale_run::<L>(chunk, *phase),
        }
    }

    /// Applies the op to the whole flat amplitude array. Used by the flat
    /// engine when `span` exceeds its tile — including ops whose support
    /// reaches qubit 0 (the most significant bit), which span the entire
    /// array.
    ///
    /// With a single worker the whole array is one aligned chunk, so the
    /// sweep routes through [`Prepared::apply_local`] and its laned (AVX2
    /// when available) loops; the index-space split of
    /// [`Prepared::apply_spread`] only takes over when there is real
    /// parallelism to distribute. Both paths execute the same per-group
    /// arithmetic, so outputs are bit-identical.
    pub(crate) fn apply_sweep(&self, amps: &mut [Complex64], parallel: bool) {
        if !parallel || rayon::current_num_threads() <= 1 {
            self.apply_local(0, amps);
            return;
        }
        let dim = amps.len();
        self.apply_spread(&Amps::flat(amps), dim, true);
    }

    /// Applies the op across shard boundaries. Used by the sharded engine
    /// when `span` exceeds the shard length; the arithmetic per amplitude
    /// is identical to the local path (and to the flat engine), only the
    /// addressing differs. Dense/sparse kernels are the true *exchanges*:
    /// they gather a group from several shards of the family, multiply,
    /// and scatter back. Permutations move whole strips between shards.
    pub(crate) fn apply_cross(&self, shards: &mut [Vec<Complex64>], dim: usize, parallel: bool) {
        self.apply_spread(&Amps::shards(shards), dim, parallel);
    }

    /// The index-space split shared by [`Prepared::apply_sweep`] and
    /// [`Prepared::apply_cross`]. It parallelizes over group *index space*
    /// (contiguous ranges of group ranks) instead of slicing the array, so
    /// an op whose support includes the most significant bit still fans
    /// out across worker threads: distinct groups address disjoint
    /// amplitude sets. An op that fits one chunk of the split runs
    /// [`Prepared::apply_local`] chunk by chunk; a permutation moves whole
    /// strips, and a single-qubit op sweeps contiguous runs of pairs.
    fn apply_spread(&self, amps: &Amps, dim: usize, parallel: bool) {
        let workers = if parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        let mut chunk = amps.run();
        while chunk > 1 && dim / chunk < workers {
            chunk >>= 1;
        }
        if self.span <= chunk {
            // Safety: chunks are aligned runs inside one shard, disjoint
            // across groups.
            sweep_groups((dim - 1) & !(chunk - 1), parallel, |base| unsafe {
                self.apply_local(base, std::slice::from_raw_parts_mut(amps.at(base), chunk));
            });
            return;
        }
        let gmask = (dim - 1) & !self.smask;
        // Safety of every access below: group `off` only touches amplitudes
        // `off | s` with `s` inside the support, and groups are disjoint.
        match &self.kind {
            Kind::Diagonal { .. } | Kind::Keyed { .. } | Kind::Phase { .. } => {
                unreachable!("span-1 kinds apply chunk by chunk")
            }
            Kind::Permutation { pairs, scale } => {
                let strip = (1usize << self.smask.trailing_zeros()).min(amps.run());
                // Portable lanes, which need no CPU feature: the split runs
                // outside `apply_local`'s AVX2 copy.
                sweep_groups(gmask & !(strip - 1), parallel, |g| unsafe {
                    permute_strips::<PortableC64x2>(|o| amps.at(g + o), strip, pairs, scale);
                });
            }
            Kind::Dense {
                scatter,
                flat,
                kdim,
                cmask,
                cval,
                ..
            } => {
                sweep_groups(gmask, parallel, |off| {
                    if off & cmask != *cval {
                        return;
                    }
                    let mut buf = [Complex64::ZERO; MAX_BLOCK_DIM];
                    unsafe {
                        for (b, s) in buf[..*kdim].iter_mut().zip(scatter) {
                            *b = *amps.at(off + *s);
                        }
                        for (row, mrow) in flat.chunks_exact(*kdim).enumerate() {
                            let mut acc = Complex64::ZERO;
                            for (mc, bc) in mrow.iter().zip(&buf[..*kdim]) {
                                acc += *mc * *bc;
                            }
                            *amps.at(off + scatter[row]) = acc;
                        }
                    }
                });
            }
            Kind::Sparse { comps } => {
                sweep_groups(gmask, parallel, |off| {
                    let mut buf = [Complex64::ZERO; MAX_BLOCK_DIM];
                    unsafe {
                        for comp in comps {
                            match comp.offs.len() {
                                1 => *amps.at(off + comp.offs[0]) *= comp.flat[0],
                                2 => {
                                    let (p0, p1) =
                                        (amps.at(off + comp.offs[0]), amps.at(off + comp.offs[1]));
                                    let (a0, a1) = (*p0, *p1);
                                    *p0 = comp.flat[0] * a0 + comp.flat[1] * a1;
                                    *p1 = comp.flat[2] * a0 + comp.flat[3] * a1;
                                }
                                md => {
                                    for (b, o) in buf[..md].iter_mut().zip(&comp.offs) {
                                        *b = *amps.at(off + *o);
                                    }
                                    for (row, mrow) in comp.flat.chunks_exact(md).enumerate() {
                                        let mut acc = Complex64::ZERO;
                                        for (mc, bc) in mrow.iter().zip(&buf[..md]) {
                                            acc += *mc * *bc;
                                        }
                                        *amps.at(off + comp.offs[row]) = acc;
                                    }
                                }
                            }
                        }
                    }
                });
            }
            Kind::CtrlSingle {
                stride,
                cmask,
                cval,
                u,
            } => {
                // One contiguous range of pair ranks per worker, cut into
                // runs inside one block half and one shard: the runs of
                // `apply_local`'s sweep, the laned pair kernel included.
                let seg = (*stride).min(amps.run());
                for_each_range(dim / 2, parallel, |lo, hi| {
                    let mut r = lo;
                    while r < hi {
                        let end = hi.min((r / seg + 1) * seg);
                        let i = r / stride * (stride << 1) + r % stride;
                        // Safety: the run of ranks `r..end` maps to two
                        // runs inside one shard, disjoint across ranges.
                        unsafe {
                            let xs = std::slice::from_raw_parts_mut(amps.at(i), end - r);
                            let ys = std::slice::from_raw_parts_mut(amps.at(i + stride), end - r);
                            pair_run_dispatch(xs, ys, i, (*cmask, *cval), u);
                        }
                        r = end;
                    }
                });
            }
            Kind::Swap { pa, pb } => {
                let (ba, bb) = (1usize << pa, 1usize << pb);
                sweep_groups((dim - 1) & !(ba | bb), parallel, |off| unsafe {
                    std::ptr::swap(amps.at(off | ba), amps.at(off | bb));
                });
            }
        }
    }
}

/// Amplitude addressing of [`Prepared::apply_spread`]: runs of
/// `1 << bits` contiguous amplitudes, one per pointer — the whole flat
/// array, or one shard each.
struct Amps {
    ptrs: Vec<*mut Complex64>,
    bits: u32,
}

// Safety: every parallel caller partitions a group index space whose
// members address disjoint amplitudes, so no two workers touch one element.
unsafe impl Send for Amps {}
unsafe impl Sync for Amps {}

impl Amps {
    fn flat(amps: &mut [Complex64]) -> Self {
        Amps {
            ptrs: vec![amps.as_mut_ptr()],
            bits: amps.len().trailing_zeros(),
        }
    }

    fn shards(shards: &mut [Vec<Complex64>]) -> Self {
        Amps {
            bits: shards[0].len().trailing_zeros(),
            ptrs: shards.iter_mut().map(|s| s.as_mut_ptr()).collect(),
        }
    }

    /// Amplitudes per contiguous run.
    fn run(&self) -> usize {
        1 << self.bits
    }

    /// Address of amplitude `i`. Safety: `i` must be below the dimension.
    #[inline(always)]
    unsafe fn at(&self, i: usize) -> *mut Complex64 {
        self.ptrs
            .get_unchecked(i >> self.bits)
            .add(i & (self.run() - 1))
    }
}

/// Moves and scales one group of a permutation: `at(o)` is the first
/// amplitude of the strip at slot offset `o`, each strip `strip`
/// consecutive amplitudes. All swaps come first, then the image phases, so
/// each amplitude takes one multiply, as in the cycle walk the swaps spell
/// out.
///
/// Safety: `at` must address `strip` valid amplitudes per slot, disjoint
/// across the slots of `pairs` and `scale`, and the CPU must support `L`'s
/// target features.
#[inline(always)]
unsafe fn permute_strips<L: C64x2>(
    at: impl Fn(usize) -> *mut Complex64,
    strip: usize,
    pairs: &[(usize, usize)],
    scale: &[(usize, Complex64)],
) {
    for &(a, b) in pairs {
        std::ptr::swap_nonoverlapping(at(a), at(b), strip);
    }
    for &(o, e) in scale {
        scale_run::<L>(std::slice::from_raw_parts_mut(at(o), strip), e);
    }
}

/// Multiplies a contiguous run of amplitudes by `e`, two at a time.
///
/// Safety: the CPU must support `L`'s target features.
#[inline(always)]
unsafe fn scale_run<L: C64x2>(run: &mut [Complex64], e: Complex64) {
    let ph = L::splat(e);
    let mut pairs = run.chunks_exact_mut(2);
    for q in &mut pairs {
        (L::load(q.as_ptr()) * ph).store(q.as_mut_ptr());
    }
    for a in pairs.into_remainder() {
        *a *= e;
    }
}

/// Multiplies a contiguous run of amplitudes by a slice of table entries of
/// the same length, two at a time.
///
/// Safety: the CPU must support `L`'s target features.
#[inline(always)]
unsafe fn mul_runs<L: C64x2>(run: &mut [Complex64], table: &[Complex64]) {
    let mut pairs = run.chunks_exact_mut(2);
    let mut entries = table.chunks_exact(2);
    for (q, t) in (&mut pairs).zip(&mut entries) {
        (L::load(q.as_ptr()) * L::load(t.as_ptr())).store(q.as_mut_ptr());
    }
    for (a, t) in pairs.into_remainder().iter_mut().zip(entries.remainder()) {
        *a *= *t;
    }
}

/// The uncontrolled single-qubit sweep of one chunk at any `stride`, the
/// arithmetic of `StateVector::apply_controlled_single_qubit`.
///
/// Safety: the CPU must support `L`'s target features.
#[inline(always)]
unsafe fn single_sweep<L: C64x2>(chunk: &mut [Complex64], stride: usize, u: &[Complex64; 4]) {
    let us = splat4::<L>(u);
    if stride > 1 {
        // The two halves of each block are disjoint contiguous runs.
        for blk in chunk.chunks_exact_mut(stride << 1) {
            let (lo, hi) = blk.split_at_mut(stride);
            pair_run(lo, hi, &us, u);
        }
        return;
    }
    // Each pair is adjacent: transposing two pairs puts both low
    // amplitudes in one register and both high ones in the other.
    let mut quads = chunk.chunks_exact_mut(4);
    for q in &mut quads {
        let p = q.as_mut_ptr();
        let (a0, a1) = L::transpose(L::load(p), L::load(p.add(2)));
        let (n0, n1) = L::transpose(a0 * us[0] + a1 * us[1], a0 * us[2] + a1 * us[3]);
        n0.store(p);
        n1.store(p.add(2));
    }
    if let [x, y] = quads.into_remainder() {
        pair_update(x, y, u);
    }
}

/// Applies `u` to the pairs `(lo[k], hi[k])`, two pairs at a time:
/// `lo[k] ← u₀·lo[k] + u₁·hi[k]` and `hi[k] ← u₂·lo[k] + u₃·hi[k]`. `us` is
/// `u` splatted.
///
/// Safety: the CPU must support `L`'s target features.
#[inline(always)]
unsafe fn pair_run<L: C64x2>(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    us: &[L; 4],
    u: &[Complex64; 4],
) {
    let mut xs = lo.chunks_exact_mut(2);
    let mut ys = hi.chunks_exact_mut(2);
    for (x, y) in (&mut xs).zip(&mut ys) {
        let (a0, a1) = (L::load(x.as_ptr()), L::load(y.as_ptr()));
        (a0 * us[0] + a1 * us[1]).store(x.as_mut_ptr());
        (a0 * us[2] + a1 * us[3]).store(y.as_mut_ptr());
    }
    for (x, y) in xs.into_remainder().iter_mut().zip(ys.into_remainder()) {
        pair_update(x, y, u);
    }
}

/// The four entries of `u`, each splatted to both lanes.
///
/// Safety: the CPU must support `L`'s target features.
#[inline(always)]
unsafe fn splat4<L: C64x2>(u: &[Complex64; 4]) -> [L; 4] {
    [
        L::splat(u[0]),
        L::splat(u[1]),
        L::splat(u[2]),
        L::splat(u[3]),
    ]
}

/// `(x, y) ← (u₀·x + u₁·y, u₂·x + u₃·y)`, the scalar arithmetic of
/// `StateVector::apply_controlled_single_qubit`.
#[inline(always)]
fn pair_update(x: &mut Complex64, y: &mut Complex64, u: &[Complex64; 4]) {
    let (a0, a1) = (*x, *y);
    *x = u[0] * a0 + u[1] * a1;
    *y = u[2] * a0 + u[3] * a1;
}

/// [`pair_update`] on the pairs `(lo[k], hi[k])` whose index `at + k`
/// satisfies the controls.
#[inline(always)]
fn controlled_pair_run(
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    at: usize,
    cmask: usize,
    cval: usize,
    u: &[Complex64; 4],
) {
    for (k, (x, y)) in lo.iter_mut().zip(hi).enumerate() {
        if (at + k) & cmask == cval {
            pair_update(x, y, u);
        }
    }
}

/// Applies a single-qubit op to the pairs `(xs[k], ys[k])`, where `xs[0]`
/// has index `at`: [`pair_run`] on the widest lane body this CPU supports
/// when the op is uncontrolled, [`controlled_pair_run`] otherwise.
fn pair_run_dispatch(
    xs: &mut [Complex64],
    ys: &mut [Complex64],
    at: usize,
    (cmask, cval): (usize, usize),
    u: &[Complex64; 4],
) {
    /// Safety: the CPU must support `L`'s target features.
    #[inline(always)]
    unsafe fn run<L: C64x2>(
        xs: &mut [Complex64],
        ys: &mut [Complex64],
        at: usize,
        (cmask, cval): (usize, usize),
        u: &[Complex64; 4],
    ) {
        if cmask == 0 && cval == 0 {
            pair_run(xs, ys, &splat4::<L>(u), u);
        } else {
            controlled_pair_run(xs, ys, at, cmask, cval, u);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(
            xs: &mut [Complex64],
            ys: &mut [Complex64],
            at: usize,
            controls: (usize, usize),
            u: &[Complex64; 4],
        ) {
            run::<Avx2C64x2>(xs, ys, at, controls, u);
        }
        // Safety: the required CPU feature was just checked.
        unsafe { avx2(xs, ys, at, (cmask, cval), u) };
        return;
    }
    // Safety: the portable lanes need no CPU feature.
    unsafe { run::<PortableC64x2>(xs, ys, at, (cmask, cval), u) };
}

/// Scalar gather → multiply → scatter of one dense group — the remainder
/// path (and oracle) of the laned dense kernel.
#[inline]
fn dense_group_scalar(
    chunk: &mut [Complex64],
    off: usize,
    scatter: &[usize],
    flat: &[Complex64],
    kdim: usize,
) {
    let mut buf = [Complex64::ZERO; MAX_BLOCK_DIM];
    for (b, s) in buf[..kdim].iter_mut().zip(scatter) {
        *b = chunk[off + *s];
    }
    for (row, mrow) in flat.chunks_exact(kdim).enumerate() {
        let mut acc = Complex64::ZERO;
        for (mc, bc) in mrow.iter().zip(&buf[..kdim]) {
            acc += *mc * *bc;
        }
        chunk[off + scatter[row]] = acc;
    }
}

/// Scalar application of every sparse component to one group — the
/// fallback for wide components and small group spaces.
#[inline]
fn sparse_group_scalar(
    chunk: &mut [Complex64],
    off: usize,
    comps: &[Comp],
    buf: &mut [Complex64; MAX_BLOCK_DIM],
) {
    for comp in comps {
        match comp.offs.len() {
            1 => chunk[off + comp.offs[0]] *= comp.flat[0],
            2 => {
                let (o0, o1) = (off + comp.offs[0], off + comp.offs[1]);
                let a0 = chunk[o0];
                let a1 = chunk[o1];
                chunk[o0] = comp.flat[0] * a0 + comp.flat[1] * a1;
                chunk[o1] = comp.flat[2] * a0 + comp.flat[3] * a1;
            }
            md => {
                for (b, o) in buf[..md].iter_mut().zip(&comp.offs) {
                    *b = chunk[off + *o];
                }
                for (row, mrow) in comp.flat.chunks_exact(md).enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (mc, bc) in mrow.iter().zip(&buf[..md]) {
                        acc += *mc * *bc;
                    }
                    chunk[off + comp.offs[row]] = acc;
                }
            }
        }
    }
}

/// `true` when sweeps over `dim` amplitudes should use worker threads.
pub(crate) fn sweep_parallel(dim: usize) -> bool {
    dim >= parallel_threshold()
}

/// Multiple of [`parallel_threshold`] from which an op wider than a fused
/// tile takes [`Prepared::apply_sweep`]'s index-space split. In the
/// `crossover` binary's top-support rows on two threads, a dense 2-qubit op
/// wins split only from 2¹⁷ amplitudes, an uncontrolled single-qubit op,
/// whose workers take contiguous runs of pairs, breaks even at 2¹⁸ and wins
/// above, and a 10-qubit permutation, whose strips form a single group,
/// never wins split (1.00–1.13 of serial from 2¹⁴ to 2¹⁸ over two runs).
const WIDE_SWEEP_FACTOR: usize = 4;

/// `true` when an op wider than a fused tile should sweep `dim` amplitudes
/// through the index-space parallel split. A threshold of `0` still forces
/// the split.
pub(crate) fn wide_sweep_parallel(dim: usize) -> bool {
    dim >= parallel_threshold().saturating_mul(WIDE_SWEEP_FACTOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_circuit::ControlBit;

    #[test]
    fn wide_sweeps_split_from_four_times_the_threshold() {
        let t = parallel_threshold();
        let wide = t.saturating_mul(WIDE_SWEEP_FACTOR);
        assert!(wide_sweep_parallel(wide));
        assert!(sweep_parallel(t));
        if t > 0 {
            assert!(!wide_sweep_parallel(wide - 1));
        }
    }

    /// Applies `op` to `amps` one amplitude at a time: the oracle of every
    /// diagonal, permutation and keyed-phase walk. A diagonal multiplies
    /// every amplitude by its entry, a permutation only those with a
    /// non-unit phase and a keyed phase only those its key selects, which
    /// shows on signed zeros.
    fn oracle(n: usize, op: &FusedOp, amps: &[Complex64]) -> Vec<Complex64> {
        let k = op.qubits.len();
        let pos: Vec<usize> = op.qubits.iter().map(|q| n - 1 - q).collect();
        let local = |i: usize| (0..k).fold(0usize, |l, j| l | ((i >> pos[j]) & 1) << (k - 1 - j));
        let mut out = amps.to_vec();
        for (i, &a) in amps.iter().enumerate() {
            let l = local(i);
            match &op.kernel {
                FusedKernel::Diagonal(table) => out[i] = a * table[l],
                FusedKernel::Permutation { targets, phases } => {
                    let t = targets[l] as usize;
                    let mut dest = i;
                    for (j, p) in pos.iter().enumerate() {
                        dest = dest & !(1 << p) | ((t >> (k - 1 - j)) & 1) << p;
                    }
                    out[dest] = if phases[l] == Complex64::ONE {
                        a
                    } else {
                        phases[l] * a
                    };
                }
                FusedKernel::Gate(Gate::KeyedPhase { key, theta }) => {
                    let hit = key
                        .iter()
                        .all(|c| (i >> (n - 1 - c.qubit) & 1) as u8 == c.value);
                    if hit {
                        out[i] = a * Complex64::cis(*theta);
                    }
                }
                _ => unreachable!(),
            }
        }
        out
    }

    fn assert_bits(got: &[Complex64], want: &[Complex64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "{what}: amplitude {i}"
            );
        }
    }

    /// A random `n`-qubit state with signed zeros among its amplitudes:
    /// `(+0, −0)·1` is `(+0, +0)`, so a kernel that skips or reorders work
    /// shows in the bits.
    fn seasoned_state(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<Complex64> {
        use rand::Rng;
        let mut amps = crate::StateVector::random_state(n, rng)
            .amplitudes()
            .to_vec();
        for a in amps.iter_mut() {
            if rng.gen_bool(0.25) {
                *a = Complex64::new(
                    [0.0, -0.0][rng.gen_range(0..2usize)],
                    [0.0, -0.0][rng.gen_range(0..2usize)],
                );
            }
        }
        amps
    }

    /// Applies `prepared` to `s0` through every chunk size that holds its
    /// span, every shard split (serial and parallel) and both sweeps, and
    /// checks each result against `want` bit for bit.
    fn assert_every_path(
        n: usize,
        prepared: &Prepared,
        s0: &[Complex64],
        want: &[Complex64],
        case: &str,
    ) {
        let dim = 1usize << n;
        for c in 0..=n {
            let chunk = 1usize << c;
            if chunk >= prepared.span {
                let mut amps = s0.to_vec();
                for (ci, part) in amps.chunks_mut(chunk).enumerate() {
                    prepared.apply_local(ci * chunk, part);
                }
                assert_bits(&amps, want, &format!("{case}: chunks of {chunk}"));
            }
            for parallel in [false, true] {
                let mut shards: Vec<Vec<Complex64>> = s0.chunks(chunk).map(<[_]>::to_vec).collect();
                prepared.apply_cross(&mut shards, dim, parallel);
                let got: Vec<Complex64> = shards.concat();
                let what = format!("{case}: shards of {chunk}, parallel {parallel}");
                assert_bits(&got, want, &what);
            }
        }
        for parallel in [false, true] {
            let mut amps = s0.to_vec();
            prepared.apply_sweep(&mut amps, parallel);
            assert_bits(&amps, want, &format!("{case}: sweep {parallel}"));
        }
    }

    #[test]
    fn diagonal_permutation_and_keyed_walks_match_their_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x57_1125);
        for case in 0..180 {
            let n = rng.gen_range(2..=11usize);
            let k = rng.gen_range(1..=n.min(8));
            // Distinct qubits in random order: relabeled supports are
            // unsorted, and sorted ones take the table-slice walk.
            let mut qubits: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                qubits.swap(i, j);
            }
            qubits.truncate(k);
            if case % 2 == 0 {
                qubits.sort_unstable();
            }
            let dim_k = 1usize << k;
            let phase = |rng: &mut StdRng, keep: f64| {
                if rng.gen_bool(keep) {
                    Complex64::ONE
                } else {
                    Complex64::cis(rng.gen_range(-3.0..3.0))
                }
            };
            // Every active fraction: all, about half, one entry.
            let keep = [0.0, 0.5, 1.0 - 1.0 / dim_k as f64][case % 3];
            let kernel = if case % 9 < 3 {
                FusedKernel::Diagonal((0..dim_k).map(|_| phase(&mut rng, keep)).collect())
            } else if case % 9 >= 6 {
                // A key on the support, one value per qubit; the last
                // case of each three repeats a qubit with the other value,
                // which no amplitude satisfies.
                let mut key: Vec<ControlBit> = qubits
                    .iter()
                    .map(|&q| ControlBit {
                        qubit: q,
                        value: rng.gen_range(0..2u8),
                    })
                    .collect();
                if case % 3 == 2 {
                    key.push(ControlBit {
                        qubit: key[0].qubit,
                        value: 1 - key[0].value,
                    });
                }
                FusedKernel::Gate(Gate::KeyedPhase {
                    key,
                    theta: rng.gen_range(-3.0..3.0),
                })
            } else {
                let mut targets: Vec<u32> = (0..dim_k as u32).collect();
                for i in (1..dim_k).rev() {
                    targets.swap(i, rng.gen_range(0..=i));
                }
                let phases = (0..dim_k).map(|_| phase(&mut rng, keep)).collect();
                FusedKernel::Permutation { targets, phases }
            };
            let op = FusedOp { qubits, kernel };
            let prepared = Prepared::build(n, &op);
            let s0 = seasoned_state(n, &mut rng);
            let want = oracle(n, &op, &s0);
            assert_every_path(n, &prepared, &s0, &want, &format!("case {case}"));
        }
    }

    /// Uncontrolled, controlled and never-satisfied single-qubit ops on
    /// every target, bits 0 and 1 (the transposed and two-pair sweeps)
    /// included, against the per-gate kernel.
    #[test]
    fn single_qubit_sweeps_match_their_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x51_4e61);
        for n in 1..=10usize {
            for target in 0..n {
                let others: Vec<usize> = (0..n).filter(|&q| q != target).collect();
                for kind in ["uncontrolled", "controlled", "unsatisfiable"] {
                    if others.is_empty() && kind != "uncontrolled" {
                        continue;
                    }
                    let mut controls: Vec<ControlBit> = Vec::new();
                    if kind != "uncontrolled" {
                        for &q in &others {
                            if controls.is_empty() || rng.gen_bool(0.3) {
                                controls.push(ControlBit {
                                    qubit: q,
                                    value: rng.gen_range(0..2u8),
                                });
                            }
                        }
                    }
                    if kind == "unsatisfiable" {
                        let c = controls[rng.gen_range(0..controls.len())];
                        controls.push(ControlBit {
                            qubit: c.qubit,
                            value: 1 - c.value,
                        });
                    }
                    let mut entry =
                        || Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    let u = CMatrix::from_vec(2, 2, vec![entry(), entry(), entry(), entry()]);
                    let op = FusedOp {
                        qubits: vec![target],
                        kernel: FusedKernel::Dense {
                            controls: controls.clone(),
                            matrix: u.clone(),
                        },
                    };
                    let s0 = seasoned_state(n, &mut rng);
                    let mut want = crate::StateVector::from_amplitudes(n, s0.clone());
                    want.apply_controlled_single_qubit(target, &controls, &u);
                    let case = format!("n {n}, target {target}, {kind}");
                    assert_every_path(n, &Prepared::build(n, &op), &s0, want.amplitudes(), &case);
                }
            }
        }
    }

    /// The strip loops, run with every lane body this CPU supports, on
    /// awkward values and runs of every length up to 9 (odd ones end in
    /// the scalar remainder).
    fn strip_loops<L: C64x2>(xs: &[Complex64], ys: &[Complex64]) -> Vec<Vec<Complex64>> {
        let u = [xs[1], ys[2], ys[0], xs[3]];
        let mut outs = Vec::new();
        for len in 0..=9 {
            let (x, y) = (&xs[..len], &ys[..len]);
            // Safety: callers check the body's CPU features.
            unsafe {
                let mut run = x.to_vec();
                scale_run::<L>(&mut run, ys[0]);
                outs.push(run);
                let mut run = x.to_vec();
                mul_runs::<L>(&mut run, y);
                outs.push(run);
                let (mut lo, mut hi) = (x.to_vec(), y.to_vec());
                pair_run::<L>(&mut lo, &mut hi, &splat4::<L>(&u), &u);
                outs.push(lo);
                outs.push(hi);
            }
        }
        for stride in [1, 2, 4] {
            for blocks in 1..=3 {
                let mut chunk = xs[..2 * stride * blocks].to_vec();
                // Safety: as above.
                unsafe { single_sweep::<L>(&mut chunk, stride, &u) };
                outs.push(chunk);
            }
        }
        outs
    }

    #[test]
    fn lane_bodies_match_the_scalar_strip_loops() {
        let awkward = [
            Complex64::new(0.1, -0.7),
            Complex64::new(1.0e-160, 3.3),
            Complex64::new(-2.5000000000000004, 1.0e16),
            Complex64::new(std::f64::consts::PI, -std::f64::consts::E),
            Complex64::new(-0.0, 0.0),
            Complex64::new(-0.30000000000000004, 0.2),
            Complex64::new(7.7, -1.0e-9),
            Complex64::new(0.0, -0.0),
            Complex64::new(1.0 / 3.0, 2.0 / 3.0),
            Complex64::new(-1.0e-300, 4.4),
            Complex64::new(1.0, 0.0),
        ];
        let xs: Vec<Complex64> = (0..24).map(|i| awkward[i % 11]).collect();
        let ys: Vec<Complex64> = (0..24).map(|i| awkward[(7 * i + 3) % 11]).collect();
        let u = [xs[1], ys[2], ys[0], xs[3]];
        // The scalar arithmetic each loop replays.
        let mut want = Vec::new();
        for len in 0..=9 {
            let (x, y) = (&xs[..len], &ys[..len]);
            want.push(x.iter().map(|&a| a * ys[0]).collect::<Vec<_>>());
            want.push(x.iter().zip(y).map(|(&a, &t)| a * t).collect());
            want.push(
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| u[0] * a + u[1] * b)
                    .collect(),
            );
            want.push(
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| u[2] * a + u[3] * b)
                    .collect(),
            );
        }
        for stride in [1, 2, 4] {
            for blocks in 1..=3 {
                let mut chunk = xs[..2 * stride * blocks].to_vec();
                for blk in chunk.chunks_exact_mut(2 * stride) {
                    let (lo, hi) = blk.split_at_mut(stride);
                    controlled_pair_run(lo, hi, 0, 0, 0, &u);
                }
                want.push(chunk);
            }
        }
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut bodies = vec![("portable", strip_loops::<PortableC64x2>(&xs, &ys))];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            bodies.push(("avx2", strip_loops::<Avx2C64x2>(&xs, &ys)));
        }
        for (body, got) in bodies {
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.len(), w.len());
                assert_bits(g, w, &format!("{body}: loop output {k}"));
            }
        }
    }

    #[test]
    fn subset_iteration_enumerates_exactly_the_mask() {
        let mask = 0b1011_0100usize;
        let mut seen = Vec::new();
        for_each_subset(mask, |s| seen.push(s));
        assert_eq!(seen.len(), 1 << mask.count_ones());
        for w in seen.windows(2) {
            assert!(w[0] < w[1], "subsets must come in increasing order");
        }
        for s in &seen {
            assert_eq!(s & !mask, 0);
        }
    }

    #[test]
    fn subset_x4_matches_plain_iteration() {
        for mask in [0b101usize, 0b1011_0100, 0b1111] {
            let mut plain = Vec::new();
            for_each_subset(mask, |s| plain.push(s));
            let mut x4 = Vec::new();
            for_each_subset_x4(mask, |q| x4.extend_from_slice(&q));
            assert_eq!(plain, x4, "mask {mask:#b}");
        }
    }

    #[test]
    fn expand_rank_matches_subset_order() {
        let mask = 0b1011_0100usize;
        let mut by_iter = Vec::new();
        for_each_subset(mask, |s| by_iter.push(s));
        for (rank, &s) in by_iter.iter().enumerate() {
            assert_eq!(expand_rank(rank, mask), s, "rank {rank}");
        }
    }
}
