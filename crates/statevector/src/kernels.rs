//! Shared fused-op kernels: base-offset lowering, SIMD inner loops, and the
//! index-space parallel full-array sweep.
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
//! shared `apply_local` body, and the cross/sweep paths mirror it operation
//! for operation — the two engines produce bit-identical states for any
//! tile size, shard count and thread count.
//!
//! The hot inner loops process four independent amplitude *groups* per
//! iteration in split (SoA) real/imaginary layout ([`ghs_math::C64x4`]).
//! Lanes are only ever laid **across** groups (never inside a dot product),
//! and every lane operation replays the scalar complex arithmetic
//! elementwise in the same order, so the SIMD kernels are bit-identical to
//! the scalar remainder path that doubles as their oracle.
//!
//! [`Prepared::apply_sweep`] parallelizes over *group index space* (ranges
//! of group ranks, expanded to scatter offsets by bit deposit) instead of
//! splitting the amplitude slice. This is what lets an op whose support
//! includes qubit 0 — the most significant bit, whose span is the whole
//! array — still fan out across worker threads: distinct groups address
//! disjoint amplitude sets, so the range workers write through a shared
//! raw pointer without overlap.

use crate::state::{control_mask, parallel_threshold};
use ghs_circuit::{FusedKernel, FusedOp, Gate};
use ghs_math::{C64x4, CMatrix, Complex64};
use rayon::prelude::*;

/// Stack gather-buffer bound, shared by every dense/sparse kernel.
pub(crate) const MAX_BLOCK_DIM: usize = 1 << ghs_circuit::MAX_DENSE_QUBITS;

/// Calls `f(s)` for every `s` whose set bits lie inside `mask` (including
/// `0`), in increasing order — the standard subset-iteration identity
/// `s' = (s - mask) & mask`.
#[inline]
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

/// Shared raw pointer to the amplitude array for index-space parallel
/// sweeps. Safety: every parallel caller partitions a *group* (or pair)
/// index space whose members address disjoint amplitude sets, so no two
/// workers ever touch the same element.
struct SyncPtr(*mut Complex64);
unsafe impl Send for SyncPtr {}
unsafe impl Sync for SyncPtr {}

impl SyncPtr {
    /// Safety: callers must access disjoint indices across threads.
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    unsafe fn at(&self, idx: usize) -> &mut Complex64 {
        &mut *self.0.add(idx)
    }
}

/// Runs `per_group` over every subset of `gmask`, splitting the group-rank
/// space into one contiguous range per worker thread when `parallel` holds.
/// `per_group` must write only amplitudes of its own group (`i & gmask ==
/// group`), which is exactly what every kernel below does.
fn sweep_groups<F: Fn(usize) + Sync>(gmask: usize, parallel: bool, per_group: F) {
    let groups = 1usize << gmask.count_ones();
    let workers = if parallel {
        rayon::current_num_threads().min(groups)
    } else {
        1
    };
    if workers <= 1 {
        for_each_subset(gmask, per_group);
        return;
    }
    let mut ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (groups * w / workers, groups * (w + 1) / workers))
        .collect();
    ranges.par_iter_mut().for_each(|&mut (lo, hi)| {
        let mut off = expand_rank(lo, gmask);
        for _ in lo..hi {
            per_group(off);
            off = off.wrapping_sub(gmask) & gmask;
        }
    });
}

/// One cycle of a permutation kernel, over scatter offsets. `phs_x4` holds
/// the walk phases pre-broadcast to four lanes for the laned group walk.
pub(crate) struct Cycle {
    offs: Vec<usize>,
    phs: Vec<Complex64>,
    phs_x4: Vec<C64x4>,
    trivial: bool,
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
    /// Non-unit phase table entries at their scatter offsets.
    Diagonal { active: Vec<(usize, Complex64)> },
    /// Cycle-decomposed phased shuffle. `pairs` is the flat swap list when
    /// every cycle is phase-free and there are no fixed phases (plain
    /// CX/X/SWAP ladders) — the dominant permutation shape. A length-`m`
    /// rotation is `m − 1` pivot swaps, so the whole op collapses to
    /// straight-line swaps without touching the cycle tables.
    Permutation {
        cycles: Vec<Cycle>,
        fixed: Vec<(usize, Complex64)>,
        /// `fixed` phases pre-broadcast to four lanes.
        fixed_x4: Vec<C64x4>,
        pairs: Option<Vec<(u32, u32)>>,
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
    /// Keyed phase: one mask compare and at most one multiply per amplitude.
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
/// sweeps exclude. Control/key masks are *not* part of the span: they are
/// resolved from the absolute base, so controls on high (shard-index /
/// out-of-tile) bits never force a full-array pass.
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
        let (scatter, smask, span) = scatter_table(num_qubits, &op.qubits);
        match &op.kernel {
            FusedKernel::Diagonal(table) => {
                let active: Vec<(usize, Complex64)> = table
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| **p != Complex64::ONE)
                    .map(|(l, p)| (scatter[l], *p))
                    .collect();
                Prepared {
                    span,
                    smask,
                    kind: Kind::Diagonal { active },
                }
            }
            FusedKernel::Permutation { targets, phases } => {
                let kdim = targets.len();
                let mut cycles: Vec<Cycle> = Vec::new();
                let mut fixed: Vec<(usize, Complex64)> = Vec::new();
                let mut visited = vec![false; kdim];
                for start in 0..kdim {
                    if visited[start] {
                        continue;
                    }
                    if targets[start] as usize == start {
                        visited[start] = true;
                        if phases[start] != Complex64::ONE {
                            fixed.push((scatter[start], phases[start]));
                        }
                        continue;
                    }
                    let mut offs = Vec::new();
                    let mut phs = Vec::new();
                    let mut l = start;
                    while !visited[l] {
                        visited[l] = true;
                        offs.push(scatter[l]);
                        phs.push(phases[l]);
                        l = targets[l] as usize;
                    }
                    let trivial = phs.iter().all(|p| *p == Complex64::ONE);
                    let phs_x4 = phs.iter().map(|p| C64x4::splat(*p)).collect();
                    cycles.push(Cycle {
                        offs,
                        phs,
                        phs_x4,
                        trivial,
                    });
                }
                let pairs = if fixed.is_empty() && cycles.iter().all(|c| c.trivial) {
                    // A length-m rotation is m−1 swaps against a pivot:
                    // swap(o0,o1), swap(o0,o2), …, swap(o0,o_{m−1}) leaves
                    // o0 ← o_{m−1} and o_i ← o_{i−1}, exactly the cycle walk.
                    let mut ps = Vec::new();
                    for c in &cycles {
                        for i in 1..c.offs.len() {
                            ps.push((c.offs[0] as u32, c.offs[i] as u32));
                        }
                    }
                    Some(ps)
                } else {
                    None
                };
                let fixed_x4 = fixed.iter().map(|&(_, p)| C64x4::splat(p)).collect();
                Prepared {
                    span,
                    smask,
                    kind: Kind::Permutation {
                        cycles,
                        fixed,
                        fixed_x4,
                        pairs,
                    },
                }
            }
            FusedKernel::Dense { controls, matrix } => {
                let (cmask, cval) = control_mask(controls, num_qubits);
                if op.qubits.len() == 1 {
                    Prepared::ctrl_single(num_qubits, op.qubits[0], cmask, cval, matrix)
                } else {
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
    /// lanes here replay the scalar arithmetic elementwise (see module
    /// docs), so outputs are bit-identical to the scalar remainder loops.
    ///
    /// On x86-64 with AVX2 available at runtime the body is re-dispatched
    /// into an `#[target_feature(enable = "avx2")]` copy, so the four-lane
    /// split-layout loops compile to 256-bit vector ops. Only elementwise
    /// multiplies/adds are enabled — no FMA contraction — so the AVX2 copy
    /// computes bit-identical results to the baseline one.
    pub(crate) fn apply_local(&self, base: usize, chunk: &mut [Complex64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // Safety: the required CPU feature was just checked.
            unsafe { self.apply_local_avx2(base, chunk) };
            return;
        }
        self.apply_local_impl(base, chunk);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_local_avx2(&self, base: usize, chunk: &mut [Complex64]) {
        self.apply_local_impl(base, chunk);
    }

    #[inline(always)]
    fn apply_local_impl(&self, base: usize, chunk: &mut [Complex64]) {
        let gmask = (chunk.len() - 1) & !self.smask;
        match &self.kind {
            Kind::Diagonal { active } => {
                if active.is_empty() {
                    return;
                }
                if gmask == 0 {
                    // Support covers the whole chunk: one group, lane across
                    // active table entries instead.
                    let mut it = active.chunks_exact(4);
                    for quad in &mut it {
                        let amps = C64x4::gather(
                            chunk[quad[0].0],
                            chunk[quad[1].0],
                            chunk[quad[2].0],
                            chunk[quad[3].0],
                        );
                        let phs = C64x4::gather(quad[0].1, quad[1].1, quad[2].1, quad[3].1);
                        let out = amps * phs;
                        for (k, &(off, _)) in quad.iter().enumerate() {
                            chunk[off] = out.lane(k);
                        }
                    }
                    for &(off, phase) in it.remainder() {
                        chunk[off] *= phase;
                    }
                    return;
                }
                if gmask.count_ones() < 2 {
                    for &(off0, phase) in active {
                        for_each_subset(gmask, |off| {
                            chunk[off0 + off] *= phase;
                        });
                    }
                    return;
                }
                let p = chunk.as_mut_ptr();
                for &(off0, phase) in active {
                    let ph = C64x4::splat(phase);
                    // Safety: every index is `group | scatter` with both
                    // parts below `span ≤ chunk.len()`.
                    for_each_subset_x4(gmask, |offs| unsafe {
                        let out = gather_quad(p, &offs, off0) * ph;
                        scatter_quad(p, &offs, off0, out);
                    });
                }
            }
            Kind::Permutation {
                cycles,
                fixed,
                fixed_x4,
                pairs,
            } => {
                if cycles.is_empty() && fixed.is_empty() {
                    return;
                }
                if let Some(pairs) = pairs {
                    // Straight-line swap list. Safety: every offset is
                    // `group | scatter` with both parts inside the chunk
                    // (span ≤ chunk.len() is this method's contract).
                    let p = chunk.as_mut_ptr();
                    for_each_subset(gmask, |off| unsafe {
                        for &(a, b) in pairs {
                            std::ptr::swap(p.add(off + a as usize), p.add(off + b as usize));
                        }
                    });
                    return;
                }
                if gmask.count_ones() >= 2 {
                    // Phased walk over four groups at once: gather a quad
                    // per cycle slot, multiply by the pre-broadcast phase,
                    // scatter one slot down the cycle. Groups are disjoint,
                    // so the interleaving preserves the scalar results
                    // exactly. Safety: every index is `group | scatter`
                    // with both parts below `span ≤ chunk.len()`.
                    let p = chunk.as_mut_ptr();
                    for_each_subset_x4(gmask, |offs| unsafe {
                        let offs = &offs;
                        for cy in cycles {
                            let m = cy.offs.len();
                            let tmp = gather_quad(p, offs, cy.offs[m - 1]);
                            if cy.trivial {
                                for i in (1..m).rev() {
                                    let v = gather_quad(p, offs, cy.offs[i - 1]);
                                    scatter_quad(p, offs, cy.offs[i], v);
                                }
                                scatter_quad(p, offs, cy.offs[0], tmp);
                            } else {
                                for i in (1..m).rev() {
                                    let v = cy.phs_x4[i - 1] * gather_quad(p, offs, cy.offs[i - 1]);
                                    scatter_quad(p, offs, cy.offs[i], v);
                                }
                                scatter_quad(p, offs, cy.offs[0], cy.phs_x4[m - 1] * tmp);
                            }
                        }
                        for (&(o, _), ph) in fixed.iter().zip(fixed_x4) {
                            let v = gather_quad(p, offs, o) * *ph;
                            scatter_quad(p, offs, o, v);
                        }
                    });
                    return;
                }
                for_each_subset(gmask, |off| {
                    for cy in cycles {
                        let m = cy.offs.len();
                        if cy.trivial {
                            if m == 2 {
                                chunk.swap(off + cy.offs[0], off + cy.offs[1]);
                            } else {
                                let tmp = chunk[off + cy.offs[m - 1]];
                                for i in (1..m).rev() {
                                    chunk[off + cy.offs[i]] = chunk[off + cy.offs[i - 1]];
                                }
                                chunk[off + cy.offs[0]] = tmp;
                            }
                        } else {
                            let tmp = chunk[off + cy.offs[m - 1]];
                            for i in (1..m).rev() {
                                chunk[off + cy.offs[i]] =
                                    cy.phs[i - 1] * chunk[off + cy.offs[i - 1]];
                            }
                            chunk[off + cy.offs[0]] = cy.phs[m - 1] * tmp;
                        }
                    }
                    for &(o, p) in fixed {
                        chunk[off + o] *= p;
                    }
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
                if *cmask == 0 && gmask.count_ones() >= 2 {
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
                let block = stride << 1;
                if *cmask == 0 && *stride >= 4 {
                    // Uncontrolled pair sweep: the two halves of each block
                    // are disjoint contiguous runs, so split them and lane
                    // four consecutive pairs with no index arithmetic (and
                    // no bounds checks — `chunks_exact` pins the lengths).
                    let (u0, u1, u2, u3) = (
                        C64x4::splat(u[0]),
                        C64x4::splat(u[1]),
                        C64x4::splat(u[2]),
                        C64x4::splat(u[3]),
                    );
                    for blk in chunk.chunks_exact_mut(block) {
                        let (lo, hi) = blk.split_at_mut(*stride);
                        for (xs, ys) in lo.chunks_exact_mut(4).zip(hi.chunks_exact_mut(4)) {
                            let a0 = C64x4::gather(xs[0], xs[1], xs[2], xs[3]);
                            let a1 = C64x4::gather(ys[0], ys[1], ys[2], ys[3]);
                            let n0 = u0 * a0 + u1 * a1;
                            let n1 = u2 * a0 + u3 * a1;
                            for lane in 0..4 {
                                xs[lane] = n0.lane(lane);
                                ys[lane] = n1.lane(lane);
                            }
                        }
                    }
                    return;
                }
                let mut kb = 0usize;
                while kb < chunk.len() {
                    for k in kb..kb + stride {
                        if (base + k) & cmask != *cval {
                            continue;
                        }
                        let a0 = chunk[k];
                        let a1 = chunk[k + stride];
                        chunk[k] = u[0] * a0 + u[1] * a1;
                        chunk[k + stride] = u[2] * a0 + u[3] * a1;
                    }
                    kb += block;
                }
            }
            Kind::Keyed { kmask, kval, phase } => {
                for (k, a) in chunk.iter_mut().enumerate() {
                    if (base + k) & kmask == *kval {
                        *a *= *phase;
                    }
                }
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
            Kind::Phase { phase } => {
                for a in chunk.iter_mut() {
                    *a *= *phase;
                }
            }
        }
    }

    /// `true` for a permutation (a CX/X/SWAP ladder or a monomial block).
    /// Its whole-array sweep wins from the parallel threshold through the
    /// index-space split, unlike the arithmetic kinds (see
    /// [`wide_sweep_parallel`]).
    pub(crate) fn is_permutation(&self) -> bool {
        matches!(self.kind, Kind::Permutation { .. })
    }

    /// Applies the op to the whole flat amplitude array, parallelizing over
    /// group **index space** (contiguous ranges of group ranks) instead of
    /// slicing the array. Used by the flat engine when `span` exceeds its
    /// tile — including ops whose support reaches qubit 0 (the most
    /// significant bit), which span the entire array and used to fall back
    /// to a single thread under slice splitting. The per-amplitude
    /// arithmetic mirrors [`Prepared::apply_local`] exactly.
    ///
    /// With a single worker the whole array is one aligned chunk, so the
    /// sweep routes through [`Prepared::apply_local`] and its laned (AVX2
    /// when available) loops; the index-space split below only takes over
    /// when there is real parallelism to distribute. Both paths execute the
    /// same per-group arithmetic, so outputs are bit-identical.
    pub(crate) fn apply_sweep(&self, amps: &mut [Complex64], parallel: bool) {
        if !parallel || rayon::current_num_threads() <= 1 {
            self.apply_local(0, amps);
            return;
        }
        self.apply_sweep_impl(amps, parallel);
    }

    fn apply_sweep_impl(&self, amps: &mut [Complex64], parallel: bool) {
        let dim = amps.len();
        let gmask = (dim - 1) & !self.smask;
        let ptr = SyncPtr(amps.as_mut_ptr());
        macro_rules! at {
            ($idx:expr) => {
                *ptr.at($idx)
            };
        }
        match &self.kind {
            Kind::Diagonal { active } => {
                sweep_groups(gmask, parallel, |off| {
                    for &(off0, phase) in active {
                        // Safety: group `off` only touches its own offsets.
                        unsafe { at!(off0 + off) *= phase };
                    }
                });
            }
            Kind::Permutation {
                cycles,
                fixed,
                pairs,
                ..
            } => {
                if cycles.is_empty() && fixed.is_empty() {
                    return;
                }
                if let Some(pairs) = pairs {
                    sweep_groups(gmask, parallel, |off| unsafe {
                        for &(a, b) in pairs {
                            std::ptr::swap(ptr.at(off + a as usize), ptr.at(off + b as usize));
                        }
                    });
                    return;
                }
                sweep_groups(gmask, parallel, |off| unsafe {
                    for cy in cycles {
                        let m = cy.offs.len();
                        let tmp = at!(off + cy.offs[m - 1]);
                        if cy.trivial {
                            for i in (1..m).rev() {
                                at!(off + cy.offs[i]) = at!(off + cy.offs[i - 1]);
                            }
                            at!(off + cy.offs[0]) = tmp;
                        } else {
                            for i in (1..m).rev() {
                                at!(off + cy.offs[i]) = cy.phs[i - 1] * at!(off + cy.offs[i - 1]);
                            }
                            at!(off + cy.offs[0]) = cy.phs[m - 1] * tmp;
                        }
                    }
                    for &(o, p) in fixed {
                        at!(off + o) *= p;
                    }
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
                            *b = at!(off + *s);
                        }
                        for (row, mrow) in flat.chunks_exact(*kdim).enumerate() {
                            let mut acc = Complex64::ZERO;
                            for (mc, bc) in mrow.iter().zip(&buf[..*kdim]) {
                                acc += *mc * *bc;
                            }
                            at!(off + scatter[row]) = acc;
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
                                1 => at!(off + comp.offs[0]) *= comp.flat[0],
                                2 => {
                                    let a0 = at!(off + comp.offs[0]);
                                    let a1 = at!(off + comp.offs[1]);
                                    at!(off + comp.offs[0]) = comp.flat[0] * a0 + comp.flat[1] * a1;
                                    at!(off + comp.offs[1]) = comp.flat[2] * a0 + comp.flat[3] * a1;
                                }
                                md => {
                                    for (b, o) in buf[..md].iter_mut().zip(&comp.offs) {
                                        *b = at!(off + *o);
                                    }
                                    for (row, mrow) in comp.flat.chunks_exact(md).enumerate() {
                                        let mut acc = Complex64::ZERO;
                                        for (mc, bc) in mrow.iter().zip(&buf[..md]) {
                                            acc += *mc * *bc;
                                        }
                                        at!(off + comp.offs[row]) = acc;
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
                let pair_mask = (dim - 1) & !stride;
                sweep_groups(pair_mask, parallel, |i| {
                    if i & cmask != *cval {
                        return;
                    }
                    unsafe {
                        let a0 = at!(i);
                        let a1 = at!(i + stride);
                        at!(i) = u[0] * a0 + u[1] * a1;
                        at!(i + stride) = u[2] * a0 + u[3] * a1;
                    }
                });
            }
            Kind::Keyed { kmask, kval, phase } => {
                let apply = |(k, a): (usize, &mut Complex64)| {
                    if k & kmask == *kval {
                        *a *= *phase;
                    }
                };
                if parallel {
                    amps.par_iter_mut().enumerate().for_each(apply);
                } else {
                    amps.iter_mut().enumerate().for_each(apply);
                }
            }
            Kind::Swap { pa, pb } => {
                let (ba, bb) = (1usize << pa, 1usize << pb);
                sweep_groups((dim - 1) & !(ba | bb), parallel, |off| unsafe {
                    let i = off | ba;
                    let j = off | bb;
                    let tmp = at!(i);
                    at!(i) = at!(j);
                    at!(j) = tmp;
                });
            }
            Kind::Phase { phase } => {
                let apply = |(_, a): (usize, &mut Complex64)| {
                    *a *= *phase;
                };
                if parallel {
                    amps.par_iter_mut().enumerate().for_each(apply);
                } else {
                    amps.iter_mut().enumerate().for_each(apply);
                }
            }
        }
    }

    /// Applies the op across shard boundaries, element-wise over absolute
    /// physical indices. Used by the sharded engine when `span` exceeds the
    /// shard length; the arithmetic per amplitude is identical to the local
    /// path (and to the flat engine) — only the addressing differs.
    /// Dense/sparse kernels are the true *exchanges*: they gather a group
    /// from several shards of the family, multiply, and scatter back.
    /// Diagonal and permutation kernels never need a gather buffer.
    pub(crate) fn apply_cross(&self, shards: &mut [Vec<Complex64>], local_bits: usize, dim: usize) {
        let lmask = (1usize << local_bits) - 1;
        macro_rules! at {
            ($idx:expr) => {
                shards[$idx >> local_bits][$idx & lmask]
            };
        }
        let gmask = (dim - 1) & !self.smask;
        match &self.kind {
            Kind::Diagonal { active } => {
                for &(off0, phase) in active {
                    for_each_subset(gmask, |off| {
                        at!(off0 + off) *= phase;
                    });
                }
            }
            Kind::Permutation { cycles, fixed, .. } => {
                if cycles.is_empty() && fixed.is_empty() {
                    return;
                }
                for_each_subset(gmask, |off| {
                    for cy in cycles {
                        let m = cy.offs.len();
                        let tmp = at!(off + cy.offs[m - 1]);
                        if cy.trivial {
                            for i in (1..m).rev() {
                                at!(off + cy.offs[i]) = at!(off + cy.offs[i - 1]);
                            }
                            at!(off + cy.offs[0]) = tmp;
                        } else {
                            for i in (1..m).rev() {
                                at!(off + cy.offs[i]) = cy.phs[i - 1] * at!(off + cy.offs[i - 1]);
                            }
                            at!(off + cy.offs[0]) = cy.phs[m - 1] * tmp;
                        }
                    }
                    for &(o, p) in fixed {
                        at!(off + o) *= p;
                    }
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
                let mut buf = [Complex64::ZERO; MAX_BLOCK_DIM];
                for_each_subset(gmask, |off| {
                    if off & cmask != *cval {
                        return;
                    }
                    for (b, s) in buf[..*kdim].iter_mut().zip(scatter) {
                        *b = at!(off + *s);
                    }
                    for (row, mrow) in flat.chunks_exact(*kdim).enumerate() {
                        let mut acc = Complex64::ZERO;
                        for (mc, bc) in mrow.iter().zip(&buf[..*kdim]) {
                            acc += *mc * *bc;
                        }
                        at!(off + scatter[row]) = acc;
                    }
                });
            }
            Kind::Sparse { comps } => {
                let mut buf = [Complex64::ZERO; MAX_BLOCK_DIM];
                for_each_subset(gmask, |off| {
                    for comp in comps {
                        match comp.offs.len() {
                            1 => at!(off + comp.offs[0]) *= comp.flat[0],
                            2 => {
                                let a0 = at!(off + comp.offs[0]);
                                let a1 = at!(off + comp.offs[1]);
                                at!(off + comp.offs[0]) = comp.flat[0] * a0 + comp.flat[1] * a1;
                                at!(off + comp.offs[1]) = comp.flat[2] * a0 + comp.flat[3] * a1;
                            }
                            md => {
                                for (b, o) in buf[..md].iter_mut().zip(&comp.offs) {
                                    *b = at!(off + *o);
                                }
                                for (row, mrow) in comp.flat.chunks_exact(md).enumerate() {
                                    let mut acc = Complex64::ZERO;
                                    for (mc, bc) in mrow.iter().zip(&buf[..md]) {
                                        acc += *mc * *bc;
                                    }
                                    at!(off + comp.offs[row]) = acc;
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
                let pair_mask = (dim - 1) & !stride;
                for_each_subset(pair_mask, |i| {
                    if i & cmask != *cval {
                        return;
                    }
                    let a0 = at!(i);
                    let a1 = at!(i + stride);
                    at!(i) = u[0] * a0 + u[1] * a1;
                    at!(i + stride) = u[2] * a0 + u[3] * a1;
                });
            }
            // Keyed and global phases have span 1 and are always local;
            // Swap never needs a buffer either way.
            Kind::Keyed { kmask, kval, phase } => {
                for i in 0..dim {
                    if i & kmask == *kval {
                        at!(i) *= *phase;
                    }
                }
            }
            Kind::Swap { pa, pb } => {
                let (ba, bb) = (1usize << pa, 1usize << pb);
                for_each_subset((dim - 1) & !(ba | bb), |off| {
                    let i = off | ba;
                    let j = off | bb;
                    let tmp = at!(i);
                    at!(i) = at!(j);
                    at!(j) = tmp;
                });
            }
            Kind::Phase { phase } => {
                for shard in shards.iter_mut() {
                    for a in shard.iter_mut() {
                        *a *= *phase;
                    }
                }
            }
        }
    }
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
/// tile, other than a permutation, takes [`Prepared::apply_sweep`]'s
/// index-space split. The split runs scalar per-group code, so on two
/// threads a dense op (the `crossover` binary's widest-span column), a
/// controlled single-qubit gate or a keyed phase does not beat the laned
/// serial sweep below 2¹⁸ amplitudes. Permutations are the exception: a
/// 17-qubit CX ladder's fused replay took 8.4 ms with its wide ops split
/// and 13.9 ms with them serial.
const WIDE_SWEEP_FACTOR: usize = 4;

/// `true` when an op wider than a fused tile, other than a permutation,
/// should sweep `dim` amplitudes through the index-space parallel split. A
/// threshold of `0` still forces the split.
pub(crate) fn wide_sweep_parallel(dim: usize) -> bool {
    dim >= parallel_threshold().saturating_mul(WIDE_SWEEP_FACTOR)
}

#[cfg(test)]
mod tests {
    use super::*;

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
