//! Circuit-level gate fusion.
//!
//! The state-vector simulator pays one full pass over all `2^n` amplitudes
//! per gate; on the deep Trotter/QAOA/QFT circuits this workspace produces,
//! memory traffic — not arithmetic — dominates. This pass greedily merges
//! runs of adjacent gates whose supports overlap into small `k`-qubit blocks
//! (`k ≤ 4`; diagonal-only and monomial-only blocks may grow to 10 qubits,
//! and no block wider than [`MAX_DENSE_QUBITS`]` = 5` is ever densified),
//! then classifies every block into the cheapest kernel the simulator can
//! apply in a single sweep:
//!
//! * [`FusedKernel::Diagonal`] — the block is diagonal in the computational
//!   basis (phase/RZ/keyed-phase chains, and CX-ladder ∘ diagonal ∘ ladder⁻¹
//!   motifs, which stay diagonal under permutation conjugation). Applied as
//!   one table lookup per amplitude; diagonal-only blocks may grow beyond the
//!   dense window since no `2^k × 2^k` matrix is ever built.
//! * [`FusedKernel::Permutation`] — the block maps basis states to basis
//!   states up to phase (X/CX/SWAP ladders). Applied as a phased in-place
//!   shuffle, no matrix multiply.
//! * [`FusedKernel::Sparse`] — the block splits the local basis into small
//!   invariant components (two-level Givens motifs, controlled unitaries);
//!   identity components are dropped so the untouched amplitudes are never
//!   loaded, and each remaining component applies its own small block.
//! * [`FusedKernel::Dense`] — a dense `2^k × 2^k` unitary (with the control
//!   conditions of a lone multi-controlled gate kept symbolic instead of
//!   densified).
//! * [`FusedKernel::Gate`] — pass-through for gates too wide to densify
//!   (e.g. an `McX` with many controls), which already have specialized
//!   per-gate kernels in the simulator.
//!
//! Two merges are refused, so that phase separators stay table sweeps: a
//! diagonal gate never widens a block that is not monomial, and a gate that
//! is not monomial never absorbs a diagonal-only block wider than itself.
//! Merged into the H/RX blocks around them, the keyed phases of a
//! direct-method separator (paper Eq. 14) would turn each 1-qubit mixer
//! into a 3–4-qubit sparse or dense sweep of the whole state. With the
//! rule, one QAOA layer fuses into a few diagonal tables, which the
//! diagonal coalescing below fills with the whole separator, plus one
//! single-qubit op per mixer gate. Emission builds a diagonal table by
//! visiting, per keyed phase, only the `2^(w − |key|)` entries its key
//! selects, and never weighs a diagonal-only block against its split (each
//! non-identity gate alone would cost a whole table sweep).
//!
//! The pass is purely structural: it never reorders non-commuting gates. A
//! gate may only join the *latest* block touching any of its qubits; every
//! later block is support-disjoint from the gate and therefore commutes with
//! it. On top of that baseline, [`plan_fusion`] also runs the greedy scan
//! over the commutation-aware schedule of
//! [`crate::reorder::commutation_schedule`] — which bubbles structurally
//! commuting gates (disjoint supports, diagonal–diagonal, shared qubits
//! used only as Z-controls) together — and keeps whichever order yields
//! fewer blocks, so reordering can only improve the fusion ratio.

use crate::circuit::Circuit;
use crate::gate::{ControlBit, Gate};
use crate::relabel::QubitRelabeling;
use ghs_math::{CMatrix, Complex64};
use std::collections::HashMap;
use std::f64::consts::PI;

/// Widest block the pass ever densifies (`2^5 × 2^5` matrices), which
/// bounds the simulator's gather buffers: monomial blocks up to this width
/// are classified through their matrix, wider ones straight into tables.
pub const MAX_DENSE_QUBITS: usize = 5;

/// Entries with modulus below this are treated as structural zeros when a
/// fused block is classified. It is a few ulps above the cancellation noise
/// of products of unit-modulus factors, so misclassification can only occur
/// through the (always-correct) dense fallback.
const ZERO_TOL: f64 = 1e-15;

/// Tolerance on `|entry| = 1` when recognising permutation columns.
const ONE_TOL: f64 = 1e-12;

/// Largest support of a block that must be densified.
pub(crate) const DENSE_LIMIT: usize = 4;

/// Largest support of a diagonal-only block: its cost is a `2^k` phase
/// table, not a matrix, so it may exceed the dense window.
pub(crate) const DIAGONAL_LIMIT: usize = 10;

/// Largest support of a monomial-only block. A product of monomial gates
/// (X/Y/CX/SWAP/McX and everything diagonal) is a phased basis permutation,
/// representable as a `2^k` target/phase table rather than a matrix, so —
/// like diagonal chains — such blocks may exceed the dense window. This is
/// what collapses CX ladders into single table sweeps.
const MONOMIAL_LIMIT: usize = 10;

/// The specialized form of one fused operation.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedKernel {
    /// Multiply the amplitude of each basis state by `table[l]` where `l` is
    /// the local index read off the op's qubits (first qubit = most
    /// significant local bit).
    Diagonal(Vec<Complex64>),
    /// Phased basis-state shuffle: local state `l` maps to `targets[l]` with
    /// phase `phases[l]`.
    Permutation {
        /// Image of each local basis state.
        targets: Vec<u32>,
        /// Phase picked up by each local basis state.
        phases: Vec<Complex64>,
    },
    /// Dense `2^k × 2^k` unitary over the op's qubits, applied only where
    /// every control (on qubits *outside* the op's support) is satisfied.
    Dense {
        /// Control conditions factored out of the block.
        controls: Vec<ControlBit>,
        /// The residual dense matrix.
        matrix: CMatrix,
    },
    /// Block-sparse unitary: the local basis splits into invariant subsets,
    /// each carrying a small dense block; identity subsets are dropped, so
    /// amplitudes outside the listed components are never touched. This is
    /// the natural form of ladder ∘ rotation ∘ ladder⁻¹ motifs (two-level
    /// Givens rotations) and of fused controlled gates.
    Sparse {
        /// The non-identity invariant components.
        components: Vec<SparseComponent>,
    },
    /// Pass-through for gates wider than the fusion window; the simulator
    /// applies these with its specialized per-gate kernels.
    Gate(Gate),
}

/// One invariant subset of local basis states with its dense block.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseComponent {
    /// Local basis states of the component (sorted ascending).
    pub indices: Vec<u32>,
    /// The `m × m` unitary acting on those states.
    pub matrix: CMatrix,
}

/// One fused operation: a kernel plus the qubits it acts on. For
/// [`FusedKernel::Dense`] the control qubits are *not* part of `qubits`.
///
/// Emission produces sorted-ascending qubit lists, but
/// [`FusedCircuit::relabeled`] maps them element-wise — preserving the
/// local-bit order the kernel tables were built for — so relabeled supports
/// are generally **unsorted**. Simulator kernels must derive spans from the
/// maximum bit position, never from the first entry.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedOp {
    /// Support of the kernel (first qubit = most significant local bit,
    /// matching the register convention).
    pub qubits: Vec<usize>,
    /// The operation to apply.
    pub kernel: FusedKernel,
}

impl FusedOp {
    /// Short mnemonic for displays and tallies.
    pub fn kind_name(&self) -> &'static str {
        match &self.kernel {
            FusedKernel::Diagonal(_) => "diag",
            FusedKernel::Permutation { .. } => "perm",
            FusedKernel::Dense { controls, .. } if !controls.is_empty() => "ctrl-dense",
            FusedKernel::Dense { .. } => "dense",
            FusedKernel::Sparse { .. } => "sparse",
            FusedKernel::Gate(_) => "gate",
        }
    }
}

/// A circuit after fusion: an ordered list of fused operations plus one
/// accumulated global phase.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedCircuit {
    num_qubits: usize,
    source_gates: usize,
    global_phase: f64,
    ops: Vec<FusedOp>,
}

impl FusedCircuit {
    /// Register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The fused operations, in application order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of gates of the source circuit (global phases included).
    pub fn source_gates(&self) -> usize {
        self.source_gates
    }

    /// Accumulated global phase (applied once, after all ops).
    pub fn global_phase(&self) -> f64 {
        self.global_phase
    }

    /// Gates-per-op compression achieved by the pass (`1.0` when nothing
    /// fused; `source_gates / ops`).
    pub fn fusion_ratio(&self) -> f64 {
        if self.ops.is_empty() {
            1.0
        } else {
            self.source_gates as f64 / self.ops.len() as f64
        }
    }

    /// Histogram of kernel kinds (`"diag"`, `"perm"`, `"sparse"`,
    /// `"dense"`, `"ctrl-dense"`, `"gate"`).
    pub fn kind_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for op in &self.ops {
            *h.entry(op.kind_name()).or_insert(0) += 1;
        }
        h
    }

    /// The same circuit with every qubit reference mapped through a
    /// [`QubitRelabeling`]: op supports, dense-kernel controls and
    /// pass-through gates alike. Qubit lists are mapped **element-wise,
    /// preserving their order**, so every kernel table, permutation image
    /// and matrix is reused unchanged — the relabeled circuit performs
    /// bit-identical arithmetic on the permuted amplitude array. The mapped
    /// supports are generally not sorted (see [`FusedOp`]).
    ///
    /// Relabeling by `r` and then by `r.inverse()` reproduces the original
    /// circuit exactly.
    pub fn relabeled(&self, relabeling: &QubitRelabeling) -> FusedCircuit {
        let map = relabeling.as_slice();
        let ops = self
            .ops
            .iter()
            .map(|op| FusedOp {
                qubits: op.qubits.iter().map(|&q| map[q]).collect(),
                kernel: match &op.kernel {
                    FusedKernel::Dense { controls, matrix } => FusedKernel::Dense {
                        controls: controls
                            .iter()
                            .map(|c| ControlBit {
                                qubit: map[c.qubit],
                                value: c.value,
                            })
                            .collect(),
                        matrix: matrix.clone(),
                    },
                    FusedKernel::Gate(g) => FusedKernel::Gate(g.relabeled(map)),
                    other => other.clone(),
                },
            })
            .collect();
        FusedCircuit {
            num_qubits: self.num_qubits,
            source_gates: self.source_gates,
            global_phase: self.global_phase,
            ops,
        }
    }
}

impl Circuit {
    /// Runs the fusion pass: structural plan followed by numeric kernel
    /// emission (see [`plan_fusion`] and [`FusionPlan::emit`], and the
    /// module docs).
    pub fn fused(&self) -> FusedCircuit {
        plan_fusion(self).emit(self)
    }

    /// Computes only the structural half of the fusion pass; reuse it
    /// across angle rebindings via [`FusionPlan::emit`].
    pub fn fusion_plan(&self) -> FusionPlan {
        plan_fusion(self)
    }
}

// ---------------------------------------------------------------------------
// Gate normal form
// ---------------------------------------------------------------------------

/// Uniform description of a gate's action, used both to accumulate diagonal
/// tables and to embed gates into dense block matrices.
enum GateAction {
    /// Single-qubit unitary on `target`, gated on `controls` (covers plain
    /// single-qubit gates with empty controls, CX, and all `Mc*` gates).
    Controlled {
        controls: Vec<ControlBit>,
        target: usize,
        u: CMatrix,
    },
    /// Phase `e^{iθ}` on the basis states matching `key` (covers CZ).
    Keyed { key: Vec<ControlBit>, theta: f64 },
    /// Basis-state swap of two qubits.
    SwapPair { a: usize, b: usize },
    /// Global phase.
    Global(f64),
}

fn gate_action(gate: &Gate) -> GateAction {
    match gate {
        Gate::GlobalPhase(t) => GateAction::Global(*t),
        Gate::KeyedPhase { key, theta } => GateAction::Keyed {
            key: key.clone(),
            theta: *theta,
        },
        Gate::Cz { a, b } => GateAction::Keyed {
            key: vec![ControlBit::one(*a), ControlBit::one(*b)],
            theta: PI,
        },
        Gate::Swap { a, b } => GateAction::SwapPair { a: *a, b: *b },
        Gate::Cx { control, target } => GateAction::Controlled {
            controls: vec![ControlBit::one(*control)],
            target: *target,
            u: gate.base_matrix().expect("CX base matrix"),
        },
        Gate::McX { controls, target }
        | Gate::McRx {
            controls, target, ..
        }
        | Gate::McRy {
            controls, target, ..
        }
        | Gate::McRz {
            controls, target, ..
        } => GateAction::Controlled {
            controls: controls.clone(),
            target: *target,
            u: gate.base_matrix().expect("controlled base matrix"),
        },
        other => {
            let q = other.qubits()[0];
            GateAction::Controlled {
                controls: vec![],
                target: q,
                u: other.base_matrix().expect("single-qubit matrix"),
            }
        }
    }
}

/// True when the gate is diagonal in the computational basis.
pub(crate) fn is_diagonal_gate(gate: &Gate) -> bool {
    match gate {
        Gate::Z(_)
        | Gate::S(_)
        | Gate::Sdg(_)
        | Gate::T(_)
        | Gate::Tdg(_)
        | Gate::Phase { .. }
        | Gate::Rz { .. }
        | Gate::McRz { .. }
        | Gate::Cz { .. }
        | Gate::KeyedPhase { .. }
        | Gate::GlobalPhase(_) => true,
        Gate::H(_)
        | Gate::X(_)
        | Gate::Y(_)
        | Gate::Rx { .. }
        | Gate::Ry { .. }
        | Gate::Cx { .. }
        | Gate::Swap { .. }
        | Gate::McX { .. }
        | Gate::McRx { .. }
        | Gate::McRy { .. } => false,
    }
}

/// True when the gate is monomial in the computational basis: every column
/// of its matrix has exactly one non-zero (unit-modulus) entry, i.e. it maps
/// each basis state to a single phased basis state. Products of monomial
/// gates stay monomial, so monomial-only blocks classify as
/// [`FusedKernel::Permutation`] (or [`FusedKernel::Diagonal`]) no matter how
/// wide they grow.
pub(crate) fn is_monomial_gate(gate: &Gate) -> bool {
    is_diagonal_gate(gate)
        || matches!(
            gate,
            Gate::X(_) | Gate::Y(_) | Gate::Cx { .. } | Gate::Swap { .. } | Gate::McX { .. }
        )
}

// ---------------------------------------------------------------------------
// Local embedding helpers
// ---------------------------------------------------------------------------

/// Bit value of `qubit` in local basis index `l` over the sorted `support`
/// (support[0] = most significant local bit).
#[inline]
fn local_bit(l: usize, qubit: usize, support: &[usize]) -> u8 {
    let j = support
        .binary_search(&qubit)
        .expect("qubit not in block support");
    ((l >> (support.len() - 1 - j)) & 1) as u8
}

/// Local-index mask and value of the entries a key (or control list)
/// selects over the sorted `support`, resolved once per gate so that a
/// table walk tests no key bit per entry. `None` when the key asks one
/// qubit for both values and so selects nothing.
fn local_key(key: &[ControlBit], support: &[usize]) -> Option<(usize, usize)> {
    let (mut mask, mut val) = (0usize, 0usize);
    for k in key {
        let j = support
            .binary_search(&k.qubit)
            .expect("qubit not in block support");
        let bit = 1usize << (support.len() - 1 - j);
        let v = if k.value == 1 { bit } else { 0 };
        if mask & bit != 0 && val & bit != v {
            return None;
        }
        mask |= bit;
        val |= v;
    }
    Some((mask, val))
}

/// Calls `f(val | s)` for every subset `s` of the local bits outside `mask`
/// below `dim`: the entries a resolved key selects, in increasing order.
#[inline]
fn for_each_selected(dim: usize, (mask, val): (usize, usize), mut f: impl FnMut(usize)) {
    let free = (dim - 1) & !mask;
    let mut s = 0usize;
    loop {
        f(val | s);
        s = s.wrapping_sub(free) & free;
        if s == 0 {
            break;
        }
    }
}

/// Local index with the bit of `qubit` forced to `value`.
#[inline]
fn local_with_bit(l: usize, qubit: usize, support: &[usize], value: u8) -> usize {
    let j = support
        .binary_search(&qubit)
        .expect("qubit not in block support");
    let mask = 1usize << (support.len() - 1 - j);
    if value == 1 {
        l | mask
    } else {
        l & !mask
    }
}

/// Dense matrix of one gate embedded on the sorted `support` (which must
/// contain every qubit of the gate): the reference [`compose_dense`] is
/// pinned to.
#[cfg(test)]
fn local_matrix(gate: &Gate, support: &[usize]) -> CMatrix {
    let dim = 1usize << support.len();
    let mut m = CMatrix::zeros(dim, dim);
    match gate_action(gate) {
        GateAction::Global(theta) => {
            let p = Complex64::cis(theta);
            for c in 0..dim {
                m[(c, c)] = p;
            }
        }
        GateAction::Keyed { key, theta } => {
            let p = Complex64::cis(theta);
            for c in 0..dim {
                let hit = key
                    .iter()
                    .all(|k| local_bit(c, k.qubit, support) == k.value);
                m[(c, c)] = if hit { p } else { Complex64::ONE };
            }
        }
        GateAction::SwapPair { a, b } => {
            for c in 0..dim {
                let (ba, bb) = (local_bit(c, a, support), local_bit(c, b, support));
                let r = local_with_bit(local_with_bit(c, a, support, bb), b, support, ba);
                m[(r, c)] = Complex64::ONE;
            }
        }
        GateAction::Controlled {
            controls,
            target,
            u,
        } => {
            for c in 0..dim {
                let hit = controls
                    .iter()
                    .all(|k| local_bit(c, k.qubit, support) == k.value);
                if !hit {
                    m[(c, c)] = Complex64::ONE;
                    continue;
                }
                let tb = local_bit(c, target, support) as usize;
                for out in 0..2usize {
                    let r = local_with_bit(c, target, support, out as u8);
                    m[(r, c)] = u[(out, tb)];
                }
            }
        }
    }
    m
}

/// Composes one gate into the accumulated dense block `m` (indexed over the
/// sorted `support`) in place: `m ← L·m`, with `L` the gate's matrix on the
/// support. Row `r` of `L` is non-zero only in columns `r` and `r'`, its
/// partner under the target bit flip (or the swap), so each output row
/// pair is built from the same input row pair. Every entry takes
/// `CMatrix::matmul`'s arithmetic — terms in increasing column order,
/// accumulated from zero, zero coefficients skipped — so the block is
/// bit-identical to the dense product.
fn compose_dense(gate: &Gate, support: &[usize], m: &mut CMatrix) {
    let dim = m.rows();
    let (zero, one) = (Complex64::ZERO, Complex64::ONE);
    match gate_action(gate) {
        GateAction::Global(theta) => {
            let p = Complex64::cis(theta);
            for r in 0..dim {
                scale_row(m, r, p);
            }
        }
        GateAction::Keyed { key, theta } => {
            let p = Complex64::cis(theta);
            for r in 0..dim {
                let hit = key
                    .iter()
                    .all(|k| local_bit(r, k.qubit, support) == k.value);
                scale_row(m, r, if hit { p } else { one });
            }
        }
        GateAction::SwapPair { a, b } => {
            for r in 0..dim {
                let (ba, bb) = (local_bit(r, a, support), local_bit(r, b, support));
                let s = local_with_bit(local_with_bit(r, a, support, bb), b, support, ba);
                if s == r {
                    scale_row(m, r, one);
                } else if r < s {
                    mix_rows(m, r, s, [[zero, one], [one, zero]]);
                }
            }
        }
        GateAction::Controlled {
            controls,
            target,
            u,
        } => {
            let hit_u = [[u[(0, 0)], u[(0, 1)]], [u[(1, 0)], u[(1, 1)]]];
            let miss_u = [[one, zero], [zero, one]];
            for r in 0..dim {
                if local_bit(r, target, support) == 1 {
                    continue;
                }
                let hit = controls
                    .iter()
                    .all(|k| local_bit(r, k.qubit, support) == k.value);
                let r1 = local_with_bit(r, target, support, 1);
                mix_rows(m, r, r1, if hit { hit_u } else { miss_u });
            }
        }
    }
}

/// One product term of a `CMatrix::matmul` entry: `acc += k·x`, skipped
/// when the coefficient `k` is zero.
#[inline]
fn add_term(acc: &mut Complex64, k: Complex64, x: Complex64) {
    if k.norm_sqr() != 0.0 {
        *acc += k * x;
    }
}

/// Replaces row `r` of `m` by `d · row r`.
fn scale_row(m: &mut CMatrix, r: usize, d: Complex64) {
    let dim = m.cols();
    for x in &mut m.data_mut()[r * dim..(r + 1) * dim] {
        let mut acc = Complex64::ZERO;
        add_term(&mut acc, d, *x);
        *x = acc;
    }
}

/// Replaces rows `lo < hi` of `m` by `c · [row lo; row hi]`.
fn mix_rows(m: &mut CMatrix, lo: usize, hi: usize, c: [[Complex64; 2]; 2]) {
    let dim = m.cols();
    let (head, tail) = m.data_mut().split_at_mut(hi * dim);
    for (a, b) in head[lo * dim..(lo + 1) * dim]
        .iter_mut()
        .zip(&mut tail[..dim])
    {
        let (x0, x1) = (*a, *b);
        let (mut y0, mut y1) = (Complex64::ZERO, Complex64::ZERO);
        add_term(&mut y0, c[0][0], x0);
        add_term(&mut y0, c[0][1], x1);
        add_term(&mut y1, c[1][0], x0);
        add_term(&mut y1, c[1][1], x1);
        (*a, *b) = (y0, y1);
    }
}

/// Multiplies the diagonal phase of one diagonal gate into `table` (indexed
/// over the sorted `support`). A keyed phase or controlled diagonal visits
/// only the `2^(w − |key|)` entries its key selects, through the key's local
/// mask; each visited entry takes the same single multiply as in
/// `accumulate_diagonal_per_entry`, the test oracle, so the tables are
/// bit-identical.
fn accumulate_diagonal(gate: &Gate, support: &[usize], table: &mut [Complex64]) {
    match gate_action(gate) {
        GateAction::Global(theta) => {
            let p = Complex64::cis(theta);
            for t in table.iter_mut() {
                *t *= p;
            }
        }
        GateAction::Keyed { key, theta } => {
            let p = Complex64::cis(theta);
            if let Some(sel) = local_key(&key, support) {
                for_each_selected(table.len(), sel, |l| table[l] *= p);
            }
        }
        GateAction::Controlled {
            controls,
            target,
            u,
        } => {
            // Only reached for diagonal `u` (Z/S/T/Phase/RZ families).
            let tbit = local_with_bit(0, target, support, 1);
            let (u0, u1) = (u[(0, 0)], u[(1, 1)]);
            if let Some(sel) = local_key(&controls, support) {
                for_each_selected(table.len(), sel, |l| {
                    table[l] *= if l & tbit == 0 { u0 } else { u1 };
                });
            }
        }
        GateAction::SwapPair { .. } => unreachable!("SWAP is not diagonal"),
    }
}

/// [`accumulate_diagonal`] one entry at a time, every entry testing every
/// key bit through [`local_bit`]: the oracle its masked walk is pinned to.
#[cfg(test)]
fn accumulate_diagonal_per_entry(gate: &Gate, support: &[usize], table: &mut [Complex64]) {
    match gate_action(gate) {
        GateAction::Global(theta) => {
            let p = Complex64::cis(theta);
            for t in table.iter_mut() {
                *t *= p;
            }
        }
        GateAction::Keyed { key, theta } => {
            let p = Complex64::cis(theta);
            for (l, t) in table.iter_mut().enumerate() {
                if key
                    .iter()
                    .all(|k| local_bit(l, k.qubit, support) == k.value)
                {
                    *t *= p;
                }
            }
        }
        GateAction::Controlled {
            controls,
            target,
            u,
        } => {
            for (l, t) in table.iter_mut().enumerate() {
                if controls
                    .iter()
                    .all(|k| local_bit(l, k.qubit, support) == k.value)
                {
                    let tb = local_bit(l, target, support) as usize;
                    *t *= u[(tb, tb)];
                }
            }
        }
        GateAction::SwapPair { .. } => unreachable!("SWAP is not diagonal"),
    }
}

/// Composes one monomial gate into an accumulated phased-permutation table
/// (indexed over the sorted `support`): local state `l` currently maps to
/// `targets[l]` with phase `phases[l]`; the gate then maps basis state
/// `targets[l]` to a single basis state with a unit phase factor.
fn accumulate_monomial(
    gate: &Gate,
    support: &[usize],
    targets: &mut [u32],
    phases: &mut [Complex64],
) {
    match gate_action(gate) {
        GateAction::Global(theta) => {
            let p = Complex64::cis(theta);
            for ph in phases.iter_mut() {
                *ph *= p;
            }
        }
        GateAction::Keyed { key, theta } => {
            let p = Complex64::cis(theta);
            if let Some((mask, val)) = local_key(&key, support) {
                for (t, ph) in targets.iter().zip(phases.iter_mut()) {
                    if *t as usize & mask == val {
                        *ph *= p;
                    }
                }
            }
        }
        GateAction::SwapPair { a, b } => {
            for t in targets.iter_mut() {
                let l = *t as usize;
                let (ba, bb) = (local_bit(l, a, support), local_bit(l, b, support));
                *t = local_with_bit(local_with_bit(l, a, support, bb), b, support, ba) as u32;
            }
        }
        GateAction::Controlled {
            controls,
            target,
            u,
        } => {
            // A monomial 2×2 is diagonal or antidiagonal; unit-modulus
            // entries make the norm test robust.
            let antidiag = u[(0, 0)].norm_sqr() < 0.5;
            for (t, ph) in targets.iter_mut().zip(phases.iter_mut()) {
                let l = *t as usize;
                if !controls
                    .iter()
                    .all(|k| local_bit(l, k.qubit, support) == k.value)
                {
                    continue;
                }
                let tb = local_bit(l, target, support) as usize;
                if antidiag {
                    *t = local_with_bit(l, target, support, 1 - tb as u8) as u32;
                    *ph *= u[(1 - tb, tb)];
                } else {
                    *ph *= u[(tb, tb)];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block classification
// ---------------------------------------------------------------------------

fn is_identity_diag(table: &[Complex64]) -> bool {
    table.iter().all(|t| *t == Complex64::ONE)
}

/// Tries to read the matrix as a diagonal.
fn try_diagonal(m: &CMatrix) -> Option<Vec<Complex64>> {
    let dim = m.rows();
    for r in 0..dim {
        for c in 0..dim {
            if r != c && m[(r, c)].abs() > ZERO_TOL {
                return None;
            }
        }
    }
    Some((0..dim).map(|d| m[(d, d)]).collect())
}

/// Tries to read the matrix as a phased permutation.
fn try_permutation(m: &CMatrix) -> Option<(Vec<u32>, Vec<Complex64>)> {
    let dim = m.rows();
    let mut targets = vec![0u32; dim];
    let mut phases = vec![Complex64::ZERO; dim];
    let mut seen = vec![false; dim];
    for c in 0..dim {
        let mut hit: Option<usize> = None;
        for r in 0..dim {
            let mag = m[(r, c)].abs();
            if mag > ZERO_TOL {
                if hit.is_some() || (mag - 1.0).abs() > ONE_TOL {
                    return None;
                }
                hit = Some(r);
            }
        }
        let r = hit?;
        if seen[r] {
            return None;
        }
        seen[r] = true;
        targets[c] = r as u32;
        phases[c] = m[(r, c)];
    }
    Some((targets, phases))
}

/// Splits the local basis into invariant components of the unitary: `r` and
/// `c` belong to the same component when `m[r,c]` or `m[c,r]` is non-zero.
/// Identity singletons are dropped; each remaining component carries its
/// restricted sub-matrix. This subsumes control extraction — for a
/// controlled unitary, every basis state failing a control is an identity
/// singleton — and is finer: it exposes the two-level (Givens) structure of
/// ladder ∘ rotation ∘ ladder⁻¹ motifs directly.
fn sparse_components(m: &CMatrix) -> Vec<SparseComponent> {
    let dim = m.rows();
    let mut comp_id = vec![usize::MAX; dim];
    let mut members_of: Vec<Vec<usize>> = Vec::new();
    for s in 0..dim {
        if comp_id[s] != usize::MAX {
            continue;
        }
        let id = members_of.len();
        comp_id[s] = id;
        let mut stack = vec![s];
        let mut members = vec![s];
        while let Some(c) = stack.pop() {
            for r in 0..dim {
                if comp_id[r] == usize::MAX
                    && (m[(r, c)].abs() > ZERO_TOL || m[(c, r)].abs() > ZERO_TOL)
                {
                    comp_id[r] = id;
                    stack.push(r);
                    members.push(r);
                }
            }
        }
        members.sort_unstable();
        members_of.push(members);
    }
    members_of
        .into_iter()
        .filter_map(|members| {
            if members.len() == 1 {
                let v = m[(members[0], members[0])];
                if v == Complex64::ONE {
                    return None; // untouched amplitude
                }
            }
            let md = members.len();
            let mut sub = CMatrix::zeros(md, md);
            for (ri, &r) in members.iter().enumerate() {
                for (ci, &c) in members.iter().enumerate() {
                    sub[(ri, ci)] = m[(r, c)];
                }
            }
            Some(SparseComponent {
                indices: members.into_iter().map(|i| i as u32).collect(),
                matrix: sub,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The fusion pass
// ---------------------------------------------------------------------------

/// One block of the structural fusion plan: the (sorted) support and the
/// indices of the source gates it absorbs. `passthrough` blocks hold a
/// single wide gate kept as-is.
#[derive(Clone, Debug, PartialEq)]
struct PlanBlock {
    support: Vec<usize>, // sorted ascending
    gates: Vec<usize>,   // indices into the source circuit's gate list
    diagonal_only: bool,
    monomial_only: bool,
    passthrough: bool,
}

/// The structural half of the fusion pass: which gates merge into which
/// blocks, on which supports.
///
/// The plan depends only on each gate's *support* and *diagonality* — never
/// on its numeric angles — so it can be computed once for a circuit template
/// and reused across angle rebindings ([`crate::ParameterizedCircuit`]
/// does exactly this): [`FusionPlan::emit`] re-runs only the cheap numeric
/// classification (tables / matrices) against the freshly bound gates,
/// skipping the greedy merge scan.
#[derive(Clone, Debug, PartialEq)]
pub struct FusionPlan {
    num_qubits: usize,
    num_gates: usize,
    blocks: Vec<PlanBlock>,
}

impl FusionPlan {
    /// Register size of the planned circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Gate count of the planned circuit (global phases included).
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Number of planned blocks (the fused op count before identity blocks
    /// are dropped at emission).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Emits the fused circuit for `circuit` under this plan: every block is
    /// numerically classified into its cheapest kernel against the circuit's
    /// *current* gate angles.
    ///
    /// `circuit` must be structurally identical to the circuit the plan was
    /// computed from (same gate kinds on the same qubits, in the same order);
    /// only the continuous angles may differ. Violating this yields a
    /// nonsense fusion, so the gate count is asserted as a cheap guard.
    pub fn emit(&self, circuit: &Circuit) -> FusedCircuit {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "plan/circuit register mismatch"
        );
        assert_eq!(
            circuit.len(),
            self.num_gates,
            "plan/circuit gate count mismatch"
        );
        let gates = circuit.gates();
        let global_phase = gates
            .iter()
            .filter_map(|g| match g {
                Gate::GlobalPhase(t) => Some(*t),
                _ => None,
            })
            .sum();
        let ops = self
            .blocks
            .iter()
            .flat_map(|b| self.refined_ops(b, gates))
            .collect();
        FusedCircuit {
            num_qubits: self.num_qubits,
            source_gates: self.num_gates,
            global_phase,
            ops,
        }
    }

    /// Emits one block, then compares the emitted kernel's estimated
    /// execution cost against running the block's gates standalone and
    /// keeps whichever is cheaper. A wide dense block multiplies the
    /// per-amplitude work of every sweep over it, so a merge that looked
    /// structurally fine can still lose to a handful of cheap per-gate
    /// kernels; the comparison happens here because the true kernel
    /// class (diagonal / permutation / sparse / dense) is only known after
    /// numeric classification. Both sides of the split are deterministic
    /// functions of the block and the bound gates, so plan reuse across
    /// angle rebindings stays consistent with a fresh fusion.
    fn refined_ops(&self, b: &PlanBlock, gates: &[Gate]) -> Vec<FusedOp> {
        let Some(op) = emit_block(b, gates) else {
            return Vec::new();
        };
        // A diagonal-only block never splits: each non-identity single is a
        // table sweep of cost 1.0, as much as the whole block's table.
        if b.gates.len() <= 1 || b.diagonal_only {
            return vec![op];
        }
        let singles: Vec<FusedOp> = b
            .gates
            .iter()
            .filter_map(|&gi| {
                let g = &gates[gi];
                emit_block(
                    &PlanBlock {
                        support: sorted_support(g),
                        gates: vec![gi],
                        diagonal_only: is_diagonal_gate(g),
                        monomial_only: is_monomial_gate(g),
                        passthrough: false,
                    },
                    gates,
                )
            })
            .collect();
        let split_cost: f64 = singles.iter().map(kernel_cost).sum::<f64>()
            + SWEEP_OVERHEAD * singles.len().saturating_sub(1) as f64;
        if kernel_cost(&op) > split_cost {
            singles
        } else {
            vec![op]
        }
    }
}

/// Estimated per-amplitude execution cost of one emitted kernel, in units of
/// a single diagonal sweep, calibrated against the state-vector kernel
/// profile. Diagonal and permutation kernels stream phases/moves (~1); a
/// dense `2^k × 2^k` multiply costs one complex multiply per matrix row per
/// amplitude, with a ~1.4× gather/scatter overhead on the wide laned paths;
/// sparse components pay the same per component over the block's span, and
/// controls scale the touched fraction of the space.
fn kernel_cost(op: &FusedOp) -> f64 {
    match &op.kernel {
        FusedKernel::Diagonal(_) => 1.0,
        FusedKernel::Permutation { .. } => 1.0,
        FusedKernel::Dense { controls, matrix } => {
            if matrix.rows() == 2 {
                // Lowered to the specialized pair-sweep kernel, which runs
                // close to one diagonal sweep (measured ~1.1 uncontrolled;
                // controls mask off half the pairs per control bit).
                return 1.1 / (1usize << controls.len()) as f64;
            }
            let kdim = matrix.rows() as f64;
            1.4 * kdim / (1usize << controls.len()) as f64
        }
        FusedKernel::Sparse { components } => {
            let span = (1usize << op.qubits.len()) as f64;
            components
                .iter()
                .map(|c| {
                    let m = c.indices.len() as f64;
                    m * m * if c.indices.len() > 2 { 1.4 } else { 1.0 }
                })
                .sum::<f64>()
                / span
        }
        FusedKernel::Gate(_) => 2.0,
    }
}

/// Fixed per-op cost of one extra sweep over the state (amplitude streaming
/// plus dispatch), in [`kernel_cost`] units. Biases refinement toward
/// keeping blocks fused when splitting is a wash.
const SWEEP_OVERHEAD: f64 = 0.4;

fn sorted_support(gate: &Gate) -> Vec<usize> {
    let mut q = gate.qubits();
    q.sort_unstable();
    q
}

fn union_size(a: &[usize], b: &[usize]) -> usize {
    let mut n = a.len();
    for q in b {
        if a.binary_search(q).is_err() {
            n += 1;
        }
    }
    n
}

fn merge_support(a: &mut Vec<usize>, b: &[usize]) {
    for q in b {
        if let Err(i) = a.binary_search(q) {
            a.insert(i, *q);
        }
    }
}

/// Computes the structural fusion plan of a circuit: the greedy merge scan
/// over both the source order and the commutation-aware schedule of
/// [`crate::reorder::commutation_schedule`], keeping whichever yields fewer
/// blocks (ties go to the source order), so the reordering pass can only
/// improve the fusion ratio. See [`FusionPlan`].
pub fn plan_fusion(circuit: &Circuit) -> FusionPlan {
    let in_order = plan_fusion_in_order(circuit);
    let order = crate::reorder::commutation_schedule(circuit);
    if order.iter().copied().eq(0..circuit.len()) {
        return in_order;
    }
    let scheduled = plan_scan(circuit, &order);
    if scheduled.blocks.len() < in_order.blocks.len() {
        scheduled
    } else {
        in_order
    }
}

/// The greedy merge scan in pure source order, without the commutation-aware
/// reordering pass. This is the baseline [`plan_fusion`] never does worse
/// than; it is public so benchmarks and the reordering property suite can
/// compare the two.
pub fn plan_fusion_in_order(circuit: &Circuit) -> FusionPlan {
    let order: Vec<usize> = (0..circuit.len()).collect();
    plan_scan(circuit, &order)
}

/// The greedy merge scan over an explicit gate execution order (a
/// permutation of gate indices that must be a valid linear extension of the
/// circuit's commutation DAG). Block gate lists hold *source* indices in
/// scheduled order, so [`FusionPlan::emit`] and angle rebinding work
/// unchanged.
fn plan_scan(circuit: &Circuit, order: &[usize]) -> FusionPlan {
    let gates = circuit.gates();

    let mut blocks: Vec<PlanBlock> = Vec::new();
    // Latest block index touching each qubit.
    let mut last_block: HashMap<usize, usize> = HashMap::new();

    for &gi in order {
        let gate = &gates[gi];
        if matches!(gate, Gate::GlobalPhase(_)) {
            // Accumulated at emission time straight from the gate list.
            continue;
        }
        let gq = sorted_support(gate);
        let diag = is_diagonal_gate(gate);
        let mono = is_monomial_gate(gate);
        let fusible_alone = if diag {
            gq.len() <= DIAGONAL_LIMIT
        } else if mono {
            gq.len() <= MONOMIAL_LIMIT
        } else {
            gq.len() <= DENSE_LIMIT
        };

        // The default merge target: the latest block touching any of the
        // gate's qubits (all later blocks are support-disjoint from it).
        let target = gq.iter().filter_map(|q| last_block.get(q).copied()).max();

        let try_merge = |blocks: &mut Vec<PlanBlock>,
                         last_block: &mut HashMap<usize, usize>,
                         ti: usize,
                         require_diagonal: bool|
         -> bool {
            let block = &mut blocks[ti];
            if block.passthrough {
                return false;
            }
            if require_diagonal && !block.diagonal_only {
                return false;
            }
            let union = union_size(&block.support, &gq);
            // Phase separators stay diagonal tables: a diagonal gate never
            // widens a block that is not monomial, and a gate that is not
            // monomial never absorbs a diagonal-only block wider than
            // itself. Either merge would turn a table sweep plus a 1-qubit
            // mixer into a 3–4-qubit sparse or dense sweep.
            if diag && !block.monomial_only && union > block.support.len() {
                return false;
            }
            if !mono && block.diagonal_only && block.support.len() > gq.len() {
                return false;
            }
            let fits = if block.diagonal_only && diag {
                union <= DIAGONAL_LIMIT
            } else if block.monomial_only && mono {
                union <= MONOMIAL_LIMIT
            } else {
                union <= DENSE_LIMIT
            };
            if !fits {
                return false;
            }
            block.gates.push(gi);
            block.diagonal_only = block.diagonal_only && diag;
            block.monomial_only = block.monomial_only && mono;
            merge_support(&mut block.support, &gq);
            for q in &gq {
                last_block.insert(*q, ti);
            }
            true
        };

        let mut merged = false;
        if fusible_alone {
            if let Some(ti) = target {
                merged = try_merge(&mut blocks, &mut last_block, ti, false);
            }
            // Diagonal coalescing: a diagonal gate commutes with every other
            // diagonal, so it may also join the *newest* block (nothing is
            // ever emitted after it) when that block is diagonal-only — even
            // with disjoint support. This folds whole phase-separator /
            // RZ-sweep layers into a single table sweep.
            if !merged && diag && !blocks.is_empty() {
                let li = blocks.len() - 1;
                if Some(li) != target {
                    merged = try_merge(&mut blocks, &mut last_block, li, true);
                }
            }
        }
        if !merged {
            let idx = blocks.len();
            for q in &gq {
                last_block.insert(*q, idx);
            }
            blocks.push(PlanBlock {
                support: gq,
                gates: vec![gi],
                diagonal_only: diag,
                monomial_only: mono,
                passthrough: !fusible_alone,
            });
        }
    }

    FusionPlan {
        num_qubits: circuit.num_qubits(),
        num_gates: circuit.len(),
        blocks,
    }
}

/// Classifies one planned block into its cheapest kernel against the source
/// gate list. Returns `None` for blocks that reduce to the identity.
fn emit_block(block: &PlanBlock, all_gates: &[Gate]) -> Option<FusedOp> {
    let support = block.support.clone();
    let gates = block.gates.iter().map(|&gi| &all_gates[gi]);
    if block.passthrough {
        let gate = block.gates.first().map(|&gi| all_gates[gi].clone())?;
        return Some(FusedOp {
            qubits: support,
            kernel: FusedKernel::Gate(gate),
        });
    }
    if block.diagonal_only {
        let mut table = vec![Complex64::ONE; 1usize << support.len()];
        for g in gates {
            accumulate_diagonal(g, &support, &mut table);
        }
        if is_identity_diag(&table) {
            return None;
        }
        return Some(FusedOp {
            qubits: support,
            kernel: FusedKernel::Diagonal(table),
        });
    }
    // Wide monomial blocks (reachable only through the monomial window) are
    // accumulated as a phased-permutation table — one `2^k` walk per gate —
    // instead of densifying: a 10-qubit block would otherwise build a
    // 1024×1024 matrix. Blocks inside the dense ceiling keep the matrix
    // path, so their numeric classification is unchanged.
    if block.monomial_only && support.len() > MAX_DENSE_QUBITS {
        let dim = 1usize << support.len();
        let mut targets: Vec<u32> = (0..dim as u32).collect();
        let mut phases = vec![Complex64::ONE; dim];
        for g in gates {
            accumulate_monomial(g, &support, &mut targets, &mut phases);
        }
        if targets.iter().enumerate().all(|(l, t)| *t as usize == l) {
            if is_identity_diag(&phases) {
                return None;
            }
            return Some(FusedOp {
                qubits: support,
                kernel: FusedKernel::Diagonal(phases),
            });
        }
        return Some(FusedOp {
            qubits: support,
            kernel: FusedKernel::Permutation { targets, phases },
        });
    }
    // Shortcut: a lone controlled single-qubit gate needs no dense block at
    // all.
    if block.gates.len() == 1 {
        if let GateAction::Controlled {
            controls,
            target,
            u,
        } = gate_action(&all_gates[block.gates[0]])
        {
            return Some(FusedOp {
                qubits: vec![target],
                kernel: FusedKernel::Dense {
                    controls,
                    matrix: u,
                },
            });
        }
    }
    let dim = 1usize << support.len();
    let mut m = CMatrix::identity(dim);
    for g in gates {
        compose_dense(g, &support, &mut m);
    }
    if let Some(table) = try_diagonal(&m) {
        if is_identity_diag(&table) {
            return None;
        }
        return Some(FusedOp {
            qubits: support,
            kernel: FusedKernel::Diagonal(table),
        });
    }
    if let Some((targets, phases)) = try_permutation(&m) {
        return Some(FusedOp {
            qubits: support,
            kernel: FusedKernel::Permutation { targets, phases },
        });
    }
    let components = sparse_components(&m);
    if components.is_empty() {
        return None; // exact identity
    }
    // Sparse pays off when the component blocks are markedly smaller than
    // the full matrix; otherwise the dense gather kernel has less
    // bookkeeping.
    let work: usize = components
        .iter()
        .map(|c| c.indices.len() * c.indices.len())
        .sum();
    if work * 2 > dim * dim {
        return Some(FusedOp {
            qubits: support,
            kernel: FusedKernel::Dense {
                controls: vec![],
                matrix: m,
            },
        });
    }
    Some(FusedOp {
        qubits: support,
        kernel: FusedKernel::Sparse { components },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_chain_fuses_to_one_table() {
        let mut c = Circuit::new(6);
        c.rz(0, 0.3)
            .p(1, 0.5)
            .cz(0, 1)
            .cp(2, 3, 0.7)
            .s(4)
            .push(Gate::T(5));
        c.keyed_z(vec![ControlBit::one(0), ControlBit::zero(5)]);
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        assert!(matches!(f.ops()[0].kernel, FusedKernel::Diagonal(_)));
        assert_eq!(f.ops()[0].qubits, vec![0, 1, 2, 3, 4, 5]);
        assert!(f.fusion_ratio() > 6.9);
    }

    #[test]
    fn cx_ladder_fuses_to_permutation() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).x(0);
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        assert!(matches!(f.ops()[0].kernel, FusedKernel::Permutation { .. }));
    }

    #[test]
    fn ladder_conjugated_rotation_stays_diagonal() {
        // CX-ladder ∘ RZ ∘ ladder⁻¹ is diagonal in the computational basis.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).rz(2, 0.9).cx(1, 2).cx(0, 1);
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        assert!(matches!(f.ops()[0].kernel, FusedKernel::Diagonal(_)));
    }

    #[test]
    fn identity_blocks_are_dropped() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1).rz(0, 0.4).rz(0, -0.4);
        let f = c.fused();
        // CX·CX = I is a permutation with identity targets and exact unit
        // phases; RZ(θ)·RZ(−θ) is an exactly-one diagonal.
        assert!(f.ops().len() <= 1);
        for op in f.ops() {
            match &op.kernel {
                FusedKernel::Permutation { targets, phases } => {
                    assert!(targets.iter().enumerate().all(|(i, t)| *t as usize == i));
                    assert!(phases.iter().all(|p| (*p - Complex64::ONE).abs() < 1e-12));
                }
                FusedKernel::Diagonal(t) => {
                    assert!(t.iter().all(|p| (*p - Complex64::ONE).abs() < 1e-12));
                }
                other => panic!("unexpected kernel {other:?}"),
            }
        }
    }

    #[test]
    fn controls_are_extracted_from_dense_blocks() {
        // A lone multi-controlled RY keeps its control structure instead of a
        // dense 2^3 block.
        let mut c = Circuit::new(3);
        c.mcry(vec![ControlBit::one(0), ControlBit::zero(1)], 2, 0.7);
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        match &f.ops()[0].kernel {
            FusedKernel::Dense { controls, matrix } => {
                assert_eq!(controls.len(), 2);
                assert_eq!(matrix.rows(), 2);
                assert_eq!(f.ops()[0].qubits, vec![2]);
            }
            other => panic!("unexpected kernel {other:?}"),
        }
    }

    #[test]
    fn fused_cx_pair_with_common_control_extracts_control() {
        // CX(0,1) · CX(0,2): qubit 0 is a pure control of the fused block —
        // but the block is also a permutation, which is preferred.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(0, 2);
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        assert!(matches!(f.ops()[0].kernel, FusedKernel::Permutation { .. }));
    }

    #[test]
    fn wide_multicontrol_is_passthrough() {
        // A wide *general* controlled rotation exceeds the dense window and
        // is not monomial, so it stays a passthrough gate.
        let mut c = Circuit::new(8);
        c.push(Gate::McRx {
            controls: (0..7).map(ControlBit::one).collect(),
            target: 7,
            theta: 0.4,
        });
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        assert!(matches!(f.ops()[0].kernel, FusedKernel::Gate(_)));
    }

    #[test]
    fn wide_mcx_fuses_to_permutation_table() {
        // McX is monomial, so even an 8-qubit instance fits the monomial
        // window and classifies as a (nearly-identity) permutation table.
        let mut c = Circuit::new(8);
        c.mcx((0..7).map(ControlBit::one).collect(), 7);
        let f = c.fused();
        assert_eq!(f.ops().len(), 1);
        match &f.ops()[0].kernel {
            FusedKernel::Permutation { targets, phases } => {
                assert_eq!(targets.len(), 256);
                // Exactly the two all-ones-controls states swap.
                assert_eq!(targets[254], 255);
                assert_eq!(targets[255], 254);
                assert!((0..254).all(|l| targets[l] as usize == l));
                assert!(phases.iter().all(|p| *p == Complex64::ONE));
            }
            k => panic!("expected permutation, got {k:?}"),
        }
    }

    #[test]
    fn global_phases_accumulate() {
        let mut c = Circuit::new(1);
        c.global_phase(0.25).h(0).global_phase(0.5);
        let f = c.fused();
        assert!((f.global_phase() - 0.75).abs() < 1e-15);
        assert_eq!(f.ops().len(), 1);
    }

    #[test]
    fn ordering_is_preserved_across_disjoint_blocks() {
        // CX(0,1), CX(2,3), CX(1,2): the third gate may not merge past the
        // second block into the first.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2);
        let f = c.fused();
        // CX(1,2) joins the *latest* block touching its qubits, CX(2,3)'s,
        // and never the first one, which would reorder it before CX(2,3).
        assert_eq!(f.ops().len(), 2);
        assert_eq!(f.ops()[1].qubits, [1, 2, 3]);
        assert_eq!(f.source_gates(), 3);
    }

    /// SplitMix64: a fixed, dependency-free random stream for the
    /// composition property test.
    struct SplitMix(u64);

    impl SplitMix {
        fn pick(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn control(&mut self, qubits: &[usize]) -> ControlBit {
            ControlBit {
                qubit: qubits[self.pick(qubits.len())],
                value: self.pick(2) as u8,
            }
        }
    }

    /// Random gate over qubits drawn from `support` (in any order), covering
    /// every `GateAction` shape: global phases, keyed phases (repeated key
    /// qubits, hence contradictory keys, included), swaps, X/Y (zero
    /// entries), rotations at angle 0 (zero off-diagonals) and 0–2 controls
    /// of either value (repeats included).
    fn random_action_gate(support: &[usize], rng: &mut SplitMix) -> Gate {
        let q = support[rng.pick(support.len())];
        let theta = match rng.pick(4) {
            0 => 0.0,
            1 => PI,
            _ => (rng.pick(1 << 20) as f64 / (1 << 20) as f64 - 0.5) * 4.0 * PI,
        };
        let others: Vec<usize> = support.iter().copied().filter(|&o| o != q).collect();
        match rng.pick(8) {
            0 => Gate::GlobalPhase(theta),
            1 => Gate::KeyedPhase {
                key: (0..1 + rng.pick(3)).map(|_| rng.control(support)).collect(),
                theta,
            },
            2 if !others.is_empty() => Gate::Swap {
                a: q,
                b: others[rng.pick(others.len())],
            },
            3 if !others.is_empty() => Gate::Cx {
                control: others[rng.pick(others.len())],
                target: q,
            },
            4 if !others.is_empty() => Gate::Cz {
                a: others[rng.pick(others.len())],
                b: q,
            },
            5 => {
                let controls: Vec<ControlBit> = if others.is_empty() {
                    Vec::new()
                } else {
                    (0..rng.pick(3)).map(|_| rng.control(&others)).collect()
                };
                match rng.pick(4) {
                    0 => Gate::McX {
                        controls,
                        target: q,
                    },
                    1 => Gate::McRx {
                        controls,
                        target: q,
                        theta,
                    },
                    2 => Gate::McRy {
                        controls,
                        target: q,
                        theta,
                    },
                    _ => Gate::McRz {
                        controls,
                        target: q,
                        theta,
                    },
                }
            }
            _ => match rng.pick(12) {
                0 => Gate::H(q),
                1 => Gate::X(q),
                2 => Gate::Y(q),
                3 => Gate::Z(q),
                4 => Gate::S(q),
                5 => Gate::Sdg(q),
                6 => Gate::T(q),
                7 => Gate::Tdg(q),
                8 => Gate::Phase { qubit: q, theta },
                9 => Gate::Rx { qubit: q, theta },
                10 => Gate::Ry { qubit: q, theta },
                _ => Gate::Rz { qubit: q, theta },
            },
        }
    }

    #[test]
    fn in_place_composition_is_bit_identical_to_the_dense_product() {
        let mut rng = SplitMix(0x1234_5678_9abc_def0);
        for case in 0..1500 {
            // A sparse support: 1–4 distinct qubits of a 12-qubit register,
            // which the gates address in random order.
            let k = 1 + rng.pick(4);
            let mut support: Vec<usize> = Vec::new();
            while support.len() < k {
                let q = rng.pick(12);
                if !support.contains(&q) {
                    support.push(q);
                }
            }
            let gates: Vec<Gate> = (0..1 + rng.pick(12))
                .map(|_| random_action_gate(&support, &mut rng))
                .collect();
            support.sort_unstable();
            let dim = 1usize << k;
            let mut product = CMatrix::identity(dim);
            let mut composed = CMatrix::identity(dim);
            for (gi, g) in gates.iter().enumerate() {
                product = local_matrix(g, &support).matmul(&product);
                compose_dense(g, &support, &mut composed);
                for (e, (p, c)) in product.data().iter().zip(composed.data()).enumerate() {
                    assert_eq!(
                        (p.re.to_bits(), p.im.to_bits()),
                        (c.re.to_bits(), c.im.to_bits()),
                        "case {case}, gate {gi} ({g:?}) on {support:?}: entry {e}"
                    );
                }
            }
        }
    }

    /// Random diagonal gate over qubits drawn from `support`: keyed phases
    /// (repeated and contradictory keys included), global phases and the
    /// controlled diagonal families with 0–2 controls of either value.
    fn random_diagonal_gate(support: &[usize], rng: &mut SplitMix) -> Gate {
        let q = support[rng.pick(support.len())];
        let theta = (rng.pick(1 << 20) as f64 / (1 << 20) as f64 - 0.5) * 4.0 * PI;
        let others: Vec<usize> = support.iter().copied().filter(|&o| o != q).collect();
        match rng.pick(7) {
            0 => Gate::GlobalPhase(theta),
            1 | 2 => Gate::KeyedPhase {
                key: (0..1 + rng.pick(4)).map(|_| rng.control(support)).collect(),
                theta,
            },
            3 if !others.is_empty() => Gate::Cz {
                a: others[rng.pick(others.len())],
                b: q,
            },
            4 if !others.is_empty() => Gate::McRz {
                controls: (0..rng.pick(3)).map(|_| rng.control(&others)).collect(),
                target: q,
                theta,
            },
            5 => Gate::Phase { qubit: q, theta },
            _ => match rng.pick(4) {
                0 => Gate::T(q),
                1 => Gate::S(q),
                2 => Gate::Z(q),
                _ => Gate::Rz { qubit: q, theta },
            },
        }
    }

    #[test]
    fn masked_diagonal_walk_is_bit_identical_to_the_per_entry_walk() {
        let mut rng = SplitMix(0x0dd_ba11_5eed);
        for case in 0..400 {
            // 1–10 distinct qubits of a 14-qubit register.
            let k = 1 + rng.pick(10);
            let mut support: Vec<usize> = Vec::new();
            while support.len() < k {
                let q = rng.pick(14);
                if !support.contains(&q) {
                    support.push(q);
                }
            }
            let gates: Vec<Gate> = (0..1 + rng.pick(16))
                .map(|_| random_diagonal_gate(&support, &mut rng))
                .collect();
            support.sort_unstable();
            let mut masked = vec![Complex64::ONE; 1 << k];
            let mut per_entry = masked.clone();
            for (gi, g) in gates.iter().enumerate() {
                accumulate_diagonal(g, &support, &mut masked);
                accumulate_diagonal_per_entry(g, &support, &mut per_entry);
                for (l, (m, p)) in masked.iter().zip(&per_entry).enumerate() {
                    assert_eq!(
                        (m.re.to_bits(), m.im.to_bits()),
                        (p.re.to_bits(), p.im.to_bits()),
                        "case {case}, gate {gi} ({g:?}) on {support:?}: entry {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn phase_separators_stay_diagonal_and_mixers_stay_single() {
        // A direct-method QAOA shape: an H layer, keyed phases on monomials
        // of one to three variables, an RX mixer layer, twice. No keyed
        // phase may widen an H/RX block, and no mixer may absorb a
        // separator table, so every op that is neither diagonal nor a
        // permutation acts on one qubit.
        let n = 12;
        let mut rng = SplitMix(0x5e9a_7a70);
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for layer in 0..2 {
            for _ in 0..2 * n {
                let mut vars: Vec<usize> = Vec::new();
                for _ in 0..1 + rng.pick(3) {
                    let v = rng.pick(n);
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                c.keyed_phase(vars.into_iter().map(ControlBit::one).collect(), 0.3);
            }
            for q in 0..n {
                c.rx(q, 0.4 + 0.1 * layer as f64);
            }
        }
        let f = c.fused();
        let hist = f.kind_histogram();
        assert!(hist.get("diag").copied().unwrap_or(0) >= 2, "{hist:?}");
        for op in f.ops() {
            if matches!(
                op.kernel,
                FusedKernel::Dense { .. } | FusedKernel::Sparse { .. }
            ) {
                assert_eq!(
                    op.qubits.len(),
                    1,
                    "{} op on {:?}",
                    op.kind_name(),
                    op.qubits
                );
            }
        }
        assert_eq!(f.ops().len(), 3 * n + hist["diag"]);
    }

    #[test]
    fn plan_emit_equals_direct_fusion() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .rz(1, 0.2)
            .cx(0, 1)
            .h(0)
            .cp(2, 3, 0.4)
            .global_phase(0.3)
            .mcry(vec![ControlBit::one(0)], 3, 0.9);
        let plan = c.fusion_plan();
        assert_eq!(plan.emit(&c), c.fused());
        assert_eq!(plan.num_gates(), c.len());
        assert_eq!(plan.num_qubits(), 4);
    }

    #[test]
    fn plan_survives_angle_rebinding() {
        // Same structure, different angles: the cached plan must emit exactly
        // what a fresh fusion of the rebound circuit would.
        let build = |a: f64, b: f64| {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).rz(1, a).cx(0, 1).ry(2, b).cz(1, 2);
            c
        };
        let plan = build(0.1, -0.4).fusion_plan();
        let rebound = build(1.3, 0.8);
        assert_eq!(plan.emit(&rebound), rebound.fused());
        assert!(plan.num_blocks() >= 1);
    }

    #[test]
    #[should_panic(expected = "gate count")]
    fn plan_rejects_structurally_different_circuit() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0);
        let _ = a.fusion_plan().emit(&b);
    }

    #[test]
    fn fusion_ratio_and_histogram() {
        let c = {
            let mut c = Circuit::new(4);
            c.h(0).cx(0, 1).rz(1, 0.2).cx(0, 1).h(0).cp(2, 3, 0.4);
            c
        };
        let f = c.fused();
        assert!(f.fusion_ratio() >= 2.0);
        let hist = f.kind_histogram();
        let total: usize = hist.values().sum();
        assert_eq!(total, f.ops().len());
    }

    #[test]
    fn reordering_can_beat_the_in_order_scan_but_never_loses() {
        // Two RZ(0) gates split around wide passthrough McRx gates that only
        // *control* on qubit 0: the in-order scan leaves each RZ in its own
        // block (its merge target is the unmergeable passthrough), while the
        // commutation schedule coalesces them into one diagonal block.
        let controls: Vec<ControlBit> = (0..9).map(ControlBit::one).collect();
        let mcrx = Gate::McRx {
            controls,
            target: 9,
            theta: 0.7,
        };
        let mut c = Circuit::new(10);
        c.push(mcrx.clone());
        c.rz(0, 0.3);
        c.push(mcrx);
        c.rz(0, 0.5);
        let in_order = plan_fusion_in_order(&c);
        let best = plan_fusion(&c);
        assert_eq!(in_order.num_blocks(), 4);
        assert_eq!(best.num_blocks(), 3);
        // The reordered plan still emits the same unitary (checked exactly
        // on a basis column against the in-order emission in the
        // statevector property suites; structurally here: same gate set).
        let fused = best.emit(&c);
        assert_eq!(fused.source_gates(), c.len());
    }
}
