//! Sharded statevector engine for the 24–30 qubit range.
//!
//! [`crate::StateVector`] keeps all `2^n` amplitudes in one flat `Vec` and
//! sweeps the whole array once per fused op — at 24 qubits that is 256 MB of
//! DRAM traffic per op, and the dense sweep becomes memory-bound
//! (`bench/baseline.json`: ~1.8k gates/sec at 20 qubits vs ~28k at 16).
//! [`ShardedStateVector`] splits the amplitude array into `2^s` equal
//! shards, the qHiPSTER/Intel-QS distributed-amplitude scheme collapsed into
//! one process:
//!
//! * the **top `s` bits** of the (physical) basis index select the shard,
//!   the remaining `local_bits` address an amplitude inside it;
//! * an op whose support lies entirely in the low `local_bits` positions is
//!   **shard-local**: consecutive runs of shard-local ops are applied one
//!   shard at a time while the shard is cache-hot (cache blocking), so a run
//!   of `k` ops costs one DRAM sweep instead of `k`;
//! * **diagonal** kernels are always shard-local: their support bits on
//!   shard-index positions are read off the shard's base, so they join the
//!   runs above;
//! * other ops that touch shard-index bits cross shards: **permutations**
//!   swap whole strips between shards in place, and dense/sparse kernels
//!   perform gather→multiply→scatter **exchanges** across the affected shard
//!   family, split across worker threads by group;
//! * a [`QubitRelabeling`] chosen per circuit maps hot qubits away from the
//!   shard-index positions so exchanges are rare; every output boundary
//!   ([`ShardedStateVector::to_state`], [`ShardedStateVector::probabilities`],
//!   [`ShardedStateVector::amplitude`], …) reads amplitudes in **logical**
//!   order, un-permuting the relabeling.
//!
//! Every kernel here replays the flat engine's per-amplitude arithmetic in
//! the same order, so evolving a state through this engine is bit-identical
//! to [`crate::StateVector::apply_fused`] for any shard count and any
//! relabeling — the existing property suites double as the oracle, and
//! seeded sampling from the recovered state is byte-identical across
//! `GHS_SHARD_COUNT` settings.
//!
//! The engine evolves in place with `O(1)` extra memory (a stack gather
//! buffer of at most `2^MAX_DENSE_QUBITS` amplitudes): it never materializes
//! a second full `2^n` buffer. CI proves this by running a 24-qubit workload
//! under a `ulimit -v` sized for one flat copy plus scratch.

use crate::kernels::Prepared;
use crate::state::{parallel_threshold, StateVector};
use ghs_circuit::{Circuit, FusedCircuit, QubitRelabeling};
use ghs_math::Complex64;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Default shard size in amplitudes (`2^15` = 512 KB of `Complex64`): small
/// enough that a whole shard stays L2-resident while a run of shard-local
/// ops replays over it (measured best on a 2 MB-L2 part across a
/// 512 KB–16 MB sweep), large enough that per-shard dispatch is noise.
const DEFAULT_SHARD_AMPS: usize = 1 << 15;

/// Register size at which [`crate::StateVector`]-based backends cross over
/// to the sharded engine: above ~22 qubits the flat sweep is memory-bound
/// and cache-blocked sharded execution wins even single-threaded.
pub const SHARDED_MIN_QUBITS: usize = 22;

/// Forced shard count from the `GHS_SHARD_COUNT` environment variable (read
/// once per process), or `None` to size shards automatically. Values are
/// clamped to `[1, 2^n]` and rounded down to a power of two at use sites;
/// unparsable or missing values fall back to the automatic policy. CI's
/// determinism matrix re-runs the seeded suites with this forced to 1, 4
/// and 64 and requires byte-identical output.
pub fn forced_shard_count() -> Option<usize> {
    static COUNT: OnceLock<Option<usize>> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::env::var("GHS_SHARD_COUNT")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c >= 1)
    })
}

/// Shard count the engine picks for an `n`-qubit register: the forced count
/// when `GHS_SHARD_COUNT` is set, otherwise `2^n / DEFAULT_SHARD_AMPS`;
/// always a power of two in `[1, 2^n]`.
pub fn shard_count_for(num_qubits: usize) -> usize {
    let dim = 1usize << num_qubits;
    let raw = forced_shard_count()
        .unwrap_or_else(|| (dim / DEFAULT_SHARD_AMPS).max(1))
        .clamp(1, dim);
    // Round down to a power of two so shard boundaries align with qubits.
    1usize << (usize::BITS - 1 - raw.leading_zeros())
}

/// A pure state stored as `2^s` fixed-size amplitude shards under a
/// logical→physical [`QubitRelabeling`].
///
/// Construct with [`ShardedStateVector::zero_state`] /
/// [`ShardedStateVector::basis_state`] (shard count from
/// [`shard_count_for`], i.e. the `GHS_SHARD_COUNT` knob or the automatic
/// 4 MB-per-shard policy) or the explicit-layout constructors used by the
/// property tests. Evolve with [`ShardedStateVector::run`] — which fuses,
/// picks the relabeling, and applies — and read results through the
/// logical-order boundaries. See the module docs for the sharding scheme
/// and its exchange costs.
pub struct ShardedStateVector {
    num_qubits: usize,
    local_bits: usize,
    relabeling: QubitRelabeling,
    shards: Vec<Vec<Complex64>>,
    /// `Some(logical_index)` while the state is a pristine basis state, so
    /// re-basing under a new relabeling is O(1) instead of a full permute.
    basis_hint: Option<usize>,
}

impl ShardedStateVector {
    /// The all-zeros state `|0…0⟩` with the default shard layout.
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational-basis state `|index⟩` with the default shard
    /// layout.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        Self::basis_state_with(num_qubits, index, shard_count_for(num_qubits))
    }

    /// Basis state with an explicit shard count (clamped to `[1, 2^n]` and
    /// rounded down to a power of two) — the property-test entry point for
    /// forcing shard layouts without touching `GHS_SHARD_COUNT`.
    pub fn basis_state_with(num_qubits: usize, index: usize, shard_count: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(index < dim, "basis index out of range");
        let count = normalize_count(shard_count, dim);
        let shard_len = dim / count;
        let mut shards = vec![vec![Complex64::ZERO; shard_len]; count];
        shards[index / shard_len][index % shard_len] = Complex64::ONE;
        Self {
            num_qubits,
            local_bits: shard_len.trailing_zeros() as usize,
            relabeling: QubitRelabeling::identity(num_qubits),
            shards,
            basis_hint: Some(index),
        }
    }

    /// Copies a flat state into the default shard layout (identity
    /// relabeling). This allocates a full second copy — it is the bridge
    /// from `Backend`-style APIs, not the memory-ceiling path.
    pub fn from_state(state: &StateVector) -> Self {
        Self::from_state_with(state, shard_count_for(state.num_qubits()))
    }

    /// Copies a flat state into an explicit shard count.
    pub fn from_state_with(state: &StateVector, shard_count: usize) -> Self {
        let dim = state.dim();
        let count = normalize_count(shard_count, dim);
        let shard_len = dim / count;
        let amps = state.amplitudes();
        let shards: Vec<Vec<Complex64>> = (0..count)
            .map(|s| amps[s * shard_len..(s + 1) * shard_len].to_vec())
            .collect();
        Self {
            num_qubits: state.num_qubits(),
            local_bits: shard_len.trailing_zeros() as usize,
            relabeling: QubitRelabeling::identity(state.num_qubits()),
            shards,
            basis_hint: None,
        }
    }

    /// Register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension `2^n`.
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Amplitudes per shard (a power of two).
    pub fn shard_len(&self) -> usize {
        1usize << self.local_bits
    }

    /// The logical→physical relabeling the amplitudes are currently stored
    /// under.
    pub fn relabeling(&self) -> &QubitRelabeling {
        &self.relabeling
    }

    /// Fuses the circuit, picks its sharding relabeling
    /// ([`QubitRelabeling::for_sharding`]) and applies it. The one-stop
    /// execution entry point; callers that cache fusion plans use
    /// [`ShardedStateVector::run_fused_with`] instead.
    pub fn run(&mut self, circuit: &Circuit) {
        let fused = circuit.fused();
        let relabeling = QubitRelabeling::for_sharding(&fused);
        self.run_fused_with(&fused, &relabeling);
    }

    /// Applies a **logically-labeled** fused circuit under an explicit
    /// relabeling: re-bases the stored amplitudes to the new layout, maps
    /// the circuit with [`FusedCircuit::relabeled`] and applies it. Any
    /// relabeling is correct — outputs are always read in logical order —
    /// but [`QubitRelabeling::for_sharding`] minimizes exchanges.
    pub fn run_fused_with(&mut self, fused: &FusedCircuit, relabeling: &QubitRelabeling) {
        self.rebase(relabeling);
        if relabeling.is_identity() {
            self.apply_relabeled(fused);
        } else {
            self.apply_relabeled(&fused.relabeled(relabeling));
        }
    }

    /// Applies a fused circuit **already expressed in this state's physical
    /// labels** (i.e. pre-mapped with [`FusedCircuit::relabeled`] under
    /// [`ShardedStateVector::relabeling`]). Runs of shard-local ops are
    /// cache-blocked per shard; cross-shard ops fall back to family sweeps
    /// over group index space. In-place: amplitudes are never copied out of
    /// their shards; besides the lowered ops, each cross-shard op allocates
    /// one list of shard pointers.
    pub fn apply_relabeled(&mut self, fused: &FusedCircuit) {
        assert_eq!(
            fused.num_qubits(),
            self.num_qubits,
            "register size mismatch"
        );
        self.basis_hint = None;
        let n = self.num_qubits;
        let prepared: Vec<Prepared> = fused
            .ops()
            .iter()
            .map(|op| Prepared::build(n, op))
            .collect();
        let shard_len = self.shard_len();
        let local_bits = self.local_bits;
        let parallel = self.dim() >= parallel_threshold() && self.shards.len() > 1;
        let mut i = 0usize;
        while i < prepared.len() {
            if prepared[i].span <= shard_len {
                // Cache-blocked run: apply every consecutive shard-local op
                // to one shard while it is hot, then move to the next shard.
                let mut j = i + 1;
                while j < prepared.len() && prepared[j].span <= shard_len {
                    j += 1;
                }
                let run = &prepared[i..j];
                let apply_run = |(si, shard): (usize, &mut Vec<Complex64>)| {
                    let base = si << local_bits;
                    for op in run {
                        op.apply_local(base, shard);
                    }
                };
                if parallel {
                    self.shards.par_iter_mut().enumerate().for_each(apply_run);
                } else {
                    self.shards.iter_mut().enumerate().for_each(apply_run);
                }
                i = j;
            } else {
                prepared[i].apply_cross(&mut self.shards, 1usize << n, parallel);
                i += 1;
            }
        }
        if fused.global_phase() != 0.0 {
            let p = Complex64::cis(fused.global_phase());
            let mul = |(_, shard): (usize, &mut Vec<Complex64>)| {
                for a in shard.iter_mut() {
                    *a *= p;
                }
            };
            if parallel {
                self.shards.par_iter_mut().enumerate().for_each(mul);
            } else {
                self.shards.iter_mut().enumerate().for_each(mul);
            }
        }
    }

    /// Moves the stored amplitudes to a new relabeling. O(1) for pristine
    /// basis states (the common case: every `Backend::run` starts from a
    /// basis state); a full permuting copy otherwise — which allocates a
    /// second shard set and is therefore avoided on the memory-ceiling path.
    fn rebase(&mut self, target: &QubitRelabeling) {
        if *target == self.relabeling {
            return;
        }
        let lmask = self.shard_len() - 1;
        if let Some(index) = self.basis_hint {
            let old = self.relabeling.permute_index(index);
            let new = target.permute_index(index);
            self.shards[old >> self.local_bits][old & lmask] = Complex64::ZERO;
            self.shards[new >> self.local_bits][new & lmask] = Complex64::ONE;
            self.relabeling = target.clone();
            return;
        }
        // Compose old→new on bit positions: logical bit p maps to
        // old_bits[p] in the current layout and new_bits[p] in the target.
        let old_bits = self.relabeling.bit_mapping();
        let new_bits = target.bit_mapping();
        let mut move_bit = vec![0usize; self.num_qubits];
        for p in 0..self.num_qubits {
            move_bit[old_bits[p]] = new_bits[p];
        }
        let shard_len = self.shard_len();
        let mut fresh = vec![vec![Complex64::ZERO; shard_len]; self.shards.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            let base = s << self.local_bits;
            for (k, &a) in shard.iter().enumerate() {
                let old = base + k;
                let mut new = 0usize;
                for (src, &dst) in move_bit.iter().enumerate() {
                    if old >> src & 1 == 1 {
                        new |= 1 << dst;
                    }
                }
                fresh[new >> self.local_bits][new & lmask] = a;
            }
        }
        self.shards = fresh;
        self.relabeling = target.clone();
    }

    /// Absolute physical-index read.
    #[inline]
    fn at(&self, physical: usize) -> Complex64 {
        self.shards[physical >> self.local_bits][physical & (self.shard_len() - 1)]
    }

    /// Amplitude of the **logical** basis state `index`, un-permuting the
    /// relabeling.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.at(self.relabeling.permute_index(index))
    }

    /// Probability of measuring the logical basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amplitude(index).norm_sqr()
    }

    /// Euclidean norm, accumulated in logical index order so the value is
    /// identical for every shard count and relabeling.
    pub fn norm(&self) -> f64 {
        self.fold_logical(0.0f64, |acc, a| acc + a.norm_sqr())
            .sqrt()
    }

    /// Probabilities of all basis states, in logical order — the exact
    /// `f64` sequence the flat engine would produce.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.fold_logical((), |(), a| out.push(a.norm_sqr()));
        out
    }

    /// Copies out a flat [`StateVector`] in logical amplitude order. The
    /// bridge back to `Backend`-style APIs (expectations, cached sampling);
    /// allocates the full `2^n` buffer, so the memory-ceiling path reads
    /// through [`ShardedStateVector::amplitude`] / `probability` instead.
    pub fn to_state(&self) -> StateVector {
        let mut amps = Vec::with_capacity(self.dim());
        self.fold_logical((), |(), a| amps.push(a));
        StateVector::from_amplitudes(self.num_qubits, amps)
    }

    /// Folds over amplitudes in logical index order.
    fn fold_logical<T, F: FnMut(T, Complex64) -> T>(&self, init: T, mut f: F) -> T {
        let mut acc = init;
        if self.relabeling.is_identity() {
            for shard in &self.shards {
                for &a in shard {
                    acc = f(acc, a);
                }
            }
            return acc;
        }
        let bits = self.relabeling.bit_mapping();
        for logical in 0..self.dim() {
            let mut physical = 0usize;
            for (src, &dst) in bits.iter().enumerate() {
                if logical >> src & 1 == 1 {
                    physical |= 1 << dst;
                }
            }
            acc = f(acc, self.at(physical));
        }
        acc
    }
}

/// Clamps a requested shard count to `[1, dim]` and rounds down to a power
/// of two.
fn normalize_count(requested: usize, dim: usize) -> usize {
    let c = requested.clamp(1, dim);
    1usize << (usize::BITS - 1 - c.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::random_circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shard_count_normalization() {
        assert_eq!(normalize_count(1, 1 << 10), 1);
        assert_eq!(normalize_count(3, 1 << 10), 2);
        assert_eq!(normalize_count(64, 1 << 4), 16);
        assert_eq!(normalize_count(0, 1 << 4), 1);
        assert_eq!(normalize_count(usize::MAX, 1 << 6), 64);
    }

    #[test]
    fn basis_state_lands_in_the_right_shard() {
        let s = ShardedStateVector::basis_state_with(6, 37, 8);
        assert_eq!(s.num_shards(), 8);
        assert_eq!(s.shard_len(), 8);
        assert_eq!(s.amplitude(37), Complex64::ONE);
        assert_eq!(s.probability(36), 0.0);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sharded_matches_flat_at_every_count() {
        for n in 2..=9usize {
            let c = random_circuit(n, 40, 5 + n as u64);
            let mut flat = StateVector::zero_state(n);
            flat.apply_fused(&c.fused());
            for count in [1usize, 2, 8, 1 << n] {
                let mut sharded = ShardedStateVector::basis_state_with(n, 0, count);
                sharded.run(&c);
                let out = sharded.to_state();
                assert!(
                    out.distance(&flat) < 1e-12,
                    "n={n} count={count}: distance {}",
                    out.distance(&flat)
                );
            }
        }
    }

    #[test]
    fn cross_shard_outputs_are_bit_identical_across_counts() {
        // Tiny shards force every kernel down the cross-shard paths; the
        // recovered amplitudes must equal the single-shard run bit for bit.
        for n in 3..=8usize {
            let c = random_circuit(n, 60, 77 + n as u64);
            let mut one = ShardedStateVector::basis_state_with(n, 1, 1);
            one.run(&c);
            let reference = one.to_state();
            for count in [2usize, 4, 1 << (n - 1)] {
                let mut many = ShardedStateVector::basis_state_with(n, 1, count);
                many.run(&c);
                let got = many.to_state();
                assert_eq!(
                    got.amplitudes(),
                    reference.amplitudes(),
                    "n={n} count={count} drifted from the single-shard run"
                );
            }
        }
    }

    #[test]
    fn from_state_round_trips_under_relabeling() {
        let mut rng = StdRng::seed_from_u64(11);
        let s0 = StateVector::random_state(6, &mut rng);
        let c = random_circuit(6, 30, 3);
        let mut sharded = ShardedStateVector::from_state_with(&s0, 4);
        sharded.run(&c);
        let mut flat = s0.clone();
        flat.apply_fused(&c.fused());
        assert!(sharded.to_state().distance(&flat) < 1e-12);
    }
}
