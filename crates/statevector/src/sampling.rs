//! Batched measurement sampling from a cached probability distribution.
//!
//! [`StateVector::sample`] rebuilds a cumulative table and binary-searches it
//! per call, which is fine for a handful of shots but makes a `shots`-sized
//! readout cost `O(shots · log 2^n)` after an `O(2^n)` sweep *per call site
//! that loops over shots*. The engine here does the opposite split: the
//! pre-measurement distribution is swept **once** into a [Vose alias
//! table](https://en.wikipedia.org/wiki/Alias_method) and every subsequent
//! shot costs `O(1)` — two random draws and one comparison — so a full batch
//! is `O(2^n + shots)`.
//!
//! Batches are drawn in fixed-size chunks whose RNG streams are derived
//! deterministically from the batch seed and the chunk index. Chunks run
//! rayon-parallel from a quarter of [`crate::parallel_threshold`] shots
//! (a draw costs about four swept amplitudes), and because the
//! per-chunk derivation does not depend on the number of worker threads the
//! output is **bit-identical** across runs, core counts, and the
//! serial/parallel crossover.
//!
//! [`StateVector::sample`] stays available as the slow per-call oracle the
//! statistical tests compare against.

use crate::state::{parallel_threshold, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Shots per deterministic RNG chunk of a batched draw.
const SHOT_CHUNK: usize = 4096;

/// Amplitudes of a sweep that one shot is worth against
/// [`crate::parallel_threshold`]: a draw (two random numbers and a table
/// lookup) costs about as much as four amplitudes of a fused sweep, so
/// batches go parallel from a quarter of the amplitude threshold (the
/// `shots` row of `ghs_bench`'s `crossover` binary).
const AMPS_PER_SHOT: usize = 4;

/// A probability distribution over basis states, preprocessed for O(1)
/// per-shot sampling (Vose's alias method).
///
/// Build it once from a pre-measurement state (or any non-negative weight
/// table) and draw any number of shots from the cache; the state is never
/// swept again.
#[derive(Clone, Debug)]
pub struct CachedDistribution {
    /// Acceptance threshold of each bucket (scaled probability).
    threshold: Vec<f64>,
    /// Alias bucket receiving the rejected mass.
    alias: Vec<u32>,
}

impl CachedDistribution {
    /// Builds the alias table from the `|amplitude|²` distribution of a
    /// state. One `O(2^n)` sweep; no copy of the state is retained.
    pub fn from_state(state: &StateVector) -> Self {
        Self::from_probabilities(state.amplitudes().iter().map(|a| a.norm_sqr()))
    }

    /// Builds the alias table from raw non-negative weights (they need not
    /// be normalised).
    ///
    /// # Panics
    /// Panics when the weights are empty, contain a negative entry, or sum
    /// to zero.
    pub fn from_probabilities<I: IntoIterator<Item = f64>>(probs: I) -> Self {
        let probs: Vec<f64> = probs.into_iter().collect();
        let n = probs.len();
        assert!(n > 0, "empty distribution");
        assert!(
            n <= u32::MAX as usize,
            "distribution too large for u32 alias"
        );
        let total: f64 = probs.iter().sum();
        assert!(
            total > 0.0 && probs.iter().all(|p| *p >= -1e-15),
            "weights must be non-negative with positive total"
        );
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = probs.iter().map(|p| p.max(0.0) * scale).collect();
        let mut threshold = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            threshold[s] = scaled[s];
            alias[s] = l as u32;
            // Move the donated mass out of the large bucket.
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers on either list sit at (numerically) exactly 1.
        Self { threshold, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.threshold.len()
    }

    /// Whether the distribution has no outcomes (never true for a valid
    /// table; provided for the conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.threshold.is_empty()
    }

    /// Draws one outcome: two uniform draws, one comparison.
    #[inline]
    pub fn draw<R: Rng>(&self, rng: &mut R) -> usize {
        let bucket = rng.gen_range(0..self.threshold.len());
        if rng.gen_range(0.0..1.0) < self.threshold[bucket] {
            bucket
        } else {
            self.alias[bucket] as usize
        }
    }

    /// Draws `shots` outcomes sequentially from a caller-provided generator.
    pub fn sample_with<R: Rng>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        (0..shots).map(|_| self.draw(rng)).collect()
    }

    /// Draws `shots` outcomes from the master `seed`, rayon-parallel over
    /// fixed 4096-shot chunks.
    ///
    /// The chunk RNG streams depend only on `(seed, chunk index)`, so the
    /// returned vector is bit-identical across runs regardless of thread
    /// count or whether the parallel path was taken at all.
    pub fn sample_seeded(&self, shots: usize, seed: u64) -> Vec<usize> {
        let mut out = vec![0usize; shots];
        let fill = |chunk_index: usize, chunk: &mut [usize]| {
            let mut rng = StdRng::seed_from_u64(derive_stream_seed(seed, chunk_index));
            for slot in chunk.iter_mut() {
                *slot = self.draw(&mut rng);
            }
        };
        if shots > SHOT_CHUNK && shots >= parallel_threshold() / AMPS_PER_SHOT {
            out.par_chunks_mut(SHOT_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| fill(ci, chunk));
        } else {
            for (ci, chunk) in out.chunks_mut(SHOT_CHUNK).enumerate() {
                fill(ci, chunk);
            }
        }
        out
    }
}

/// Derives the RNG seed of sub-stream `index` from a master `seed` — used
/// for the sampler's shot chunks and by the noise backend's trajectories.
/// SplitMix64-style mixing keeps neighbouring streams decorrelated;
/// `seed_from_u64` expands the result again, so even `seed` values differing
/// in one bit give independent streams.
#[inline]
pub fn derive_stream_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl StateVector {
    /// Samples `shots` computational-basis outcomes through the cached
    /// alias-table path: one `O(2^n)` sweep, then `O(1)` per shot, drawn in
    /// deterministic rayon-parallel chunks (see
    /// [`CachedDistribution::sample_seeded`]).
    ///
    /// This is the production sampling path; [`StateVector::sample`] remains
    /// as the per-call oracle for the statistical tests.
    pub fn sample_cached(&self, shots: usize, seed: u64) -> Vec<usize> {
        CachedDistribution::from_state(self).sample_seeded(shots, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alias_table_preserves_distribution() {
        // A very skewed 4-outcome distribution.
        let probs = [0.7, 0.2, 0.05, 0.05];
        let dist = CachedDistribution::from_probabilities(probs.iter().copied());
        let shots = 200_000;
        let samples = dist.sample_seeded(shots, 1234);
        let mut counts = [0usize; 4];
        for s in samples {
            counts[s] += 1;
        }
        for (i, &p) in probs.iter().enumerate() {
            let freq = counts[i] as f64 / shots as f64;
            assert!((freq - p).abs() < 0.01, "outcome {i}: {freq} vs {p}");
        }
    }

    #[test]
    fn seeded_batches_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(9);
        let state = StateVector::random_state(6, &mut rng);
        let a = state.sample_cached(10_000, 42);
        let b = state.sample_cached(10_000, 42);
        assert_eq!(a, b);
        let c = state.sample_cached(10_000, 43);
        assert_ne!(a, c, "distinct seeds should give distinct streams");
    }

    #[test]
    fn chunk_boundaries_do_not_depend_on_parallelism() {
        // A batch spanning several chunks must be the concatenation of the
        // chunk streams regardless of how it is scheduled: drawing a prefix
        // yields the prefix of the longer batch. The long batch is sized to
        // reach the parallel gate at the default threshold, the short one is
        // a single serial chunk.
        let mut rng = StdRng::seed_from_u64(10);
        let state = StateVector::random_state(4, &mut rng);
        let long_shots = crate::state::DEFAULT_PARALLEL_THRESHOLD / AMPS_PER_SHOT + 17;
        let long = state.sample_cached(long_shots, 7);
        let short = state.sample_cached(SHOT_CHUNK, 7);
        assert_eq!(&long[..SHOT_CHUNK], &short[..]);
    }

    #[test]
    fn cached_path_matches_oracle_statistics() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.9);
        let mut state = StateVector::zero_state(3);
        state.run_fused(&c);
        let shots = 60_000;
        let cached = state.sample_cached(shots, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let oracle = state.sample(shots, &mut rng);
        for i in 0..state.dim() {
            let fc = cached.iter().filter(|&&s| s == i).count() as f64 / shots as f64;
            let fo = oracle.iter().filter(|&&s| s == i).count() as f64 / shots as f64;
            assert!(
                (fc - fo).abs() < 0.01,
                "state {i}: cached {fc} vs oracle {fo}"
            );
            assert!((fc - state.probability(i)).abs() < 0.01);
        }
    }

    #[test]
    fn deterministic_outcome_distribution() {
        // A basis state has a one-point distribution: every shot hits it.
        let state = StateVector::basis_state(5, 19);
        assert!(state.sample_cached(1000, 0).iter().all(|&s| s == 19));
    }

    #[test]
    fn zero_shots_is_empty() {
        let state = StateVector::zero_state(2);
        assert!(state.sample_cached(0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn zero_total_panics() {
        let _ = CachedDistribution::from_probabilities([0.0, 0.0]);
    }
}
