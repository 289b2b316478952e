//! Pluggable simulation backends.
//!
//! Every execution path of the workspace used to be hard-wired to one dense
//! state-vector sweep ([`StateVector::run_fused`]). The [`Backend`] trait
//! turns that choice into an abstraction: circuit execution, expectation
//! values and shot sampling are entry points of an interchangeable engine,
//! and the application layers (`measurement`, `trotter`, `ghs_hubo`,
//! `ghs_chemistry`, the benchmark binaries) are written against the trait.
//!
//! Seven backends ship today:
//!
//! * [`FusedStatevector`] — the production dense path: gate fusion +
//!   specialized kernels (PR 2), exact to machine precision. Above
//!   [`SHARDED_MIN_QUBITS`] qubits it transparently executes through the
//!   sharded engine (identical results, bit for bit);
//! * [`ShardedStatevector`] — the dense scale path: the amplitude array is
//!   split into cache-sized shards, hot qubits are relabeled intra-shard,
//!   and runs of shard-local fused ops are applied per shard while it is
//!   cache-hot ([`ghs_statevector::ShardedStateVector`]);
//! * [`ReferenceStatevector`] — one sweep per gate, the slow oracle the
//!   property tests compare everything against;
//! * [`PauliNoise`] — stochastic Pauli-noise trajectories (per-gate
//!   depolarizing and dephasing channels), seeded and averaged over a
//!   trajectory batch;
//! * [`TrajectoryNoise`] — the generalization of [`PauliNoise`] to
//!   arbitrary Kraus channels through a
//!   [`NoiseModel`]: Pauli channels keep
//!   the cheap mask path, general channels do norm-weighted Kraus selection
//!   per trajectory. Both average through the one ensemble loop of
//!   [`TrajectoryEnsemble`];
//! * [`DensityMatrixBackend`] — the exact noise oracle: evolves the full
//!   density matrix under the same `NoiseModel` via superoperator
//!   application of fused blocks, capped at
//!   [`DensityMatrixBackend::MAX_QUBITS`] qubits by its quadratic memory;
//! * [`StabilizerBackend`] — the Clifford scale path: an Aaronson–Gottesman
//!   tableau ([`ghs_stabilizer::StabilizerState`]) in `O(n²)` bits instead
//!   of `O(2^n)` amplitudes, running Clifford circuits at thousands of
//!   qubits. Non-Clifford gates are rejected with a typed
//!   [`BackendError::UnsupportedCircuit`].
//!
//! The trait is **not statevector-shaped**: entry points take an
//! [`InitialState`] (zero / basis / dense amplitudes) so that non-dense
//! backends never materialize `2^n` amplitudes, and every entry point
//! returns `Result<_, `[`BackendError`]`>` so that engines with a
//! restricted vocabulary fail with typed errors instead of panicking.
//! [`Backend::capabilities`] describes each engine's envelope (register
//! cap, Clifford-only, stochastic, gradient support) so schedulers like
//! `ghs_service` can reject infeasible jobs at admission.
//!
//! The dense backends share the **batched shot engine**: [`Backend::sample`]
//! simulates the pre-measurement state once, caches the `|amplitude|²`
//! distribution in an alias table and draws every shot in `O(1)` from
//! rayon-parallel, deterministically seeded chunks
//! ([`CachedDistribution`]). The stabilizer backend has a native shot path
//! instead ([`Backend::sample_bits`]): one tableau collapse per shot, each
//! shot on its own derived RNG stream.
//!
//! Observables go through the **matrix-free grouped Pauli engine**:
//! [`Backend::expectation`] takes a preprocessed [`GroupedPauliSum`] and
//! evaluates `⟨ψ|H|ψ⟩` directly from the strings' X/Z bitmasks — one
//! amplitude sweep per group on the dense engines, a per-string tableau
//! read-off on the stabilizer engine. The sparse mat-vec oracle it is
//! tested against is not a backend entry point: it lives on the states
//! ([`StateVector::expectation_sparse`], [`DensityMatrix::expectation_sparse`]),
//! which tests read off [`Backend::run`] or [`DensityMatrixBackend::evolve`],
//! and off every trajectory of a noise ensemble through
//! [`TrajectoryEnsemble::ensemble_mean`].
//!
//! Determinism guarantee: for a fixed backend configuration and fixed
//! `seed`, [`Backend::sample`] / [`Backend::sample_bits`] return
//! bit-identical shot vectors across runs, thread counts and machines.
//!
//! ```
//! use ghs_circuit::Circuit;
//! use ghs_core::backend::{Backend, FusedStatevector, InitialState};
//!
//! // A Bell pair only ever reads |00⟩ or |11⟩, split evenly.
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let backend = FusedStatevector;
//! let zero = InitialState::ZeroState;
//! let shots = backend.sample(&zero, &bell, 4096, 7).unwrap();
//! assert!(shots.iter().all(|&s| s == 0b00 || s == 0b11));
//! let ones = shots.iter().filter(|&&s| s == 0b11).count();
//! assert!((ones as f64 / 4096.0 - 0.5).abs() < 0.05);
//! // Seeded sampling is bit-identical across runs.
//! assert_eq!(shots, backend.sample(&zero, &bell, 4096, 7).unwrap());
//! ```

use ghs_circuit::{Circuit, Gate, ParameterizedCircuit};
use ghs_math::Complex64;
use ghs_operators::kraus::{KrausChannel, NoiseModel};
use ghs_stabilizer::{BitString, StabilizerState, STABILIZER_DENSE_MAX_QUBITS};
use ghs_statevector::{
    adjoint_gradient, derive_stream_seed, CachedDistribution, DensityMatrix, GroupedPauliSum,
    ShardedStateVector, StateVector, SHARDED_MIN_QUBITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::f64::consts::{FRAC_PI_2, SQRT_2};
use std::fmt;
use std::sync::Arc;

/// A typed backend failure: the engine cannot serve the request, and says
/// why in machine-readable form. Returned by every [`Backend`] entry point
/// and by [`backend_by_name`]; `ghs_service` threads it through job results
/// as a typed failure output instead of panicking a worker.
///
/// ```
/// use ghs_core::backend::{backend_by_name, BackendError, InitialState};
/// use ghs_circuit::Circuit;
///
/// // Unknown names are a typed error, not an Option.
/// let err = backend_by_name("tensor-network").err().unwrap();
/// assert!(matches!(err, BackendError::UnknownName(_)));
///
/// // The stabilizer backend rejects non-Clifford circuits the same way.
/// let backend = backend_by_name("stabilizer").unwrap();
/// let mut c = Circuit::new(2);
/// c.h(0).rz(1, 0.3);
/// let err = backend
///     .sample(&InitialState::ZeroState, &c, 16, 0)
///     .unwrap_err();
/// assert!(matches!(err, BackendError::UnsupportedCircuit { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// No backend is registered under this selection name.
    UnknownName(String),
    /// The circuit contains a gate outside the backend's vocabulary (e.g. a
    /// non-Clifford gate handed to the stabilizer engine).
    UnsupportedCircuit {
        /// Display form of the first offending gate.
        gate: String,
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
    },
    /// The register is wider than the backend (or the requested output
    /// representation) supports.
    RegisterTooLarge {
        /// Requested register size.
        qubits: usize,
        /// The backend's cap for this entry point.
        max_qubits: usize,
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
    },
    /// The initial state cannot be used with this backend or circuit (wrong
    /// register size, basis index out of range, or dense amplitudes handed
    /// to a non-dense engine).
    InitialStateMismatch {
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
        /// Human-readable cause.
        detail: String,
    },
    /// The backend has no dense `2^n`-amplitude representation to return
    /// (the `run` entry point of the stabilizer tableau and of the density
    /// matrix).
    DenseStateUnavailable {
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
    },
    /// The engine panicked while executing the request. Callers that own
    /// worker threads (the `ghs_service` pool) catch the unwind at the job
    /// boundary and report it as this typed failure, so one bad job cannot
    /// take down its worker or poison shared state for unrelated jobs.
    ExecutionPanicked {
        /// The panic message, when the payload carried one.
        detail: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnknownName(name) => {
                write!(f, "no backend is registered under the name \"{name}\"")
            }
            BackendError::UnsupportedCircuit { gate, backend } => {
                write!(f, "backend {backend} cannot simulate gate {gate}")
            }
            BackendError::RegisterTooLarge {
                qubits,
                max_qubits,
                backend,
            } => write!(
                f,
                "backend {backend} caps this entry point at {max_qubits} qubits, got {qubits}"
            ),
            BackendError::InitialStateMismatch { backend, detail } => {
                write!(f, "initial state rejected by backend {backend}: {detail}")
            }
            BackendError::DenseStateUnavailable { backend } => {
                write!(f, "backend {backend} has no dense statevector output")
            }
            BackendError::ExecutionPanicked { detail } => {
                write!(f, "backend execution panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// The state a backend starts from — the plain-data form that does **not**
/// force `2^n` amplitudes into existence. `ZeroState` and `Basis` are
/// symbolic (a tableau backend prepares them in `O(n)`); `Dense` carries
/// explicit amplitudes for the dense engines, shared by `Arc` so cloning a
/// job spec never copies the register.
///
/// ```
/// use ghs_core::backend::{Backend, FusedStatevector, InitialState};
/// use ghs_statevector::StateVector;
/// use ghs_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.x(0);
/// // The default is |0…0⟩; explicit basis states and dense amplitudes
/// // migrate via `From`.
/// let from_dense = InitialState::from(&StateVector::basis_state(2, 0b01));
/// let symbolic = InitialState::basis(0b01);
/// let a = FusedStatevector.run(&from_dense, &c).unwrap();
/// let b = FusedStatevector.run(&symbolic, &c).unwrap();
/// assert_eq!(a.amplitudes(), b.amplitudes());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub enum InitialState {
    /// The all-zeros computational-basis state `|0…0⟩`.
    #[default]
    ZeroState,
    /// The computational-basis state `|index⟩`. The register is
    /// big-endian: qubit `q` of an `n`-qubit register is bit `n − 1 − q` of
    /// `index`, so qubit 0 is the most significant bit.
    ///
    /// ```
    /// use ghs_circuit::Circuit;
    /// use ghs_core::backend::{Backend, FusedStatevector, InitialState};
    ///
    /// // Index 0b100 sets qubit 0 of three: an X on qubit 0 clears it.
    /// let mut c = Circuit::new(3);
    /// c.x(0);
    /// let state = FusedStatevector.run(&InitialState::basis(0b100), &c).unwrap();
    /// assert_eq!(state.probability(0b000), 1.0);
    /// ```
    Basis(usize),
    /// Explicit dense amplitudes, shared without copying.
    Dense(Arc<StateVector>),
}

impl InitialState {
    /// The basis state `|index⟩` in symbolic form.
    pub fn basis(index: usize) -> Self {
        InitialState::Basis(index)
    }

    /// The basis-state index when the initial state is symbolic
    /// (`ZeroState` → `0`), `None` for dense amplitudes. Schedulers use
    /// this to key caches without hashing a register.
    pub fn basis_index(&self) -> Option<usize> {
        match self {
            InitialState::ZeroState => Some(0),
            InitialState::Basis(i) => Some(*i),
            InitialState::Dense(_) => None,
        }
    }

    /// Materializes the dense `2^n` statevector for an `n`-qubit register —
    /// the adapter the dense backends call. Validates the basis index / the
    /// dense register size and reports mismatches as typed errors under the
    /// calling backend's name.
    pub fn to_statevector(
        &self,
        num_qubits: usize,
        backend: &'static str,
    ) -> Result<StateVector, BackendError> {
        match self {
            InitialState::ZeroState => Ok(StateVector::zero_state(num_qubits)),
            InitialState::Basis(index) => {
                if num_qubits < usize::BITS as usize && *index >= (1usize << num_qubits) {
                    return Err(BackendError::InitialStateMismatch {
                        backend,
                        detail: format!("basis index {index} out of range for {num_qubits} qubits"),
                    });
                }
                Ok(StateVector::basis_state(num_qubits, *index))
            }
            InitialState::Dense(state) => {
                if state.num_qubits() != num_qubits {
                    return Err(BackendError::InitialStateMismatch {
                        backend,
                        detail: format!(
                            "dense initial state has {} qubits, circuit has {num_qubits}",
                            state.num_qubits()
                        ),
                    });
                }
                Ok((**state).clone())
            }
        }
    }
}

impl From<&StateVector> for InitialState {
    /// Migration shim for dense call sites: wraps a copy of the register.
    fn from(state: &StateVector) -> Self {
        InitialState::Dense(Arc::new(state.clone()))
    }
}

impl From<StateVector> for InitialState {
    fn from(state: StateVector) -> Self {
        InitialState::Dense(Arc::new(state))
    }
}

impl From<Arc<StateVector>> for InitialState {
    fn from(state: Arc<StateVector>) -> Self {
        InitialState::Dense(state)
    }
}

/// A backend's execution envelope, as plain data. Schedulers consult it
/// **before** queueing work (the job service's admission check), so
/// infeasible jobs fail at submission with a typed error instead of inside
/// a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Largest register the backend accepts.
    pub max_qubits: usize,
    /// The backend only runs Clifford circuits (see
    /// `ghs_circuit::Gate::is_clifford`).
    pub clifford_only: bool,
    /// Outputs are ensemble averages over a stochastic process (noise
    /// trajectories), not exact functionals of one pure state.
    pub stochastic: bool,
    /// [`Backend::expectation_gradient`] is supported.
    pub supports_gradients: bool,
}

impl Capabilities {
    /// The envelope of a deterministic dense statevector engine: registers
    /// up to [`Capabilities::DENSE_MAX_QUBITS`], any circuit, exact
    /// outputs, adjoint/shift gradients.
    pub const fn statevector() -> Self {
        Capabilities {
            max_qubits: Self::DENSE_MAX_QUBITS,
            clifford_only: false,
            stochastic: false,
            supports_gradients: true,
        }
    }

    /// Register cap of the dense engines: beyond this, `2^n` amplitudes
    /// (16 bytes each) exceed any plausible host memory.
    pub const DENSE_MAX_QUBITS: usize = 32;
}

/// An interchangeable circuit-execution engine.
///
/// The trait is object-safe: application code that should stay agnostic of
/// the engine takes `&dyn Backend`. Dense deterministic backends only
/// implement [`Backend::run`]; the expectation/sampling entry points have
/// default implementations on top of it. Stochastic backends override
/// [`Backend::probabilities`] and [`Backend::expectation`] to average over
/// their ensemble; non-dense backends (the stabilizer tableau) override
/// every entry point they support and return typed errors from the rest.
pub trait Backend {
    /// Stable identifier (used in logs, benchmarks and selection tables).
    fn name(&self) -> &'static str;

    /// The engine's execution envelope (see [`Capabilities`]). The default
    /// is the dense statevector envelope.
    fn capabilities(&self) -> Capabilities {
        Capabilities::statevector()
    }

    /// Evolves the initial state through `circuit` and returns the final
    /// dense state.
    ///
    /// For stochastic backends this is **one** trajectory (drawn from the
    /// backend's own seed); ensemble-averaged quantities go through
    /// [`Backend::probabilities`] / [`Backend::expectation`]. Non-dense
    /// backends return [`BackendError::DenseStateUnavailable`].
    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError>;

    /// Measurement probabilities of the evolved state in the computational
    /// basis (ensemble-averaged for stochastic backends).
    fn probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        let state = self.run(initial, circuit)?;
        Ok(state.amplitudes().iter().map(|a| a.norm_sqr()).collect())
    }

    /// Expectation value `⟨ψ|H|ψ⟩` of a Hermitian Pauli-sum observable on
    /// the evolved state (ensemble-averaged for stochastic backends).
    ///
    /// This is the production observable path: the preprocessed
    /// [`GroupedPauliSum`] is evaluated **matrix-free** in one amplitude
    /// sweep per group of strings on the dense engines, and read per string
    /// straight off the tableau on the stabilizer engine. Prepare the
    /// observable once (it only depends on the Hamiltonian) and reuse it
    /// across evaluations.
    fn expectation(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &GroupedPauliSum,
    ) -> Result<f64, BackendError> {
        Ok(self
            .run(initial, circuit)?
            .expectation_grouped(observable)
            .re)
    }

    /// Draws `shots` computational-basis outcomes as dense indices. On the
    /// dense engines this is the batched shot engine: the pre-measurement
    /// distribution is computed **once**, cached in an alias table, and
    /// every shot costs `O(1)` — `O(2^n + shots)` total, bit-identical for
    /// a fixed `seed`. Registers wider than a machine word cannot be
    /// indexed; use [`Backend::sample_bits`] there.
    fn sample(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, BackendError> {
        Ok(
            CachedDistribution::from_probabilities(self.probabilities(initial, circuit)?)
                .sample_seeded(shots, seed),
        )
    }

    /// Draws `shots` computational-basis outcomes as packed
    /// [`BitString`]s — the wide-register form of [`Backend::sample`], and
    /// the native shot path of the stabilizer engine (per-shot tableau
    /// collapse on derived RNG streams). The default packs the dense
    /// sample stream; for registers that fit a `usize` the two entry
    /// points see the same outcomes.
    fn sample_bits(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<BitString>, BackendError> {
        let n = circuit.num_qubits();
        Ok(self
            .sample(initial, circuit, shots, seed)?
            .into_iter()
            .map(|index| BitString::from_index(n, index))
            .collect())
    }

    /// Energy `⟨ψ(θ)|H|ψ(θ)⟩` **and its full parameter gradient** for a
    /// parameterized circuit bound at `params`.
    ///
    /// The default implementation is the **parameter-shift rule**, evaluated
    /// through [`Backend::expectation`]: exact (to machine precision) for
    /// every differentiable gate kind of the IR, including the four-term
    /// rule for controlled rotations, and valid for *any* backend that can
    /// run the bound circuits — on a stochastic backend it differentiates
    /// the ensemble-averaged energy.
    /// Its cost is two to four full circuit executions **per bound gate**.
    ///
    /// The deterministic state-vector backends override this with the
    /// adjoint method ([`ghs_statevector::adjoint_gradient`]): one forward
    /// and one reverse sweep for the whole gradient, `O(P)` inner products —
    /// the CI perf gate enforces its ≥5× advantage at 20+ parameters.
    ///
    /// ```
    /// use ghs_circuit::ParameterizedCircuit;
    /// use ghs_core::backend::{Backend, FusedStatevector, InitialState};
    /// use ghs_math::c64;
    /// use ghs_operators::{PauliString, PauliSum};
    /// use ghs_statevector::GroupedPauliSum;
    ///
    /// // E(θ) = ⟨0|RY(θ)† Z RY(θ)|0⟩ = cos θ.
    /// let mut pc = ParameterizedCircuit::new(1, 1);
    /// pc.ry_p(0, 0, 1.0);
    /// let mut sum = PauliSum::zero(1);
    /// sum.push(c64(1.0, 0.0), PauliString::parse("Z").unwrap());
    /// let obs = GroupedPauliSum::new(&sum);
    /// let (e, g) = FusedStatevector
    ///     .expectation_gradient(&InitialState::ZeroState, &pc, &[0.6], &obs)
    ///     .unwrap();
    /// assert!((e - 0.6f64.cos()).abs() < 1e-12);
    /// assert!((g[0] + 0.6f64.sin()).abs() < 1e-12);
    /// ```
    fn expectation_gradient(
        &self,
        initial: &InitialState,
        circuit: &ParameterizedCircuit,
        params: &[f64],
        observable: &GroupedPauliSum,
    ) -> Result<(f64, Vec<f64>), BackendError> {
        let mut scratch = Circuit::new(0);
        circuit.bind_into(params, &mut scratch);
        let energy = self.expectation(initial, &scratch, observable)?;
        let mut eval = |c: &Circuit| self.expectation(initial, c, observable);
        let gradient = shift_gradient(&mut eval, circuit, params, &mut scratch)?;
        Ok((energy, gradient))
    }
}

/// The per-gate shift rule of one differentiable gate kind: `(coefficient,
/// shift)` pairs such that `dE/dθ = Σ_i c_i · E(θ + s_i)`.
///
/// Plain rotations and (keyed) phase gates generate two eigenvalue
/// differences `{0, ±1}` — the classic two-term `±π/2` rule. Controlled
/// rotations have generator eigenvalues `{0, ±1/2}`, whose differences
/// `{±1/2, ±1}` need the four-term rule. Global phases do not move the
/// energy at all.
fn shift_rule(gate: &Gate) -> Vec<(f64, f64)> {
    match gate {
        Gate::GlobalPhase(_) => vec![],
        Gate::Rx { .. }
        | Gate::Ry { .. }
        | Gate::Rz { .. }
        | Gate::Phase { .. }
        | Gate::KeyedPhase { .. } => vec![(0.5, FRAC_PI_2), (-0.5, -FRAC_PI_2)],
        Gate::McRx { controls, .. } | Gate::McRy { controls, .. } | Gate::McRz { controls, .. } => {
            if controls.is_empty() {
                return vec![(0.5, FRAC_PI_2), (-0.5, -FRAC_PI_2)];
            }
            // f'(0) = c₊·[f(π/2) − f(−π/2)] − c₋·[f(3π/2) − f(−3π/2)]
            // with c± = (√2 ± 1)/(4√2) — exact for frequencies {1/2, 1}.
            let c_plus = (SQRT_2 + 1.0) / (4.0 * SQRT_2);
            let c_minus = (SQRT_2 - 1.0) / (4.0 * SQRT_2);
            vec![
                (c_plus, FRAC_PI_2),
                (-c_plus, -FRAC_PI_2),
                (-c_minus, 3.0 * FRAC_PI_2),
                (c_minus, -3.0 * FRAC_PI_2),
            ]
        }
        other => panic!("gate {other} has no differentiable angle"),
    }
}

/// Shared parameter-shift engine: sums, over every binding of `circuit`, the
/// binding's shift-rule combination of shifted energy evaluations, chain
/// rule through the affine scale included. `eval` is charged two to four
/// calls per binding; its first failure aborts the sweep.
fn shift_gradient(
    eval: &mut dyn FnMut(&Circuit) -> Result<f64, BackendError>,
    circuit: &ParameterizedCircuit,
    params: &[f64],
    scratch: &mut Circuit,
) -> Result<Vec<f64>, BackendError> {
    let mut gradient = vec![0.0f64; circuit.num_params()];
    for (bi, binding) in circuit.bindings().iter().enumerate() {
        let rule = shift_rule(&circuit.template().gates()[binding.gate]);
        let mut dtheta = 0.0;
        for (coeff, shift) in rule {
            circuit.bind_shifted_into(params, bi, shift, scratch);
            dtheta += coeff * eval(scratch)?;
        }
        gradient[binding.expr.param] += binding.expr.scale * dtheta;
    }
    Ok(gradient)
}

/// Energy and gradient of a parameterized circuit by the **parameter-shift
/// rule** through an arbitrary backend — the oracle the adjoint engine is
/// property-tested against, and the benchmark baseline of the gradient perf
/// workloads. Identical to the [`Backend::expectation_gradient`] default
/// implementation (backends that override it with the adjoint method remain
/// reachable through this free function).
pub fn parameter_shift_gradient(
    backend: &dyn Backend,
    initial: &InitialState,
    circuit: &ParameterizedCircuit,
    params: &[f64],
    observable: &GroupedPauliSum,
) -> Result<(f64, Vec<f64>), BackendError> {
    let mut scratch = Circuit::new(0);
    circuit.bind_into(params, &mut scratch);
    let energy = backend.expectation(initial, &scratch, observable)?;
    let mut eval = |c: &Circuit| backend.expectation(initial, c, observable);
    let gradient = shift_gradient(&mut eval, circuit, params, &mut scratch)?;
    Ok((energy, gradient))
}

/// The production backend: fused gate-application engine (one cache-friendly
/// sweep per fused op, specialized diagonal/permutation/sparse/dense
/// kernels). Exact to machine precision; agrees with
/// [`ReferenceStatevector`] to `1e-12` on random circuits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStatevector;

impl Backend for FusedStatevector {
    fn name(&self) -> &'static str {
        "fused-statevector"
    }

    /// Fused execution, crossing over to the sharded engine at
    /// [`SHARDED_MIN_QUBITS`] qubits, where the flat sweep turns
    /// memory-bound. The two paths are bit-identical (the sharded engine
    /// replays the flat kernels' per-amplitude arithmetic and returns
    /// amplitudes in logical order), so the crossover is unobservable.
    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError> {
        if circuit.num_qubits() >= SHARDED_MIN_QUBITS {
            return ShardedStatevector.run(initial, circuit);
        }
        let mut s = initial.to_statevector(circuit.num_qubits(), self.name())?;
        s.run_fused(circuit);
        Ok(s)
    }

    /// Deterministic engine: build the alias table straight from the evolved
    /// state, skipping the intermediate probability vector of the default
    /// (ensemble-oriented) implementation. Same table, same shot stream.
    fn sample(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, BackendError> {
        Ok(self.run(initial, circuit)?.sample_cached(shots, seed))
    }

    /// Adjoint-mode gradient: one forward sweep, one reverse sweep, `O(P)`
    /// masked inner products — instead of the default's `O(P)` full
    /// simulations (see [`ghs_statevector::adjoint_gradient`]).
    fn expectation_gradient(
        &self,
        initial: &InitialState,
        circuit: &ParameterizedCircuit,
        params: &[f64],
        observable: &GroupedPauliSum,
    ) -> Result<(f64, Vec<f64>), BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let r = adjoint_gradient(&init, circuit, params, observable);
        Ok((r.energy, r.gradient))
    }
}

/// The dense scale backend: executes through
/// [`ghs_statevector::ShardedStateVector`] — amplitudes split into
/// cache-sized shards, hot qubits relabeled intra-shard
/// ([`ghs_circuit::QubitRelabeling`]), and consecutive shard-local fused ops
/// cache-blocked per shard. Bit-identical to [`FusedStatevector`] on every
/// circuit, for every shard count (`GHS_SHARD_COUNT`); intended for the
/// 24–30 qubit range where the flat sweep is memory-bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedStatevector;

impl Backend for ShardedStatevector {
    fn name(&self) -> &'static str {
        "sharded-statevector"
    }

    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let mut s = ShardedStateVector::from_state(&init);
        s.run(circuit);
        Ok(s.to_state())
    }

    /// Deterministic engine: sample straight from the evolved state (see
    /// [`FusedStatevector`]'s override).
    fn sample(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, BackendError> {
        Ok(self.run(initial, circuit)?.sample_cached(shots, seed))
    }

    /// Adjoint-mode gradient through the flat engine: the reverse sweep's
    /// inner products are layout-independent, and gradient workloads live
    /// well below the sharding crossover.
    fn expectation_gradient(
        &self,
        initial: &InitialState,
        circuit: &ParameterizedCircuit,
        params: &[f64],
        observable: &GroupedPauliSum,
    ) -> Result<(f64, Vec<f64>), BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let r = adjoint_gradient(&init, circuit, params, observable);
        Ok((r.energy, r.gradient))
    }
}

/// The reference backend: one full sweep per gate, no fusion. Slow but
/// obviously correct — the oracle the property tests pit every other backend
/// against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReferenceStatevector;

impl Backend for ReferenceStatevector {
    fn name(&self) -> &'static str {
        "reference-statevector"
    }

    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError> {
        let mut s = initial.to_statevector(circuit.num_qubits(), self.name())?;
        s.run_unfused(circuit);
        Ok(s)
    }

    /// Deterministic engine: sample straight from the evolved state (see
    /// [`FusedStatevector`]'s override).
    fn sample(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, BackendError> {
        Ok(self.run(initial, circuit)?.sample_cached(shots, seed))
    }

    /// Adjoint-mode gradient (see [`FusedStatevector`]'s override); the
    /// parameter-shift oracle stays reachable through
    /// [`parameter_shift_gradient`].
    fn expectation_gradient(
        &self,
        initial: &InitialState,
        circuit: &ParameterizedCircuit,
        params: &[f64],
        observable: &GroupedPauliSum,
    ) -> Result<(f64, Vec<f64>), BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let r = adjoint_gradient(&init, circuit, params, observable);
        Ok((r.energy, r.gradient))
    }
}

/// A seeded ensemble of noise trajectories, and the one loop that averages
/// it for [`PauliNoise`] and [`TrajectoryNoise`].
///
/// Trajectory `index` runs on its own RNG stream derived from
/// `(seed, index)`, so every ensemble quantity is a deterministic function
/// of the configuration. Scalars are summed in trajectory order and divided
/// by the ensemble size; probabilities are accumulated per basis state and
/// scaled by its inverse.
pub trait TrajectoryEnsemble: Backend {
    /// Number of trajectories averaged, never below one. A noiseless
    /// configuration consumes no RNG, so its trajectories are all the same
    /// per-gate sweep and the ensemble collapses to one simulation
    /// (identical result, `1/trajectories` the cost).
    fn ensemble_size(&self) -> usize;

    /// Runs trajectory `index` from a dense initial state.
    fn trajectory(&self, initial: &StateVector, circuit: &Circuit, index: usize) -> StateVector;

    /// The mean of `f` over the ensemble's final states.
    /// [`Backend::expectation`] passes the grouped Pauli functional; tests
    /// pass the sparse oracle ([`StateVector::expectation_sparse`]) to read
    /// the same trajectories.
    fn ensemble_mean(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        f: impl Fn(&StateVector) -> f64,
    ) -> Result<f64, BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let t = self.ensemble_size();
        Ok((0..t)
            .map(|index| f(&self.trajectory(&init, circuit, index)))
            .sum::<f64>()
            / t as f64)
    }

    /// Computational-basis probabilities averaged over the ensemble.
    fn ensemble_probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let t = self.ensemble_size();
        let mut acc = vec![0.0f64; init.dim()];
        for index in 0..t {
            let state = self.trajectory(&init, circuit, index);
            for (a, amp) in acc.iter_mut().zip(state.amplitudes()) {
                *a += amp.norm_sqr();
            }
        }
        let inv = 1.0 / t as f64;
        for a in &mut acc {
            *a *= inv;
        }
        Ok(acc)
    }
}

/// Stochastic Pauli-noise trajectory backend.
///
/// After every gate, each qubit in the gate's support is hit independently
/// by two classical error channels:
///
/// * **depolarizing** — with probability `depolarizing`, a uniformly random
///   Pauli (`X`, `Y` or `Z`) is applied;
/// * **dephasing** — with probability `dephasing`, a `Z` is applied.
///
/// One run of the circuit under one realisation of those coin flips is a
/// *trajectory*; ensemble quantities ([`Backend::probabilities`],
/// [`Backend::expectation`], [`Backend::sample`]) average `trajectories`
/// seeded trajectories. Trajectory `t` derives its RNG stream from
/// `(seed, t)` only, so every ensemble quantity is deterministic for a fixed
/// configuration.
///
/// At zero noise strength no RNG is consumed and each trajectory degenerates
/// to the per-gate reference path, so the backend agrees with
/// [`ReferenceStatevector`] exactly and with [`FusedStatevector`] to
/// `1e-12` (a property test enforces this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauliNoise {
    /// Per-qubit probability of a uniformly random Pauli after each gate.
    pub depolarizing: f64,
    /// Per-qubit probability of an extra `Z` after each gate.
    pub dephasing: f64,
    /// Number of trajectories averaged by the ensemble entry points.
    pub trajectories: usize,
    /// Master seed; trajectory `t` uses the stream derived from `(seed, t)`.
    pub seed: u64,
}

impl PauliNoise {
    /// A depolarizing-only channel of strength `p` averaged over
    /// `trajectories` trajectories.
    pub fn depolarizing(p: f64, trajectories: usize, seed: u64) -> Self {
        Self {
            depolarizing: p,
            dephasing: 0.0,
            trajectories,
            seed,
        }
    }

    /// A dephasing-only channel of strength `p` averaged over
    /// `trajectories` trajectories.
    pub fn dephasing(p: f64, trajectories: usize, seed: u64) -> Self {
        Self {
            depolarizing: 0.0,
            dephasing: p,
            trajectories,
            seed,
        }
    }
}

impl TrajectoryEnsemble for PauliNoise {
    /// One at zero noise strength, where every trajectory is the same
    /// RNG-free sweep.
    fn ensemble_size(&self) -> usize {
        if self.depolarizing <= 0.0 && self.dephasing <= 0.0 {
            1
        } else {
            self.trajectories.max(1)
        }
    }

    /// Gates applied one by one, error channels sampled per gate-support
    /// qubit from the trajectory's own stream.
    ///
    /// The domain tag keeps trajectory streams disjoint from the shot-chunk
    /// streams of [`CachedDistribution::sample_seeded`] even when a caller
    /// passes the same value as backend seed and sampling seed — otherwise
    /// the coin flips that shaped trajectory `k`'s noise would reappear as
    /// the draws of shot chunk `k`, correlating shots with the ensemble they
    /// sample from.
    fn trajectory(&self, initial: &StateVector, circuit: &Circuit, index: usize) -> StateVector {
        let mut rng =
            StdRng::seed_from_u64(derive_stream_seed(self.seed ^ TRAJECTORY_DOMAIN, index));
        let mut s = initial.clone();
        for gate in circuit.gates() {
            s.apply_gate(gate);
            for q in gate.qubits() {
                // The `> 0.0` guards keep the zero-noise backend RNG-free,
                // hence exactly equal to the reference path.
                if self.depolarizing > 0.0 && rng.gen_bool(self.depolarizing) {
                    let pauli = match rng.gen_range(0..3u32) {
                        0 => Gate::X(q),
                        1 => Gate::Y(q),
                        _ => Gate::Z(q),
                    };
                    s.apply_gate(&pauli);
                }
                if self.dephasing > 0.0 && rng.gen_bool(self.dephasing) {
                    s.apply_gate(&Gate::Z(q));
                }
            }
        }
        s
    }
}

impl Backend for PauliNoise {
    fn name(&self) -> &'static str {
        "pauli-noise-trajectories"
    }

    /// A statevector envelope with the stochastic flag raised: every output
    /// is a seeded trajectory-ensemble average.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: true,
            ..Capabilities::statevector()
        }
    }

    /// One trajectory (index 0). Ensemble-averaged quantities go through
    /// [`Backend::probabilities`] / [`Backend::expectation`] /
    /// [`Backend::sample`].
    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        Ok(self.trajectory(&init, circuit, 0))
    }

    fn probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        self.ensemble_probabilities(initial, circuit)
    }

    /// Matrix-free observable, averaged over the trajectory ensemble. At
    /// zero noise strength the single trajectory is the RNG-free per-gate
    /// reference sweep, so the value matches [`ReferenceStatevector`]'s
    /// **bit-exactly** (a regression test enforces this).
    fn expectation(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &GroupedPauliSum,
    ) -> Result<f64, BackendError> {
        self.ensemble_mean(initial, circuit, |s| s.expectation_grouped(observable).re)
    }
}

/// Domain tag of the noise-trajectory RNG streams, shared by [`PauliNoise`]
/// and [`TrajectoryNoise`] so a Pauli model expressed either way draws the
/// same coin flips. It keeps trajectory streams disjoint from the shot-chunk
/// streams of [`CachedDistribution::sample_seeded`] even when a caller
/// passes the same value as backend seed and sampling seed.
const TRAJECTORY_DOMAIN: u64 = 0x0074_7261_6a65_6374; // "traject"

/// Seeded Kraus-channel trajectory ensembles — the generalization of
/// [`PauliNoise`] from per-gate Pauli strengths to an arbitrary
/// [`NoiseModel`] of CPTP channels.
///
/// After every gate, each channel the model attaches to the gate's class is
/// sampled once per touched qubit from the trajectory's own RNG stream:
///
/// * **Pauli channels** (every Kraus operator proportional to a Pauli) keep
///   the cheap mask path — one coin flip, then a Pauli gate application;
///   a [`PauliNoise`] configuration converted through
///   [`TrajectoryNoise::from`] consumes the *identical* RNG stream, so the
///   two backends agree bit for bit;
/// * **general channels** (amplitude/phase damping, user Kraus sets) do
///   norm-weighted Kraus selection: branch `k` is chosen with probability
///   `‖K_k ψ‖²` and the state re-normalised — the standard quantum-
///   trajectory unravelling, whose ensemble average converges to the
///   density-matrix oracle ([`DensityMatrixBackend`]).
///
/// A noiseless model consumes no RNG at all, so every trajectory is the
/// per-gate reference sweep and the backend agrees with
/// [`ReferenceStatevector`] **bit-exactly** (a property test enforces this).
///
/// ```
/// use ghs_circuit::Circuit;
/// use ghs_core::backend::{Backend, InitialState, TrajectoryNoise};
/// use ghs_operators::kraus::{KrausChannel, NoiseModel};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let model = NoiseModel::noiseless().with_all_gates(KrausChannel::amplitude_damping(0.05));
/// let backend = TrajectoryNoise::new(model, 64, 7);
/// let probs = backend.probabilities(&InitialState::ZeroState, &bell).unwrap();
/// assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
/// // Deterministic for a fixed configuration.
/// assert_eq!(
///     probs,
///     backend.probabilities(&InitialState::ZeroState, &bell).unwrap()
/// );
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrajectoryNoise {
    /// Gate-class → channel map applied after every gate.
    pub model: NoiseModel,
    /// Number of trajectories averaged by the ensemble entry points.
    pub trajectories: usize,
    /// Master seed; trajectory `t` uses the stream derived from `(seed, t)`.
    pub seed: u64,
}

impl From<PauliNoise> for TrajectoryNoise {
    /// The Kraus-channel form of a [`PauliNoise`] configuration. The
    /// trajectory RNG streams are call-for-call identical, so ensemble
    /// quantities agree bit for bit.
    fn from(p: PauliNoise) -> Self {
        TrajectoryNoise {
            model: NoiseModel::pauli(p.depolarizing, p.dephasing),
            trajectories: p.trajectories,
            seed: p.seed,
        }
    }
}

impl TrajectoryNoise {
    /// A trajectory ensemble of `trajectories` seeded runs under `model`.
    pub fn new(model: NoiseModel, trajectories: usize, seed: u64) -> Self {
        TrajectoryNoise {
            model,
            trajectories,
            seed,
        }
    }

    /// Samples one channel application on `qubit`. Pauli channels use the
    /// cheap mask path (gate application, no renormalisation); general
    /// channels select a Kraus branch by its norm weight.
    fn sample_channel(
        state: &mut StateVector,
        qubit: usize,
        channel: &KrausChannel,
        rng: &mut StdRng,
    ) {
        if let Some([_, px, py, pz]) = channel.pauli_probabilities() {
            // Cheap mask path. The RNG call pattern mirrors `PauliNoise`:
            // one `gen_bool` per channel, plus a uniform `gen_range` only
            // when the error part is spread evenly over X/Y/Z — so Pauli
            // models expressed either way share their coin flips.
            let p_err = px + py + pz;
            if p_err <= 0.0 || !rng.gen_bool(p_err.min(1.0)) {
                return;
            }
            let weights = [px, py, pz];
            let nonzero = weights.iter().filter(|w| **w > 0.0).count();
            let choice = if nonzero == 1 {
                weights.iter().position(|w| *w > 0.0).unwrap()
            } else if (px - py).abs() < 1e-15 && (py - pz).abs() < 1e-15 {
                rng.gen_range(0..3u32) as usize
            } else {
                let mut u: f64 = rng.gen_range(0.0..1.0) * p_err;
                let mut idx = 2;
                for (i, w) in weights.iter().enumerate() {
                    if u < *w {
                        idx = i;
                        break;
                    }
                    u -= *w;
                }
                idx
            };
            let pauli = match choice {
                0 => Gate::X(qubit),
                1 => Gate::Y(qubit),
                _ => Gate::Z(qubit),
            };
            state.apply_gate(&pauli);
            return;
        }
        // General channel: branch k fires with probability ‖K_k ψ‖².
        // CPTP guarantees the weights sum to 1; the last branch absorbs
        // round-off.
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let ops = channel.ops();
        for (k, op) in ops.iter().enumerate() {
            let mut candidate = state.clone();
            candidate.apply_controlled_single_qubit(qubit, &[], op);
            let w = candidate.norm();
            acc += w * w;
            if u < acc || k + 1 == ops.len() {
                candidate.normalize();
                *state = candidate;
                return;
            }
        }
    }
}

impl TrajectoryEnsemble for TrajectoryNoise {
    /// One for a noiseless model, whose trajectories are all the same
    /// RNG-free sweep.
    fn ensemble_size(&self) -> usize {
        if self.model.is_noiseless() {
            1
        } else {
            self.trajectories.max(1)
        }
    }

    /// Runs one noise trajectory on the stream derived from `(seed, index)`
    /// under the domain tag [`PauliNoise`] uses too, so the two backends
    /// draw the same coin flips for a Pauli model.
    fn trajectory(&self, initial: &StateVector, circuit: &Circuit, index: usize) -> StateVector {
        let mut rng =
            StdRng::seed_from_u64(derive_stream_seed(self.seed ^ TRAJECTORY_DOMAIN, index));
        let mut s = initial.clone();
        for gate in circuit.gates() {
            s.apply_gate(gate);
            let touched = gate.qubits();
            let channels = self.model.channels_for(touched.len());
            for q in touched {
                for channel in channels {
                    Self::sample_channel(&mut s, q, channel, &mut rng);
                }
            }
        }
        s
    }
}

impl Backend for TrajectoryNoise {
    fn name(&self) -> &'static str {
        "trajectory-noise"
    }

    /// A statevector envelope with the stochastic flag raised: every output
    /// is a seeded trajectory-ensemble average.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: true,
            ..Capabilities::statevector()
        }
    }

    /// One trajectory (index 0). Ensemble-averaged quantities go through
    /// [`Backend::probabilities`] / [`Backend::expectation`] /
    /// [`Backend::sample`].
    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        Ok(self.trajectory(&init, circuit, 0))
    }

    fn probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        self.ensemble_probabilities(initial, circuit)
    }

    fn expectation(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &GroupedPauliSum,
    ) -> Result<f64, BackendError> {
        self.ensemble_mean(initial, circuit, |s| s.expectation_grouped(observable).re)
    }
}

/// The exact noisy-simulation oracle: evolves the full density matrix `ρ`
/// under the same [`NoiseModel`] the trajectory backend samples, via
/// superoperator application of fused blocks
/// ([`ghs_statevector::DensityMatrix`]).
///
/// Outputs are **exact** ensemble averages — what [`TrajectoryNoise`] must
/// converge to as `trajectories → ∞` (the CI noise-accuracy gate enforces
/// the statistical bound). The quadratic memory cost caps admission at
/// [`DensityMatrixBackend::MAX_QUBITS`] qubits through
/// [`Capabilities::max_qubits`], checked by the job service like any other
/// envelope.
///
/// [`Backend::run`] is a typed [`BackendError::DenseStateUnavailable`]: a
/// mixed state has no pure `2^n`-amplitude representation. Expectations,
/// probabilities, sampling and (shift-rule) gradients all work.
///
/// ```
/// use ghs_circuit::Circuit;
/// use ghs_core::backend::{Backend, DensityMatrixBackend, InitialState};
/// use ghs_operators::kraus::NoiseModel;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let exact = DensityMatrixBackend::new(NoiseModel::depolarizing(0.1));
/// let probs = exact.probabilities(&InitialState::ZeroState, &bell).unwrap();
/// assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// // Noise leaks probability outside the two ideal Bell outcomes.
/// assert!(probs[0b01] > 0.0 && probs[0b10] > 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DensityMatrixBackend {
    /// Noise channels applied during evolution (noiseless by default, which
    /// makes the backend an exact small-register statevector oracle).
    pub model: NoiseModel,
}

impl DensityMatrixBackend {
    /// Register cap: the vectorised `ρ` holds `4^n` amplitudes, so 12
    /// qubits already cost 256 MiB. Enforced at admission through
    /// [`Capabilities::max_qubits`].
    pub const MAX_QUBITS: usize = 12;

    /// A density-matrix oracle evolving under `model`.
    pub fn new(model: NoiseModel) -> Self {
        DensityMatrixBackend { model }
    }

    /// Evolves the initial state's density matrix through `circuit` under
    /// the backend's noise model — the shared path behind every trait entry
    /// point, also usable directly when the caller wants `ρ` itself.
    pub fn evolve(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<DensityMatrix, BackendError> {
        let n = circuit.num_qubits();
        if n > Self::MAX_QUBITS {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: Self::MAX_QUBITS,
                backend: self.name(),
            });
        }
        // `to_statevector` validates register size and basis range; basis
        // states skip the `O(4^n)` outer product.
        let psi = initial.to_statevector(n, self.name())?;
        let mut rho = match initial.basis_index() {
            Some(index) => DensityMatrix::basis_state(n, index),
            None => DensityMatrix::from_statevector(&psi),
        };
        rho.evolve(circuit, &self.model);
        Ok(rho)
    }
}

impl Backend for DensityMatrixBackend {
    fn name(&self) -> &'static str {
        "density-matrix"
    }

    /// Exact (non-stochastic) envelope with the quadratic-memory register
    /// cap; gradients go through the default shift rule over exact noisy
    /// expectations.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            max_qubits: Self::MAX_QUBITS,
            ..Capabilities::statevector()
        }
    }

    /// Always a typed error: a mixed state has no dense pure-state output.
    fn run(
        &self,
        _initial: &InitialState,
        _circuit: &Circuit,
    ) -> Result<StateVector, BackendError> {
        Err(BackendError::DenseStateUnavailable {
            backend: self.name(),
        })
    }

    /// The exact diagonal of `ρ` in the computational basis.
    fn probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        Ok(self.evolve(initial, circuit)?.probabilities())
    }

    /// Exact `tr(ρH)` through the vectorised mask sweep.
    fn expectation(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &GroupedPauliSum,
    ) -> Result<f64, BackendError> {
        Ok(self
            .evolve(initial, circuit)?
            .expectation_grouped(observable))
    }
}

/// Shots per parallel work unit of the stabilizer shot path. Each shot owns
/// a full tableau clone and collapse, so units are small; determinism does
/// not depend on the chunking (every shot derives its own RNG stream).
const STABILIZER_SHOT_CHUNK: usize = 16;

/// Domain tag separating the stabilizer per-shot streams from the dense
/// alias-table chunk streams and the noise-trajectory streams when a caller
/// reuses one seed across backends.
const STABILIZER_SHOT_DOMAIN: u64 = 0x0073_7461_6273_6d70; // "stabsmp"

/// The Clifford scale backend: an Aaronson–Gottesman stabilizer tableau
/// ([`ghs_stabilizer::StabilizerState`]) — `O(n²)` bits of state and
/// `O(n)` per gate instead of `O(2^n)` amplitudes, running Clifford
/// circuits at thousands of qubits.
///
/// What it serves, and how:
///
/// * [`Backend::sample_bits`] — the native shot path: the circuit is
///   conjugated into the tableau **once**, then every shot collapses a
///   clone of the prepared tableau under measurement, on its own RNG
///   stream derived from `(seed, shot)` — bit-identical across runs and
///   thread counts;
/// * [`Backend::sample`] — same outcomes as dense indices, for registers
///   that fit a machine word;
/// * [`Backend::expectation`] — Pauli-sum expectations read term by term
///   straight off the tableau (each string is exactly `0` or `±1`);
/// * [`Backend::probabilities`] — exact dyadic probabilities by branching
///   the measurement tree, capped at
///   [`STABILIZER_DENSE_MAX_QUBITS`] qubits (the output itself is `2^n`).
///
/// Everything outside the Clifford vocabulary is a typed error:
/// non-Clifford gates ([`BackendError::UnsupportedCircuit`]), dense initial
/// states ([`BackendError::InitialStateMismatch`]), dense state output
/// ([`BackendError::DenseStateUnavailable`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StabilizerBackend;

impl StabilizerBackend {
    /// Register cap: tableau memory is `n²/2` bytes, so 16 384 qubits cost
    /// 128 MiB — well past "thousands of qubits" while still bounding
    /// admission.
    pub const MAX_QUBITS: usize = 1 << 14;

    /// Conjugates `circuit` into a tableau starting from `initial` — the
    /// preparation the shot path runs once and `ghs_service` caches per
    /// circuit structure. Symbolic initial states only; the first
    /// non-Clifford gate aborts with a typed error.
    pub fn prepare(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<StabilizerState, BackendError> {
        let n = circuit.num_qubits();
        if n > Self::MAX_QUBITS {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: Self::MAX_QUBITS,
                backend: self.name(),
            });
        }
        let mut state = match initial {
            InitialState::ZeroState => StabilizerState::zero_state(n),
            InitialState::Basis(index) => {
                if n < usize::BITS as usize && *index >= (1usize << n) {
                    return Err(BackendError::InitialStateMismatch {
                        backend: self.name(),
                        detail: format!("basis index {index} out of range for {n} qubits"),
                    });
                }
                StabilizerState::basis_state(n, *index)
            }
            InitialState::Dense(_) => {
                return Err(BackendError::InitialStateMismatch {
                    backend: self.name(),
                    detail: "the tableau engine cannot ingest dense amplitudes".to_string(),
                })
            }
        };
        state
            .apply_circuit(circuit)
            .map_err(|e| BackendError::UnsupportedCircuit {
                gate: e.gate,
                backend: self.name(),
            })?;
        Ok(state)
    }

    /// Draws `shots` outcomes from a prepared tableau: shot `k` clones the
    /// tableau and measures every qubit under the RNG stream derived from
    /// `(seed, k)`. Chunks run rayon-parallel, but the output depends only
    /// on `(tableau, shots, seed)` — bit-identical across thread counts.
    pub fn sample_prepared(tableau: &StabilizerState, shots: usize, seed: u64) -> Vec<BitString> {
        let n = tableau.num_qubits();
        let mut out: Vec<BitString> = vec![BitString::zeros(0); shots];
        let fill = |base: usize, chunk: &mut [BitString]| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(
                    seed ^ STABILIZER_SHOT_DOMAIN,
                    base + k,
                ));
                let mut shot_state = tableau.clone();
                *slot = shot_state.measure_all(&mut rng);
            }
        };
        if shots > STABILIZER_SHOT_CHUNK {
            out.par_chunks_mut(STABILIZER_SHOT_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| fill(ci * STABILIZER_SHOT_CHUNK, chunk));
        } else {
            fill(0, &mut out);
        }
        debug_assert!(out.iter().all(|s| s.len() == n));
        out
    }
}

impl Backend for StabilizerBackend {
    fn name(&self) -> &'static str {
        "stabilizer-tableau"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            max_qubits: Self::MAX_QUBITS,
            clifford_only: true,
            stochastic: false,
            supports_gradients: false,
        }
    }

    /// The tableau has no `2^n`-amplitude representation to return.
    fn run(
        &self,
        _initial: &InitialState,
        _circuit: &Circuit,
    ) -> Result<StateVector, BackendError> {
        Err(BackendError::DenseStateUnavailable {
            backend: self.name(),
        })
    }

    /// Exact basis probabilities by branching the per-qubit measurement
    /// tree. The output vector itself is `2^n` long, so this entry point is
    /// capped at [`STABILIZER_DENSE_MAX_QUBITS`] qubits; wide registers
    /// should sample ([`Backend::sample_bits`]) or read observables
    /// ([`Backend::expectation`]) instead.
    fn probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        let n = circuit.num_qubits();
        if n > STABILIZER_DENSE_MAX_QUBITS {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: STABILIZER_DENSE_MAX_QUBITS,
                backend: self.name(),
            });
        }
        Ok(self.prepare(initial, circuit)?.basis_probabilities())
    }

    /// Pauli-sum expectation read off the tableau, term by term: each
    /// string either anticommutes with a stabilizer (`⟨P⟩ = 0`) or is a
    /// signed product of stabilizer generators (`⟨P⟩ = ±1`). The
    /// [`GroupedPauliSum`] mask representation caps the observable register
    /// at a machine word.
    fn expectation(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &GroupedPauliSum,
    ) -> Result<f64, BackendError> {
        let n = circuit.num_qubits();
        if n > usize::BITS as usize {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: usize::BITS as usize,
                backend: self.name(),
            });
        }
        let state = self.prepare(initial, circuit)?;
        let mut acc = Complex64::ZERO;
        for (coeff, x_mask, z_mask) in observable.string_masks() {
            acc += coeff * state.expectation_dense_masks(x_mask, z_mask);
        }
        Ok(acc.re)
    }

    /// Dense-index sampling for registers that fit a machine word; the
    /// outcomes are exactly [`Backend::sample_bits`]'s, re-encoded.
    fn sample(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, BackendError> {
        let n = circuit.num_qubits();
        if n > usize::BITS as usize {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: usize::BITS as usize,
                backend: self.name(),
            });
        }
        Ok(self
            .sample_bits(initial, circuit, shots, seed)?
            .into_iter()
            .map(|bits| {
                bits.to_index()
                    .expect("outcome fits a machine word by the register check above")
            })
            .collect())
    }

    /// The native stabilizer shot path: prepare the tableau once, collapse
    /// one clone per shot on per-shot derived RNG streams. This is the
    /// entry point that runs 1000-qubit GHZ sampling.
    fn sample_bits(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<BitString>, BackendError> {
        let tableau = self.prepare(initial, circuit)?;
        Ok(Self::sample_prepared(&tableau, shots, seed))
    }
}

/// Declarative description of a backend — the plain-data form a job
/// submission or a config file carries, turned into a live [`Backend`] with
/// [`BackendSpec::build`]. Unlike a boxed trait object it is `Clone`,
/// comparable and printable, which is what queued job specs need.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum BackendSpec {
    /// The fusion-accelerated statevector backend ([`FusedStatevector`]).
    #[default]
    Fused,
    /// The sharded cache-blocked statevector backend
    /// ([`ShardedStatevector`]).
    Sharded,
    /// The gate-by-gate reference backend ([`ReferenceStatevector`]).
    Reference,
    /// The Clifford stabilizer-tableau backend ([`StabilizerBackend`]).
    Stabilizer,
    /// A stochastic Pauli-noise ensemble ([`PauliNoise`]).
    Noisy {
        /// Per-qubit depolarizing probability after each gate.
        depolarizing: f64,
        /// Per-qubit dephasing probability after each gate.
        dephasing: f64,
        /// Trajectories averaged by the ensemble entry points.
        trajectories: usize,
        /// Master seed for the trajectory streams.
        seed: u64,
    },
    /// A Kraus-channel trajectory ensemble ([`TrajectoryNoise`]) — the
    /// general-noise form of [`BackendSpec::Noisy`].
    Trajectory {
        /// Gate-class → channel map applied after every gate.
        model: NoiseModel,
        /// Trajectories averaged by the ensemble entry points.
        trajectories: usize,
        /// Master seed for the trajectory streams.
        seed: u64,
    },
    /// The exact density-matrix oracle ([`DensityMatrixBackend`]).
    Density {
        /// Gate-class → channel map applied after every gate.
        model: NoiseModel,
    },
}

impl BackendSpec {
    /// Instantiates the described backend.
    pub fn build(&self) -> Box<dyn Backend + Send + Sync> {
        match self {
            BackendSpec::Fused => Box::new(FusedStatevector),
            BackendSpec::Sharded => Box::new(ShardedStatevector),
            BackendSpec::Reference => Box::new(ReferenceStatevector),
            BackendSpec::Stabilizer => Box::new(StabilizerBackend),
            BackendSpec::Noisy {
                depolarizing,
                dephasing,
                trajectories,
                seed,
            } => Box::new(PauliNoise {
                depolarizing: *depolarizing,
                dephasing: *dephasing,
                trajectories: *trajectories,
                seed: *seed,
            }),
            BackendSpec::Trajectory {
                model,
                trajectories,
                seed,
            } => Box::new(TrajectoryNoise::new(model.clone(), *trajectories, *seed)),
            BackendSpec::Density { model } => Box::new(DensityMatrixBackend::new(model.clone())),
        }
    }

    /// The described backend's [`Capabilities`], without boxing it.
    pub fn capabilities(&self) -> Capabilities {
        match self {
            BackendSpec::Fused | BackendSpec::Sharded | BackendSpec::Reference => {
                Capabilities::statevector()
            }
            BackendSpec::Stabilizer => StabilizerBackend.capabilities(),
            BackendSpec::Noisy { .. } | BackendSpec::Trajectory { .. } => Capabilities {
                stochastic: true,
                ..Capabilities::statevector()
            },
            BackendSpec::Density { .. } => Capabilities {
                max_qubits: DensityMatrixBackend::MAX_QUBITS,
                ..Capabilities::statevector()
            },
        }
    }

    /// Stable display name, matching [`backend_by_name`]'s vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Fused => "fused",
            BackendSpec::Sharded => "sharded",
            BackendSpec::Reference => "reference",
            BackendSpec::Stabilizer => "stabilizer",
            BackendSpec::Noisy { .. } => "noisy",
            BackendSpec::Trajectory { .. } => "trajectory",
            BackendSpec::Density { .. } => "density",
        }
    }
}

/// Looks a backend up by its selection name (see the README's backend
/// table): `"fused"`, `"sharded"`, `"reference"`, `"stabilizer"`,
/// `"noisy"` (depolarizing `1%`, 10 trajectories, seed 0), `"trajectory"`
/// (the Kraus form of the same default), or `"density"` (the exact
/// noiseless density-matrix oracle). Unknown names are a typed
/// [`BackendError::UnknownName`].
pub fn backend_by_name(name: &str) -> Result<Box<dyn Backend>, BackendError> {
    match name {
        "fused" => Ok(Box::new(FusedStatevector)),
        "sharded" => Ok(Box::new(ShardedStatevector)),
        "reference" => Ok(Box::new(ReferenceStatevector)),
        "stabilizer" => Ok(Box::new(StabilizerBackend)),
        "noisy" => Ok(Box::new(PauliNoise::depolarizing(0.01, 10, 0))),
        "trajectory" => Ok(Box::new(TrajectoryNoise::new(
            NoiseModel::depolarizing(0.01),
            10,
            0,
        ))),
        "density" => Ok(Box::new(DensityMatrixBackend::default())),
        other => Err(BackendError::UnknownName(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn fused_and_reference_agree_on_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let initial = InitialState::from(StateVector::random_state(6, &mut rng));
        let c = ghz_circuit(6);
        let f = FusedStatevector.run(&initial, &c).unwrap();
        let r = ReferenceStatevector.run(&initial, &c).unwrap();
        assert!(f.distance(&r) < 1e-12);
    }

    #[test]
    fn sharded_backend_is_bit_identical_to_fused() {
        let mut rng = StdRng::seed_from_u64(17);
        let initial = InitialState::from(StateVector::random_state(7, &mut rng));
        let c = ghz_circuit(7);
        let f = FusedStatevector.run(&initial, &c).unwrap();
        let s = ShardedStatevector.run(&initial, &c).unwrap();
        assert_eq!(f.amplitudes(), s.amplitudes());
        let zero = InitialState::ZeroState;
        assert_eq!(
            FusedStatevector.sample(&zero, &c, 512, 5).unwrap(),
            ShardedStatevector.sample(&zero, &c, 512, 5).unwrap()
        );
        assert_eq!(
            backend_by_name("sharded").unwrap().name(),
            "sharded-statevector"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let c = ghz_circuit(5);
        let zero = InitialState::ZeroState;
        let a = FusedStatevector.sample(&zero, &c, 2000, 11).unwrap();
        let b = FusedStatevector.sample(&zero, &c, 2000, 11).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s == 0 || s == 0b11111));
    }

    #[test]
    fn zero_noise_trajectories_match_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(8);
        let initial = InitialState::from(StateVector::random_state(5, &mut rng));
        let c = ghz_circuit(5);
        let noisy = PauliNoise::depolarizing(0.0, 4, 99);
        let r = ReferenceStatevector.run(&initial, &c).unwrap();
        assert_eq!(
            noisy.run(&initial, &c).unwrap(),
            r,
            "zero noise must be RNG-free"
        );
        let probs = noisy.probabilities(&initial, &c).unwrap();
        for (p, amp) in probs.iter().zip(r.amplitudes()) {
            assert!((p - amp.norm_sqr()).abs() < 1e-15);
        }
    }

    #[test]
    fn noise_decoheres_the_ghz_state() {
        // With noise on, the GHZ sampling distribution leaks outside the two
        // ideal outcomes.
        let c = ghz_circuit(5);
        let zero = InitialState::ZeroState;
        let noisy = PauliNoise::depolarizing(0.2, 20, 7);
        let probs = noisy.probabilities(&zero, &c).unwrap();
        let ideal_mass = probs[0] + probs[0b11111];
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(ideal_mass < 0.999, "noise left the state untouched");
    }

    #[test]
    fn noisy_ensemble_quantities_are_deterministic() {
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let noisy = PauliNoise {
            depolarizing: 0.05,
            dephasing: 0.02,
            trajectories: 6,
            seed: 21,
        };
        assert_eq!(
            noisy.probabilities(&zero, &c).unwrap(),
            noisy.probabilities(&zero, &c).unwrap()
        );
        assert_eq!(
            noisy.sample(&zero, &c, 500, 3).unwrap(),
            noisy.sample(&zero, &c, 500, 3).unwrap()
        );
    }

    #[test]
    fn adjoint_and_shift_gradients_agree_on_all_gate_kinds() {
        use ghs_circuit::ControlBit;
        use ghs_operators::{PauliString, PauliSum};
        // A circuit touching every differentiable kind, including a
        // controlled rotation (exercising the four-term shift rule).
        let mut pc = ParameterizedCircuit::new(3, 4);
        pc.h_fixed(0).h_fixed(1).h_fixed(2);
        pc.rx_p(0, 0, 1.0)
            .ry_p(1, 1, -0.8)
            .rz_p(2, 2, 0.6)
            .phase_p(1, 3, 1.1)
            .keyed_phase_p(vec![ControlBit::one(0), ControlBit::zero(2)], 0, 0.9)
            .mcry_p(vec![ControlBit::one(0)], 2, 1, 0.7)
            .mcrz_p(vec![ControlBit::one(1), ControlBit::zero(0)], 2, 2, -1.2);
        let mut sum = PauliSum::zero(3);
        sum.push(ghs_math::c64(0.7, 0.0), PauliString::parse("ZIZ").unwrap());
        sum.push(ghs_math::c64(-0.5, 0.0), PauliString::parse("XYI").unwrap());
        sum.push(ghs_math::c64(0.4, 0.0), PauliString::parse("IXX").unwrap());
        let obs = GroupedPauliSum::new(&sum);
        let zero = InitialState::ZeroState;
        let params = [0.31, -0.62, 0.47, 1.05];

        let (e_adj, g_adj) = FusedStatevector
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let (e_ref, g_ref) = ReferenceStatevector
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let (e_shift, g_shift) =
            parameter_shift_gradient(&FusedStatevector, &zero, &pc, &params, &obs).unwrap();
        assert!((e_adj - e_shift).abs() < 1e-12);
        assert!((e_adj - e_ref).abs() < 1e-12);
        for k in 0..4 {
            assert!(
                (g_adj[k] - g_shift[k]).abs() < 1e-10,
                "component {k}: adjoint {} vs shift {}",
                g_adj[k],
                g_shift[k]
            );
            assert!((g_adj[k] - g_ref[k]).abs() < 1e-10);
        }
    }

    #[test]
    fn noisy_backend_falls_back_to_parameter_shift() {
        use ghs_operators::{PauliString, PauliSum};
        let mut pc = ParameterizedCircuit::new(2, 2);
        pc.h_fixed(0);
        pc.ry_p(0, 0, 1.0)
            .mcrx_p(vec![ghs_circuit::ControlBit::one(0)], 1, 1, 0.9);
        let mut sum = PauliSum::zero(2);
        sum.push(ghs_math::c64(1.0, 0.0), PauliString::parse("ZZ").unwrap());
        let obs = GroupedPauliSum::new(&sum);
        let zero = InitialState::ZeroState;
        let params = [0.4, -0.8];
        // Zero-strength noise is RNG-free: its shift gradient must equal the
        // reference backend's adjoint gradient to tight tolerance.
        let quiet = PauliNoise::depolarizing(0.0, 3, 7);
        let (e_q, g_q) = quiet
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let (e_r, g_r) = ReferenceStatevector
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        assert!((e_q - e_r).abs() < 1e-12);
        for k in 0..2 {
            assert!((g_q[k] - g_r[k]).abs() < 1e-10, "component {k}");
        }
        // At non-zero strength the gradient is of the *ensemble* energy:
        // still deterministic for a fixed configuration.
        let noisy = PauliNoise::depolarizing(0.05, 4, 11);
        let a = noisy
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let b = noisy
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn expectation_through_trait_object() {
        // Object safety: drive a `&dyn Backend` end to end, through both the
        // matrix-free path and the sparse oracle read off its `run` output.
        use ghs_operators::{PauliString, PauliSum};
        let backend: Box<dyn Backend> = backend_by_name("fused").unwrap();
        let mut c = Circuit::new(1);
        c.h(0);
        let mut sum = PauliSum::zero(1);
        sum.push(ghs_math::c64(1.0, 0.0), PauliString::parse("X").unwrap());
        let grouped = GroupedPauliSum::new(&sum);
        let zero = InitialState::ZeroState;
        let e = backend.expectation(&zero, &c, &grouped).unwrap();
        assert!((e - 1.0).abs() < 1e-12, "⟨+|X|+⟩ = 1, got {e}");
        let x = ghs_math::SparseMatrix::from_dense(&ghs_circuit::matrices::x(), 0.0);
        let oracle = backend.run(&zero, &c).unwrap().expectation_sparse(&x).re;
        assert!(
            (e - oracle).abs() < 1e-12,
            "matrix-free {e} vs oracle {oracle}"
        );
        assert!(matches!(
            backend_by_name("unknown"),
            Err(BackendError::UnknownName(_))
        ));
    }

    #[test]
    fn stabilizer_backend_samples_wide_ghz_registers() {
        let n = 256;
        let c = ghz_circuit(n);
        let backend = backend_by_name("stabilizer").unwrap();
        let shots = backend
            .sample_bits(&InitialState::ZeroState, &c, 64, 5)
            .unwrap();
        assert_eq!(shots.len(), 64);
        let mut seen = [false; 2];
        for s in &shots {
            let ones = s.count_ones();
            assert!(ones == 0 || ones == n, "GHZ shot mixed: {ones} ones");
            seen[usize::from(ones == n)] = true;
        }
        assert!(seen[0] && seen[1], "64 GHZ shots never split");
        // Bit-identical reruns under the same seed.
        assert_eq!(
            shots,
            backend
                .sample_bits(&InitialState::ZeroState, &c, 64, 5)
                .unwrap()
        );
    }

    #[test]
    fn stabilizer_typed_errors_cover_every_unsupported_request() {
        let backend = StabilizerBackend;
        let zero = InitialState::ZeroState;
        let mut non_clifford = Circuit::new(2);
        non_clifford.h(0).rz(1, 0.4);
        assert!(matches!(
            backend.sample(&zero, &non_clifford, 8, 0),
            Err(BackendError::UnsupportedCircuit { .. })
        ));
        let bell = ghz_circuit(2);
        assert!(matches!(
            backend.run(&zero, &bell),
            Err(BackendError::DenseStateUnavailable { .. })
        ));
        let dense = InitialState::from(StateVector::zero_state(2));
        assert!(matches!(
            backend.sample(&dense, &bell, 8, 0),
            Err(BackendError::InitialStateMismatch { .. })
        ));
        let wide = ghz_circuit(STABILIZER_DENSE_MAX_QUBITS + 1);
        assert!(matches!(
            backend.probabilities(&zero, &wide),
            Err(BackendError::RegisterTooLarge { .. })
        ));
    }

    #[test]
    fn capabilities_describe_each_backend() {
        assert!(!FusedStatevector.capabilities().clifford_only);
        assert!(FusedStatevector.capabilities().supports_gradients);
        assert!(
            PauliNoise::depolarizing(0.01, 4, 0)
                .capabilities()
                .stochastic
        );
        let caps = StabilizerBackend.capabilities();
        assert!(caps.clifford_only && !caps.supports_gradients);
        assert!(caps.max_qubits >= 1000, "must admit 1000-qubit registers");
        let density_caps = DensityMatrixBackend::default().capabilities();
        assert_eq!(density_caps.max_qubits, DensityMatrixBackend::MAX_QUBITS);
        assert!(!density_caps.stochastic && density_caps.supports_gradients);
        for spec in [
            BackendSpec::Fused,
            BackendSpec::Sharded,
            BackendSpec::Reference,
            BackendSpec::Stabilizer,
            BackendSpec::Noisy {
                depolarizing: 0.01,
                dephasing: 0.0,
                trajectories: 4,
                seed: 0,
            },
            BackendSpec::Trajectory {
                model: NoiseModel::depolarizing(0.01),
                trajectories: 4,
                seed: 0,
            },
            BackendSpec::Density {
                model: NoiseModel::noiseless(),
            },
        ] {
            assert_eq!(spec.capabilities(), spec.build().capabilities());
        }
    }

    #[test]
    fn trajectory_noise_reproduces_pauli_noise_bit_for_bit() {
        // A Pauli model expressed through the Kraus machinery consumes the
        // identical RNG stream: ensemble quantities agree exactly.
        use ghs_operators::{PauliString, PauliSum};
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let pauli = PauliNoise {
            depolarizing: 0.08,
            dephasing: 0.03,
            trajectories: 6,
            seed: 41,
        };
        let kraus = TrajectoryNoise::from(pauli);
        assert_eq!(
            pauli.probabilities(&zero, &c).unwrap(),
            kraus.probabilities(&zero, &c).unwrap()
        );
        let mut sum = PauliSum::zero(4);
        sum.push(ghs_math::c64(1.0, 0.0), PauliString::parse("ZZII").unwrap());
        sum.push(ghs_math::c64(0.5, 0.0), PauliString::parse("XIXI").unwrap());
        let obs = GroupedPauliSum::new(&sum);
        assert_eq!(
            pauli.expectation(&zero, &c, &obs).unwrap(),
            kraus.expectation(&zero, &c, &obs).unwrap()
        );
    }

    #[test]
    fn zero_strength_kraus_trajectories_match_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(23);
        let initial = InitialState::from(StateVector::random_state(5, &mut rng));
        let c = ghz_circuit(5);
        // Zero-strength constructors collapse to trivial channels, which the
        // model drops: the backend must be RNG-free and bit-identical to the
        // reference path.
        let model = NoiseModel::noiseless()
            .with_all_gates(KrausChannel::amplitude_damping(0.0))
            .with_all_gates(KrausChannel::phase_damping(0.0))
            .with_all_gates(KrausChannel::depolarizing(0.0));
        assert!(model.is_noiseless());
        let quiet = TrajectoryNoise::new(model, 4, 99);
        let r = ReferenceStatevector.run(&initial, &c).unwrap();
        assert_eq!(quiet.run(&initial, &c).unwrap(), r);
    }

    #[test]
    fn general_kraus_trajectories_are_deterministic_and_normalised() {
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let model = NoiseModel::noiseless()
            .with_all_gates(KrausChannel::amplitude_damping(0.1))
            .with_single_qubit(KrausChannel::phase_damping(0.05));
        let noisy = TrajectoryNoise::new(model, 8, 13);
        let a = noisy.probabilities(&zero, &c).unwrap();
        let b = noisy.probabilities(&zero, &c).unwrap();
        assert_eq!(a, b, "seeded ensembles must be deterministic");
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        // Amplitude damping pulls weight towards |0…0⟩ relative to |1…1⟩.
        assert!(a[0] > a[0b1111]);
    }

    #[test]
    fn density_backend_is_exact_oracle_on_noiseless_circuits() {
        use ghs_operators::{PauliString, PauliSum};
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let mut sum = PauliSum::zero(4);
        sum.push(ghs_math::c64(0.8, 0.0), PauliString::parse("ZZII").unwrap());
        sum.push(
            ghs_math::c64(-0.3, 0.0),
            PauliString::parse("XXXX").unwrap(),
        );
        let obs = GroupedPauliSum::new(&sum);
        let exact = DensityMatrixBackend::default();
        let dense = FusedStatevector.expectation(&zero, &c, &obs).unwrap();
        let mixed = exact.expectation(&zero, &c, &obs).unwrap();
        assert!((dense - mixed).abs() < 1e-10, "dense {dense} vs ρ {mixed}");
        // Typed errors: no dense state, and a hard register cap.
        assert!(matches!(
            exact.run(&zero, &c),
            Err(BackendError::DenseStateUnavailable { .. })
        ));
        let wide = ghz_circuit(DensityMatrixBackend::MAX_QUBITS + 1);
        assert!(matches!(
            exact.probabilities(&zero, &wide),
            Err(BackendError::RegisterTooLarge { .. })
        ));
    }

    #[test]
    fn basis_initial_state_matches_dense_preparation() {
        let c = ghz_circuit(4);
        let symbolic = FusedStatevector
            .run(&InitialState::basis(0b1010), &c)
            .unwrap();
        let dense = FusedStatevector
            .run(&InitialState::from(StateVector::basis_state(4, 0b1010)), &c)
            .unwrap();
        assert_eq!(symbolic.amplitudes(), dense.amplitudes());
        // Out-of-range indices are typed errors on every engine.
        assert!(matches!(
            FusedStatevector.run(&InitialState::basis(16), &c),
            Err(BackendError::InitialStateMismatch { .. })
        ));
        assert!(matches!(
            StabilizerBackend.sample(&InitialState::basis(16), &c, 4, 0),
            Err(BackendError::InitialStateMismatch { .. })
        ));
    }
}
