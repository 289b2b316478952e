//! # ghs-core
//!
//! The primary contribution of the reproduced paper: **direct Hamiltonian
//! simulation** of Single-Component-Basis terms (one exact exponential
//! circuit per summed term, Fig. 2), its composition into Trotter–Suzuki and
//! qDRIFT evolutions, the per-term **block-encoding with at most six
//! unitaries** (Section IV), the non-Hermitian dilation of Section V-E, the
//! reduced-observable expectation estimation of Annex C, and the
//! direct-vs-usual resource comparison machinery.
//!
//! Substrates (operator algebra, circuit IR, state-vector simulation) live in
//! the sibling crates `ghs-operators`, `ghs-circuit` and `ghs-statevector`.
//! Execution is abstracted behind the pluggable [`backend::Backend`] trait
//! (fused / reference / stochastic-noise engines with a shared batched shot
//! sampler); the application layers are written against it.

#![warn(missing_docs)]

pub mod backend;
pub mod block_encoding;
pub mod compare;
pub mod dilation;
pub mod direct;
pub mod measurement;
pub mod mitigation;
pub mod optimize;
pub mod trotter;
pub mod usual;

pub use backend::{
    backend_by_name, parameter_shift_gradient, Backend, BackendError, BackendSpec, Capabilities,
    DensityMatrixBackend, FusedStatevector, InitialState, PauliNoise, ReferenceStatevector,
    ShardedStatevector, StabilizerBackend, TrajectoryNoise,
};
pub use block_encoding::{
    block_encode_hamiltonian, block_encode_lcu, block_encode_term, term_lcu,
    term_lcu_unitary_count, BlockEncoding, LcuUnitary, TransitionX,
};
pub use compare::{compare_strategies, usual_analytic_counts, ResourceReport, StrategyComparison};
pub use dilation::NonHermitianOperator;
pub use direct::{
    direct_hamiltonian_slice, direct_term_circuit, ComplexCoefficientMode, DirectOptions,
};
pub use measurement::TermMeasurement;
pub use mitigation::{
    extrapolate_to_zero, fold_global, zero_noise_extrapolation, ExtrapolationMethod,
    ReadoutCalibration, ZneResult,
};
pub use optimize::{minimize_adam, AdamOptions, OptimizeResult};
pub use trotter::{
    direct_product_formula, mpf_state, mpf_state_error, product_formula_circuit, qdrift_circuit,
    richardson_weights, state_error, unitary_error, usual_product_formula, ProductFormula,
    Strategy,
};
pub use usual::{
    pauli_string_exponential, usual_hamiltonian_slice, usual_rotation_count, usual_two_qubit_count,
};
