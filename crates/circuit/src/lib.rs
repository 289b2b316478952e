//! # ghs-circuit
//!
//! Quantum-circuit intermediate representation for the gate-efficient
//! Hamiltonian-simulation workspace: a gate set with polarity-aware
//! multi-controls and keyed phases (the natural image of the paper's `n`/`m`
//! operator family), circuit construction and resource metrics, the linear
//! and pyramidal CX ladders of Figs. 2/3/25, an exact ancilla-free
//! decomposition pass to the `{1-qubit, CX}` basis, the analytic
//! Barenco-style cost models the paper quotes for its comparisons, the gate
//! fusion pass (structural [`FusionPlan`] + numeric emission), and the
//! [`ParameterizedCircuit`] template IR for variational workloads
//! (in-place angle rebinding, fusion-plan reuse across bindings).

#![warn(missing_docs)]

pub mod circuit;
pub mod costmodel;
pub mod decompose;
pub mod fusion;
pub mod gate;
pub mod ladder;
pub mod param;
pub mod qft;
pub mod relabel;
pub mod reorder;
pub mod structural;

pub use circuit::{Circuit, ResourceCounts};
pub use decompose::{decompose_to_cx_basis, decomposed_two_qubit_count, NativeBasis};
pub use fusion::{
    plan_fusion, plan_fusion_in_order, FusedCircuit, FusedKernel, FusedOp, FusionPlan,
    SparseComponent, MAX_DENSE_QUBITS,
};
pub use gate::{matrices, ControlBit, Gate, GateKind};
pub use ladder::{parity_ladder, transition_ladder, LadderStyle, ParityLadder, TransitionLadder};
pub use param::{Binding, ParamExpr, ParameterizedCircuit};
pub use qft::{inverse_qft, qft};
pub use relabel::{exchange_count, QubitRelabeling};
pub use reorder::{commutation_schedule, gates_commute};
pub use structural::StructuralKey;
