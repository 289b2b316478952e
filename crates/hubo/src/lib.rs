//! # ghs-hubo
//!
//! High-order Unconstrained Binary Optimization application of the
//! gate-efficient Hamiltonian-simulation library (Section V-A of the paper):
//! boolean (`n̂`) and Ising (`Ẑ`) problem formalisms with exact conversions,
//! instance generators (dense, sparse high-order, hypergraph max-cut,
//! knapsack), the direct and usual phase-separation circuits, a QAOA driver,
//! and the crossover / scaling analyses of the paper's evaluation.

#![warn(missing_docs)]

pub mod circuits;
pub mod crossover;
pub mod gas;
pub mod problem;
pub mod qaoa;

pub use circuits::{
    direct_phase_separator, direct_separator_resources, table3_rows, usual_phase_separator,
    usual_separator_resources, GateCensus, SeparatorResources, Table3Row,
};
pub use crossover::{
    crossover_table, measured_crossover, measured_sparse_counts, sparse_scaling_table,
    CrossoverRow, SparseScalingRow,
};
pub use gas::{
    cost_register_circuit, decode_assignment, decode_value, gas_cost_observable,
    grover_adaptive_search, grover_expected_cost, grover_round_circuit, GasResult,
};
pub use problem::{
    hubo_phase_hamiltonian, knapsack_hubo, random_dense_hubo, random_hypergraph_maxcut,
    random_sparse_hubo, HuboProblem, IsingProblem,
};
pub use qaoa::{
    optimize_qaoa, qaoa_circuit, qaoa_energy, qaoa_parameterized, qaoa_sample, QaoaParameters,
    QaoaResult, SeparatorStrategy,
};
