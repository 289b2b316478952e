//! # ghs-chemistry
//!
//! Electronic-structure application of the gate-efficient Hamiltonian
//! simulation library (Section V-B of the paper): Fermi–Hubbard and H₂
//! model Hamiltonians, Jordan–Wigner qubit Hamiltonians gathered into SCB
//! terms, exact individual electronic-transition circuits, a UCCSD-style
//! ansatz whose factors are exact transitions, a VQE-lite driver, and the
//! direct-vs-usual Trotter-error comparison.

#![warn(missing_docs)]

pub mod models;
pub mod transitions;
pub mod trotter_error;
pub mod uccsd;

pub use models::{
    h2_sto3g, h2_sto3g_integrals, hubbard_chain, model_from_integrals, spin_orbital, spin_orbitals,
    ElectronicModel, TwoOrbitalIntegrals,
};
pub use transitions::{transition_resources, ElectronicTransition, TransitionResources};
pub use trotter_error::{trotter_error_sweep, TrotterErrorRow};
pub use uccsd::{
    run_vqe, uccsd_circuit, uccsd_energy, uccsd_parameterized, uccsd_pool, Excitation, VqeResult,
};
