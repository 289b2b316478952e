//! Commutation-aware gate reordering for the fusion pass.
//!
//! The greedy fusion scan ([`crate::fusion::plan_fusion`]) only merges a
//! gate into the *latest* block touching its qubits, so an unlucky
//! interleaving — a CX ladder with RZ layers woven through it, a random
//! circuit alternating between distant qubit pairs — breaks what could be
//! one block into many. Most of those interleavings are artifacts of
//! circuit *construction* order, not of true data dependencies: many
//! adjacent gates commute and may be swapped freely.
//!
//! This pass recovers that freedom with three sound commutation rules,
//! checked structurally (never numerically, so a plan stays valid across
//! angle rebindings):
//!
//! 1. **Disjoint supports** — gates touching no common qubit always
//!    commute.
//! 2. **Diagonal–diagonal** — gates that are both diagonal in the
//!    computational basis (RZ/phase/keyed-phase/CZ chains) commute even on
//!    overlapping qubits.
//! 3. **Z-control** — a *control* qubit of a controlled gate is acted on
//!    diagonally (the gate is block-diagonal in that qubit's Z basis), so
//!    two gates sharing a qubit commute whenever **each** of them acts
//!    diagonally on **every** shared qubit — e.g. `CX(a→t)` commutes with
//!    `RZ(a)`, with `CX(a→u)` for `u ≠ t`, and with `CZ(a,b)`.
//!
//! Rule 3 subsumes the first two: assign every gate a per-qubit role —
//! *diagonal* (control bits of either polarity, and every qubit of a
//! diagonal gate) or *general* (targets of X-like actions, both legs of a
//! SWAP) — and two gates commute when neither's *general* set meets the
//! other's support. This is sound because amplitudes can be grouped into
//! sectors by the computational-basis value of the shared qubits: both
//! gates preserve every sector and act on it as (diagonal scalar) ×
//! (unitary on the disjoint remainder), and such actions commute
//! sector-by-sector.
//!
//! The scheduler builds the dependency DAG of *non-commuting* pairs, then
//! list-schedules it greedily with a fusion-affinity heuristic: among ready
//! gates it prefers one that fits the block the fusion scan is currently
//! growing (same support-union limits as the scan itself), flushing to the
//! lowest-index ready gate when nothing fits. The result is a permutation
//! of the gate indices — a valid linear extension of the DAG, hence a
//! circuit with the *same unitary* — that bubbles fusable gates together
//! before planning. [`crate::fusion::plan_fusion`] runs the scan over both
//! the original and the scheduled order and keeps whichever yields fewer
//! blocks, so the fusion ratio never decreases.

use crate::circuit::Circuit;
use crate::fusion::{is_diagonal_gate, DENSE_LIMIT, DIAGONAL_LIMIT};
use crate::gate::Gate;
use std::collections::BTreeSet;

/// Per-gate commutation structure: full support plus the subset of qubits
/// the gate acts on non-diagonally.
struct GateRoles {
    /// All qubits the gate touches, sorted ascending.
    support: Vec<usize>,
    /// Qubits on which the gate is *not* Z-diagonal (targets of X-like
    /// actions, both legs of a SWAP), sorted ascending. Empty for diagonal
    /// gates and for control bits of either polarity.
    general: Vec<usize>,
}

fn gate_roles(gate: &Gate) -> GateRoles {
    let mut support = gate.qubits();
    support.sort_unstable();
    let mut general: Vec<usize> = if is_diagonal_gate(gate) {
        Vec::new()
    } else {
        match gate {
            Gate::Cx { target, .. }
            | Gate::McX { target, .. }
            | Gate::McRx { target, .. }
            | Gate::McRy { target, .. } => vec![*target],
            Gate::Swap { a, b } => vec![*a, *b],
            // Non-diagonal single-qubit gates act generally on their qubit.
            other => other.qubits(),
        }
    };
    general.sort_unstable();
    GateRoles { support, general }
}

/// True when the two gates commute under the structural rules of this
/// module (a sound under-approximation of true commutation): neither
/// gate's *general* qubits meet the other's support.
pub fn gates_commute(a: &Gate, b: &Gate) -> bool {
    let ra = gate_roles(a);
    let rb = gate_roles(b);
    let meets = |x: &[usize], y: &[usize]| x.iter().any(|q| y.binary_search(q).is_ok());
    !meets(&ra.general, &rb.support) && !meets(&rb.general, &ra.support)
}

/// Computes a fusion-friendly execution order for the circuit's gates: a
/// permutation of `0..circuit.len()` that is a valid linear extension of
/// the non-commutation DAG (so replaying the gates in this order yields
/// the same unitary) with commuting gates bubbled together by support
/// affinity. Purely structural — independent of gate angles — so the order
/// is stable across parameter rebindings of the same template.
pub fn commutation_schedule(circuit: &Circuit) -> Vec<usize> {
    let gates = circuit.gates();
    let n = gates.len();
    let roles: Vec<GateRoles> = gates.iter().map(gate_roles).collect();

    // Dependency DAG over non-commuting pairs, built per qubit: a *general*
    // action on q conflicts with everything since the previous general
    // action on q; a *diagonal* action only conflicts with that previous
    // general action. Transitive edges are skipped where cheap (paths cover
    // them), duplicates are deduped per gate.
    let num_qubits = circuit.num_qubits();
    let mut last_general: Vec<Option<usize>> = vec![None; num_qubits];
    let mut diag_since: Vec<Vec<usize>> = vec![Vec::new(); num_qubits];
    let mut preds: Vec<usize> = vec![0; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut scratch: Vec<usize> = Vec::new();
    for (gi, r) in roles.iter().enumerate() {
        scratch.clear();
        for &q in &r.support {
            let is_general = r.general.binary_search(&q).is_ok();
            if is_general {
                if let Some(p) = last_general[q] {
                    scratch.push(p);
                }
                scratch.append(&mut diag_since[q]);
                last_general[q] = Some(gi);
            } else {
                if let Some(p) = last_general[q] {
                    scratch.push(p);
                }
                diag_since[q].push(gi);
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        for &p in &scratch {
            succs[p].push(gi);
            preds[gi] += 1;
        }
    }

    // Greedy list scheduling with fusion affinity: keep a current cluster
    // (support union + diagonality, mirroring the fusion scan's merge
    // limits) and among ready gates pick the lowest-index one that fits it;
    // when nothing fits, flush and seed a new cluster with the lowest-index
    // ready gate. Ties always break toward the original order, so the
    // schedule is deterministic and degenerates to the identity on circuits
    // with no commutation freedom.
    let mut ready: BTreeSet<usize> = (0..n).filter(|&gi| preds[gi] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut cluster: Vec<usize> = Vec::new();
    let mut cluster_diag = false;
    let mut cluster_open = false;

    let fits_cluster = |cluster: &[usize], cluster_diag: bool, gi: usize| -> bool {
        let r = &roles[gi];
        let diag = r.general.is_empty();
        if r.support.is_empty() {
            // Global phases ride along anywhere.
            return true;
        }
        let alone_limit = if diag { DIAGONAL_LIMIT } else { DENSE_LIMIT };
        if r.support.len() > alone_limit {
            return false; // passthrough-wide: never joins a cluster
        }
        let mut shares = false;
        let mut union = cluster.len();
        for q in &r.support {
            if cluster.binary_search(q).is_ok() {
                shares = true;
            } else {
                union += 1;
            }
        }
        // Mirror the fusion scan's merge reach: a gate joins the current
        // block only through a shared qubit (the scan's `target`), except
        // diagonal-into-diagonal coalescing which also spans disjoint
        // supports.
        if !(shares || (diag && cluster_diag)) {
            return false;
        }
        if cluster_diag && diag {
            union <= DIAGONAL_LIMIT
        } else {
            union <= DENSE_LIMIT
        }
    };

    while let Some(&first) = ready.iter().next() {
        let pick = if cluster_open {
            ready
                .iter()
                .copied()
                .find(|&gi| fits_cluster(&cluster, cluster_diag, gi))
                .unwrap_or(first)
        } else {
            first
        };
        ready.remove(&pick);
        let r = &roles[pick];
        let diag = r.general.is_empty();
        let wide = !r.support.is_empty()
            && r.support.len() > if diag { DIAGONAL_LIMIT } else { DENSE_LIMIT };
        if !r.support.is_empty() {
            if cluster_open && fits_cluster(&cluster, cluster_diag, pick) {
                for q in &r.support {
                    if let Err(i) = cluster.binary_search(q) {
                        cluster.insert(i, *q);
                    }
                }
                cluster_diag = cluster_diag && diag;
            } else {
                // Seed a new cluster; passthrough-wide gates close it
                // immediately (they always stand alone in the plan).
                cluster.clear();
                cluster.extend_from_slice(&r.support);
                cluster_diag = diag;
                cluster_open = !wide;
            }
        }
        order.push(pick);
        for &s in &succs[pick] {
            preds[s] -= 1;
            if preds[s] == 0 {
                ready.insert(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "schedule must be a permutation");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::ControlBit;

    fn is_identity(order: &[usize]) -> bool {
        order.iter().copied().eq(0..order.len())
    }

    #[test]
    fn commutation_rules_are_sound_and_useful() {
        let cx = |c, t| Gate::Cx {
            control: c,
            target: t,
        };
        let rz = |q| Gate::Rz {
            qubit: q,
            theta: 0.3,
        };
        // Disjoint supports.
        assert!(gates_commute(&cx(0, 1), &cx(2, 3)));
        // Diagonal–diagonal on overlapping qubits.
        assert!(gates_commute(&rz(0), &Gate::Cz { a: 0, b: 1 }));
        // Z-control: shared qubit is a control of one, diagonal for the
        // other / a control of the other.
        assert!(gates_commute(&cx(0, 1), &rz(0)));
        assert!(gates_commute(&cx(0, 1), &cx(0, 2)));
        assert!(gates_commute(
            &cx(0, 1),
            &Gate::McX {
                controls: vec![ControlBit::zero(0), ControlBit::one(3)],
                target: 2,
            }
        ));
        // Shared qubit acted on generally by either side: no commutation.
        assert!(!gates_commute(&cx(0, 1), &rz(1)));
        assert!(!gates_commute(&cx(0, 1), &cx(1, 2)));
        assert!(!gates_commute(&Gate::H(0), &rz(0)));
        assert!(!gates_commute(&Gate::Swap { a: 0, b: 1 }, &rz(0)));
    }

    #[test]
    fn schedule_is_a_permutation_and_respects_dependencies() {
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.3);
        c.cx(1, 2);
        c.rz(3, 0.7);
        c.cx(2, 3);
        let order = commutation_schedule(&c);
        let mut seen = vec![false; c.len()];
        for &gi in &order {
            seen[gi] = true;
        }
        assert!(seen.iter().all(|&s| s), "order must be a permutation");
        // Every non-commuting pair keeps its relative order.
        let gates = c.gates();
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (k, &gi) in order.iter().enumerate() {
                p[gi] = k;
            }
            p
        };
        for i in 0..gates.len() {
            for j in i + 1..gates.len() {
                if !gates_commute(&gates[i], &gates[j]) {
                    assert!(pos[i] < pos[j], "gates {i} and {j} were swapped");
                }
            }
        }
    }

    #[test]
    fn dependency_chains_schedule_in_order() {
        // A strict CX chain has no commutation freedom at all.
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.cx(q, q + 1);
        }
        let order = commutation_schedule(&c);
        assert!(is_identity(&order));
    }

    #[test]
    fn interleaved_commuting_gates_bubble_together() {
        // RZ(3) commutes with the CX pair on {0,1}; the scheduler groups
        // the two RZ(3)s before moving on to the CX pair.
        let mut c = Circuit::new(4);
        c.rz(3, 0.1);
        c.cx(0, 1);
        c.rz(3, 0.2);
        c.cx(0, 1);
        let order = commutation_schedule(&c);
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn wide_gates_with_diagonal_roles_let_phases_hop_over() {
        // An McX controlling on qubit 0 acts diagonally there, so RZ(0)
        // commutes across it; the scheduler coalesces the split RZ(0)s.
        let controls: Vec<ControlBit> = (0..9).map(ControlBit::one).collect();
        let mcx = Gate::McX {
            controls: controls.clone(),
            target: 9,
        };
        let mut c = Circuit::new(10);
        c.push(mcx.clone());
        c.rz(0, 0.3);
        c.push(mcx);
        c.rz(0, 0.5);
        let order = commutation_schedule(&c);
        // The two RZ(0) gates are adjacent in the schedule.
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (k, &gi) in order.iter().enumerate() {
                p[gi] = k;
            }
            p
        };
        assert_eq!(pos[3].abs_diff(pos[1]), 1, "RZ pair was not coalesced");
    }
}
