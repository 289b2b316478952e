//! Serial-vs-parallel crossover of the dense state-vector kernels: the
//! measurement behind the default of `GHS_PARALLEL_THRESHOLD` and the
//! wide-op split policy of the fused engine.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p ghs_bench --bin crossover
//! ```
//!
//! The threshold is read once per process, so the binary re-runs itself
//! once per leg: every sweep forced serial (`GHS_PARALLEL_THRESHOLD` set to
//! `usize::MAX`) and every sweep forced parallel (set to `0`), alternating
//! the two legs for seven rounds (`ROUNDS`). Each leg times, at sizes `n`
//! from 12 to 18 (`MIN_QUBITS`, `MAX_QUBITS`):
//!
//! * `gate`: one per-gate sweep (`H` on the middle qubit);
//! * one fused op of each kernel kind, on a *bottom* support (the last
//!   qubits, the lowest index bits) and on a *top* support (the first
//!   qubits, the highest index bits), through `apply_fused_op`:
//!   - `dense`: a dense 2-qubit block;
//!   - `single`: an uncontrolled single-qubit rotation (the QAOA mixer's
//!     `RX`);
//!   - `ctrl`: a controlled single-qubit rotation (target, then control);
//!   - `keyed`: a keyed phase on 3 qubits, kept as a pass-through gate;
//!   - `diag_sparse`: a 3-qubit phase table with one active entry (the
//!     keyed-phase shape);
//!   - `diag_dense`: the same support with every entry active; both tables
//!     take the one address-order walk, which multiplies every amplitude;
//!   - `perm`: a 10-qubit CX-ladder permutation (the `ladder_*` shape);
//!
//!   top-support ops wider than one 2¹³-amplitude tile (`dense`, `single`,
//!   `ctrl`, `perm`) take the index-space split in the parallel leg; every
//!   other op, bottom-support `perm` included, runs tile by tile (tiles in
//!   parallel above one tile), so its parallel column measures tile
//!   parallelism;
//! * `diag_wide`: a 9-qubit phase table on bit 0 and eight bits spread up
//!   to the top bit, the shape of a direct-method separator's table, whose
//!   walk multiplies 2-amplitude strips by 2-entry table slices;
//! * `expectation`: one grouped Pauli-sum expectation (a `ZZ` and an `XX`
//!   term), whose chunked reduction the adjoint gradient shares;
//! * `shots`: one seeded batch of `2ⁿ` shots from a 12-qubit distribution.
//!
//! It prints the median µs per call of every cell over the rounds and, per
//! row, the smallest `n` from which the parallel leg wins at every larger
//! `n`. Every kernel but `shots` runs on an `n`-qubit register.

use ghs_bench::print_table;
use ghs_circuit::{Circuit, ControlBit, FusedKernel, FusedOp, Gate};
use ghs_math::{c64, Complex64};
use ghs_operators::{PauliString, PauliSum};
use ghs_statevector::{CachedDistribution, GroupedPauliSum, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Fused-op kinds, each timed on a bottom and a top support.
const OP_KINDS: [&str; 7] = [
    "dense",
    "single",
    "ctrl",
    "keyed",
    "diag_sparse",
    "diag_dense",
    "perm",
];
/// Smallest register timed.
const MIN_QUBITS: usize = 12;
/// Largest register timed.
const MAX_QUBITS: usize = 18;
/// Serial/parallel leg pairs whose medians the table reports.
const ROUNDS: usize = 7;
/// Width of the `perm` row's ladder.
const PERM_QUBITS: usize = 10;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median µs per call of `f` over 9 samples (after one warm-up sample),
/// each sample batching enough calls to cover about 2²⁰ amplitudes.
fn time_us(dim: usize, mut f: impl FnMut()) -> f64 {
    let calls = ((1usize << 20) / dim).max(1);
    let mut samples = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    median(samples[1..].to_vec())
}

/// The `kind` row's fused op on `qubits` (listed from the op's most
/// significant local bit), emitted by the fusion pass where the kind has a
/// gate-level source.
fn kind_op(kind: &str, qubits: &[usize], n: usize) -> FusedOp {
    let single = |c: Circuit| {
        let f = c.fused();
        assert_eq!(f.ops().len(), 1, "{kind} fuses to one op");
        f.ops()[0].clone()
    };
    let key = |q: &[usize]| q[..3].iter().map(|&q| ControlBit::one(q)).collect();
    let mut c = Circuit::new(n);
    match kind {
        "dense" => {
            let matrix = Gate::H(0).base_matrix().expect("H").kron(
                &Gate::Ry {
                    qubit: 0,
                    theta: 0.3,
                }
                .base_matrix()
                .expect("RY"),
            );
            let mut qubits = qubits[..2].to_vec();
            qubits.sort_unstable();
            FusedOp {
                qubits,
                kernel: FusedKernel::Dense {
                    controls: vec![],
                    matrix,
                },
            }
        }
        "single" => {
            c.rx(qubits[0], 0.3);
            single(c)
        }
        "ctrl" => {
            c.mcry(vec![ControlBit::one(qubits[1])], qubits[0], 0.3);
            single(c)
        }
        "keyed" => {
            let mut support = qubits[..3].to_vec();
            support.sort_unstable();
            FusedOp {
                qubits: support,
                kernel: FusedKernel::Gate(Gate::KeyedPhase {
                    key: key(qubits),
                    theta: 0.7,
                }),
            }
        }
        "diag_sparse" => {
            c.keyed_phase(key(qubits), 0.7);
            single(c)
        }
        "diag_dense" => {
            let mut support = qubits[..3].to_vec();
            support.sort_unstable();
            let table = (0..8)
                .map(|l| Complex64::cis(0.1 + 0.3 * l as f64))
                .collect();
            FusedOp {
                qubits: support,
                kernel: FusedKernel::Diagonal(table),
            }
        }
        "perm" => {
            let mut ladder = qubits[..PERM_QUBITS].to_vec();
            ladder.sort_unstable();
            for w in ladder.windows(2) {
                c.cx(w[0], w[1]);
            }
            single(c)
        }
        other => unreachable!("unknown kind {other}"),
    }
}

/// The `diag_wide` row's op: a 9-qubit phase table, every entry active, on
/// bit 0 and eight bits spread over bits 2 to `n − 1`, so the walk
/// multiplies 2-amplitude strips by 2-entry table slices (the shape of a
/// direct-method separator's table).
fn diag_wide_op(n: usize) -> FusedOp {
    let mut bits = vec![0];
    bits.extend((0..8).map(|j| 2 + j * (n - 3) / 7));
    let qubits = bits.iter().rev().map(|b| n - 1 - b).collect();
    let table = (0..1 << bits.len())
        .map(|l| Complex64::cis(0.1 + 0.013 * l as f64))
        .collect();
    FusedOp {
        qubits,
        kernel: FusedKernel::Diagonal(table),
    }
}

/// One leg: prints `row n µs` lines under whatever threshold the process
/// was started with.
fn run_leg() {
    for n in MIN_QUBITS..=MAX_QUBITS {
        let dim = 1usize << n;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut state = StateVector::random_state(n, &mut rng);
        let mut cells: Vec<(String, f64)> = Vec::new();

        let h = Gate::H(n / 2);
        cells.push(("gate".into(), time_us(dim, || state.apply_gate(&h))));

        let bottom: Vec<usize> = (0..n).rev().collect();
        let top: Vec<usize> = (0..n).collect();
        for kind in OP_KINDS {
            for (side, qubits) in [("bottom", &bottom), ("top", &top)] {
                let op = kind_op(kind, qubits, n);
                let us = time_us(dim, || state.apply_fused_op(&op));
                cells.push((format!("{kind}_{side}"), us));
            }
        }
        let wide = diag_wide_op(n);
        cells.push((
            "diag_wide".into(),
            time_us(dim, || state.apply_fused_op(&wide)),
        ));

        let mut sum = PauliSum::zero(n);
        let pair = |p: char| {
            let mut s = vec!['I'; n];
            s[0] = p;
            s[n - 1] = p;
            PauliString::parse(&s.iter().collect::<String>()).expect("valid string")
        };
        sum.push(c64(0.7, 0.0), pair('Z'));
        sum.push(c64(-0.4, 0.0), pair('X'));
        let grouped = GroupedPauliSum::new(&sum);
        let mut sink = 0.0;
        let exp_us = time_us(dim, || sink += grouped.expectation(state.amplitudes()).re);
        cells.push(("expectation".into(), exp_us));

        let dist = CachedDistribution::from_state(&StateVector::random_state(12, &mut rng));
        let mut seed = 0u64;
        let shots_us = time_us(dim, || {
            seed += 1;
            sink += dist.sample_seeded(dim, seed)[0] as f64;
        });
        cells.push(("shots".into(), shots_us));

        assert!(sink.is_finite());
        for (row, us) in cells {
            println!("{row} {n} {us}");
        }
    }
}

/// Runs one leg in a child process with the given threshold and returns its
/// `(row, n) → µs` cells.
fn spawn_leg(threshold: usize) -> BTreeMap<(String, usize), f64> {
    let exe = std::env::current_exe().expect("current executable");
    let out = Command::new(exe)
        .arg("--leg")
        .env("GHS_PARALLEL_THRESHOLD", threshold.to_string())
        .output()
        .expect("leg process starts");
    assert!(out.status.success(), "leg process failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let row = it.next()?.to_string();
            let n = it.next()?.parse().ok()?;
            let us = it.next()?.parse().ok()?;
            Some(((row, n), us))
        })
        .collect()
}

fn main() {
    if std::env::args().any(|a| a == "--leg") {
        run_leg();
        return;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("Serial vs parallel kernel crossover ({threads} worker threads, {ROUNDS} rounds)");

    let mut cells: BTreeMap<(String, usize), [Vec<f64>; 2]> = BTreeMap::new();
    for _ in 0..ROUNDS {
        for (leg, threshold) in [usize::MAX, 0].into_iter().enumerate() {
            for (key, us) in spawn_leg(threshold) {
                cells.entry(key).or_default()[leg].push(us);
            }
        }
    }

    let mut rows_in_order = vec!["gate".to_string()];
    for kind in OP_KINDS {
        rows_in_order.push(format!("{kind}_bottom"));
        rows_in_order.push(format!("{kind}_top"));
    }
    rows_in_order.extend(["diag_wide", "expectation", "shots"].map(String::from));

    let mut rows = Vec::new();
    for row in &rows_in_order {
        let mut wins_from = None;
        for n in MIN_QUBITS..=MAX_QUBITS {
            let [serial, parallel] = cells[&(row.clone(), n)].clone();
            let (s, p) = (median(serial), median(parallel));
            if p < s {
                wins_from.get_or_insert(n);
            } else {
                wins_from = None;
            }
            rows.push(vec![
                row.clone(),
                n.to_string(),
                format!("{s:.1}"),
                format!("{p:.1}"),
                if p < s { "parallel" } else { "serial" }.to_string(),
            ]);
        }
        match wins_from {
            Some(n) => println!("{row}: parallel wins from n = {n}"),
            None => println!("{row}: serial wins at n = {MAX_QUBITS}"),
        }
    }
    print_table(
        "median µs per call",
        &["kernel", "n", "serial", "parallel", "faster"],
        &rows,
    );
}
