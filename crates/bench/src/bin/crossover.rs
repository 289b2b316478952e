//! Serial-vs-parallel crossover of the dense state-vector kernels: the
//! measurement behind the default of `GHS_PARALLEL_THRESHOLD`.
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
//! the two legs for seven rounds (`ROUNDS`). Each leg times five kernel
//! classes at sizes `n` from 12 to 18 (`MIN_QUBITS`, `MAX_QUBITS`):
//!
//! * `gate`: one per-gate sweep (`H` on the middle qubit);
//! * `fused_tile`: one fused dense 2-qubit op on qubits `n − 2` and `n − 1`,
//!   replayed tile by tile (tiles run in parallel above one 2¹³-amplitude
//!   tile);
//! * `fused_wide`: the same op on qubits `0` and `n − 1`, the widest span
//!   (tile-local up to 2¹³ amplitudes, an index-space sweep above);
//! * `expectation`: one grouped Pauli-sum expectation (a `ZZ` and an `XX`
//!   term), whose chunked reduction the adjoint gradient shares;
//! * `shots`: one seeded batch of `2ⁿ` shots from a 12-qubit distribution.
//!
//! It prints the median µs per call of every cell over the rounds and, per
//! kernel, the smallest `n` from which the parallel leg wins at every larger
//! `n`. Every kernel but `shots` runs on an `n`-qubit register.

use ghs_bench::print_table;
use ghs_circuit::{FusedKernel, FusedOp, Gate};
use ghs_math::c64;
use ghs_operators::{PauliString, PauliSum};
use ghs_statevector::{CachedDistribution, GroupedPauliSum, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

const KERNELS: [&str; 5] = ["gate", "fused_tile", "fused_wide", "expectation", "shots"];
/// Smallest register timed.
const MIN_QUBITS: usize = 12;
/// Largest register timed.
const MAX_QUBITS: usize = 18;
/// Serial/parallel leg pairs whose medians the table reports.
const ROUNDS: usize = 7;

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

/// One leg: prints `kernel n µs` lines under whatever threshold the process
/// was started with.
fn run_leg() {
    for n in MIN_QUBITS..=MAX_QUBITS {
        let dim = 1usize << n;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut state = StateVector::random_state(n, &mut rng);

        let h = Gate::H(n / 2);
        let gate_us = time_us(dim, || state.apply_gate(&h));

        let ry = Gate::Ry {
            qubit: 0,
            theta: 0.3,
        };
        let matrix = h
            .base_matrix()
            .expect("H")
            .kron(&ry.base_matrix().expect("RY"));
        let dense = |qubits: Vec<usize>| FusedOp {
            qubits,
            kernel: FusedKernel::Dense {
                controls: vec![],
                matrix: matrix.clone(),
            },
        };
        let (tile_op, wide_op) = (dense(vec![n - 2, n - 1]), dense(vec![0, n - 1]));
        let tile_us = time_us(dim, || state.apply_fused_op(&tile_op));
        let wide_us = time_us(dim, || state.apply_fused_op(&wide_op));

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

        let dist = CachedDistribution::from_state(&StateVector::random_state(12, &mut rng));
        let mut seed = 0u64;
        let shots_us = time_us(dim, || {
            seed += 1;
            sink += dist.sample_seeded(dim, seed)[0] as f64;
        });

        assert!(sink.is_finite());
        for (kernel, us) in KERNELS
            .iter()
            .zip([gate_us, tile_us, wide_us, exp_us, shots_us])
        {
            println!("{kernel} {n} {us}");
        }
    }
}

/// Runs one leg in a child process with the given threshold and returns its
/// `(kernel, n) → µs` cells.
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
            let kernel = it.next()?.to_string();
            let n = it.next()?.parse().ok()?;
            let us = it.next()?.parse().ok()?;
            Some(((kernel, n), us))
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

    let mut rows = Vec::new();
    for kernel in KERNELS {
        let mut wins_from = None;
        for n in MIN_QUBITS..=MAX_QUBITS {
            let [serial, parallel] = cells[&(kernel.to_string(), n)].clone();
            let (s, p) = (median(serial), median(parallel));
            if p < s {
                wins_from.get_or_insert(n);
            } else {
                wins_from = None;
            }
            rows.push(vec![
                kernel.to_string(),
                n.to_string(),
                format!("{s:.1}"),
                format!("{p:.1}"),
                if p < s { "parallel" } else { "serial" }.to_string(),
            ]);
        }
        match wins_from {
            Some(n) => println!("{kernel}: parallel wins from n = {n}"),
            None => println!("{kernel}: serial wins at n = {MAX_QUBITS}"),
        }
    }
    print_table(
        "median µs per call",
        &["kernel", "n", "serial", "parallel", "faster"],
        &rows,
    );
}
