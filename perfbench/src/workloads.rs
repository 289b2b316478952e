//! The four single-kind job streams: how each builds its inputs from the
//! seed, builds its jobs, checks their outputs against an oracle, and
//! replays a job through the layer functions the service worker calls.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use ghs_chemistry::{h2_sto3g, uccsd_parameterized, uccsd_pool};
use ghs_circuit::{Circuit, ParameterizedCircuit};
use ghs_core::{
    parameter_shift_gradient, Backend, BackendSpec, DensityMatrixBackend, DirectOptions,
    FusedStatevector, InitialState, ReferenceStatevector, StabilizerBackend, TrajectoryNoise,
};
use ghs_hubo::{qaoa_circuit, qaoa_parameterized, HuboProblem, QaoaParameters, SeparatorStrategy};
use ghs_operators::{KrausChannel, NoiseModel, PauliSum};
use ghs_service::{CircuitSource, JobOutput, JobRequest, JobSpec};
use ghs_stabilizer::{BitString, StabilizerState};
use ghs_statevector::{adjoint_gradient_into, derive_stream_seed, GroupedPauliSum, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["qaoa_step", "hubo_cold", "noisy_h2", "clifford_shots"];

/// How many recorded jobs each run re-computes through an oracle.
const SAMPLED_CHECKS: usize = 4;

/// Fused-kernel work of one replayed job, for `kernels.gbps`.
pub struct KernelWork {
    pub ops: usize,
    pub qubits: usize,
    pub apply: Duration,
}

/// What the traced replay of one job yields besides its spans.
pub struct Replay {
    /// The output the replayed calls produced; must equal the service's.
    pub output: JobOutput,
    /// Time of the calls that mirror the service worker's own path.
    pub worker: Duration,
    pub kernel: Option<KernelWork>,
}

pub trait Workload {
    /// Builds job `k` on the client thread; this counts toward its latency.
    fn job(&mut self, k: u64, tr: &mut Tracer) -> JobSpec;
    /// Takes job `k`'s output, updates the client's loop state and keeps
    /// what [`Workload::verify`] needs. False when the output is a failure,
    /// of the wrong kind, or fails a check cheap enough to run on every job.
    fn record(&mut self, k: u64, spec: &JobSpec, output: &JobOutput) -> bool;
    /// Oracle checks on a sample of the recorded jobs (plus whole-run
    /// checks); one message per failed check.
    fn verify(&mut self) -> Vec<String>;
    /// Replays `spec` through the public layer functions the service worker
    /// calls for it, with one span per call.
    fn replay(&mut self, spec: &JobSpec, tr: &mut Tracer) -> Replay;
    /// Gates in one job's circuit.
    fn gates_per_job(&self) -> usize;
    /// Kraus channel applications one job computes (all trajectories).
    fn kraus_applications_per_job(&self) -> usize {
        0
    }
    /// Noise trajectories one job runs.
    fn trajectories_per_job(&self) -> usize {
        0
    }
    /// Shots one job draws.
    fn shots_per_job(&self) -> usize {
        0
    }
}

/// Builds the named workload's inputs from `seed`: templates, observables
/// and circuits, with spans around each layer call.
pub fn build(name: &str, seed: u64, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "qaoa_step" => Box::new(QaoaStep::new(seed, tr)),
        "hubo_cold" => Box::new(HuboCold::new(seed)),
        "noisy_h2" => Box::new(NoisyH2::new(seed, tr)),
        "clifford_shots" => Box::new(CliffordShots::new(seed, tr)),
        _ => return None,
    })
}

/// Evenly spaced indices of at most [`SAMPLED_CHECKS`] of `n` records.
fn sampled(n: usize) -> Vec<usize> {
    if n <= SAMPLED_CHECKS {
        return (0..n).collect();
    }
    (0..SAMPLED_CHECKS)
        .map(|i| i * (n - 1) / (SAMPLED_CHECKS - 1))
        .collect()
}

fn template_job(spec: &JobSpec) -> (&Arc<ParameterizedCircuit>, &[f64]) {
    match &spec.circuit {
        CircuitSource::Template { template, params } => (template, params),
        CircuitSource::Concrete(_) => unreachable!("the workload builds template jobs"),
    }
}

fn observable_of(spec: &JobSpec) -> &Arc<PauliSum> {
    match &spec.request {
        JobRequest::Expectation { observable } | JobRequest::Gradient { observable } => observable,
        _ => unreachable!("the workload builds observable jobs"),
    }
}

/// A sparse HUBO of exactly `terms` distinct order-`order` monomials, drawn
/// from `structure`, with signed weights drawn from `weights`.
fn sparse_hubo(
    num_vars: usize,
    order: usize,
    terms: usize,
    structure: &mut StdRng,
    weights: &mut StdRng,
) -> HuboProblem {
    let mut monomials = BTreeSet::new();
    while monomials.len() < terms {
        let mut vars: Vec<usize> = (0..num_vars).collect();
        for i in 0..order {
            let j = structure.gen_range(i..num_vars);
            vars.swap(i, j);
        }
        let mut monomial = vars[..order].to_vec();
        monomial.sort_unstable();
        monomials.insert(monomial);
    }
    let mut problem = HuboProblem::new(num_vars);
    for monomial in monomials {
        let sign = if weights.gen_bool(0.5) { 1.0 } else { -1.0 };
        problem.add_term(sign * weights.gen_range(0.5..1.5), &monomial);
    }
    problem
}

// ---------------------------------------------------------------------------
// qaoa_step: an optimizer's warm gradient loop.
// ---------------------------------------------------------------------------

const QAOA_STEP_VARS: usize = 12;
const QAOA_STEP_TERMS: usize = 24;
const QAOA_STEP_LAYERS: usize = 4;
const QAOA_STEP_RATE: f64 = 0.05;
/// The template's monomials come from this fixed seed, so every run seed
/// plans the same circuit structure and costs the same; the run seed draws
/// the weights and the parameter trace.
const QAOA_STEP_STRUCTURE_SEED: u64 = 0x9a0a;

struct QaoaStep {
    template: Arc<ParameterizedCircuit>,
    observable: Arc<PauliSum>,
    grouped: GroupedPauliSum,
    params: Vec<f64>,
    jitter: StdRng,
    records: Vec<(Vec<f64>, f64, Vec<f64>)>,
    zero: StateVector,
    state: StateVector,
    bound: Circuit,
    adjoint_scratch: Circuit,
}

impl QaoaStep {
    fn new(seed: u64, tr: &mut Tracer) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = tr.begin("direct.build");
        let mut structure = StdRng::seed_from_u64(QAOA_STEP_STRUCTURE_SEED);
        let problem = sparse_hubo(QAOA_STEP_VARS, 3, QAOA_STEP_TERMS, &mut structure, &mut rng);
        let template = qaoa_parameterized(&problem, QAOA_STEP_LAYERS, SeparatorStrategy::Direct);
        let observable = problem.to_pauli_sum();
        tr.end(span);
        // The template plans once; every job after reuses the plan.
        let span = tr.begin("fusion.plan");
        template.fusion_plan();
        tr.end(span);
        let span = tr.begin("expectation.prepare");
        let grouped = GroupedPauliSum::new(&observable);
        tr.end(span);
        let params = (0..2 * QAOA_STEP_LAYERS)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        Self {
            template: Arc::new(template),
            observable: Arc::new(observable),
            grouped,
            params,
            jitter: rng,
            records: Vec::new(),
            zero: StateVector::zero_state(QAOA_STEP_VARS),
            state: StateVector::zero_state(QAOA_STEP_VARS),
            bound: Circuit::new(0),
            adjoint_scratch: Circuit::new(0),
        }
    }
}

impl Workload for QaoaStep {
    fn job(&mut self, _k: u64, _tr: &mut Tracer) -> JobSpec {
        JobSpec::gradient(
            self.template.clone(),
            self.params.clone(),
            self.observable.clone(),
        )
    }

    fn record(&mut self, _k: u64, spec: &JobSpec, output: &JobOutput) -> bool {
        let JobOutput::Gradient { energy, gradient } = output else {
            return false;
        };
        let (_, params) = template_job(spec);
        self.records
            .push((params.to_vec(), *energy, gradient.clone()));
        // A plain gradient step plus a little seeded jitter, so the trace
        // keeps moving once the gradient is small.
        for (p, g) in self.params.iter_mut().zip(gradient) {
            *p -= QAOA_STEP_RATE * g + self.jitter.gen_range(-0.01..0.01);
        }
        true
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let zero = InitialState::ZeroState;
        let picks = sampled(self.records.len());
        for &i in &picks {
            let (params, energy, gradient) = &self.records[i];
            match FusedStatevector.expectation_gradient(
                &zero,
                &self.template,
                params,
                &self.grouped,
            ) {
                Ok((e, g)) if e == *energy && g == *gradient => {}
                other => failures.push(format!(
                    "qaoa_step job {i}: service ({energy}, {gradient:?}) differs from the \
                     direct adjoint call {other:?}"
                )),
            }
        }
        // The shift rule costs some 400 reference simulations, so it checks
        // one job per run: the middle sampled one.
        if let Some(&i) = picks.get(picks.len() / 2) {
            let (params, _, gradient) = &self.records[i];
            match parameter_shift_gradient(
                &ReferenceStatevector,
                &zero,
                &self.template,
                params,
                &self.grouped,
            ) {
                Ok((_, shift)) => {
                    let worst = shift
                        .iter()
                        .zip(gradient)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    if worst > 1e-8 {
                        failures.push(format!(
                            "qaoa_step job {i}: gradient off the parameter-shift oracle by {worst:e}"
                        ));
                    }
                }
                Err(err) => failures.push(format!("qaoa_step job {i}: oracle failed: {err}")),
            }
        }
        failures
    }

    fn replay(&mut self, spec: &JobSpec, tr: &mut Tracer) -> Replay {
        let (template, params) = template_job(spec);
        // The worker runs one adjoint call. Its forward half is replayed on
        // its own first, so bind, emission and kernels get their own spans.
        let span = tr.begin("param.bind");
        template.bind_into(params, &mut self.bound);
        tr.end(span);
        let span = tr.begin("fusion.emit");
        let fused = template.fusion_plan().emit(&self.bound);
        tr.end(span);
        let span = tr.begin("kernels.apply");
        self.state.reset_to_basis(0);
        self.state.apply_fused(&fused);
        let apply = tr.end(span);
        let span = tr.begin("gradient.adjoint");
        let r = adjoint_gradient_into(
            &self.zero,
            template,
            params,
            &self.grouped,
            &mut self.adjoint_scratch,
        );
        let worker = tr.end(span);
        Replay {
            output: JobOutput::Gradient {
                energy: r.energy,
                gradient: r.gradient,
            },
            worker,
            kernel: Some(KernelWork {
                ops: fused.ops().len(),
                qubits: QAOA_STEP_VARS,
                apply,
            }),
        }
    }

    fn gates_per_job(&self) -> usize {
        self.template.len()
    }
}

// ---------------------------------------------------------------------------
// hubo_cold: a fresh problem per job, built with the direct method.
// ---------------------------------------------------------------------------

const HUBO_COLD_VARS: usize = 16;
const HUBO_COLD_TERMS: usize = 32;
const HUBO_COLD_LAYERS: usize = 2;

struct HuboCold {
    seed: u64,
    records: Vec<(u64, f64)>,
    gates: usize,
    state: StateVector,
}

impl HuboCold {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            records: Vec::new(),
            gates: 0,
            state: StateVector::zero_state(HUBO_COLD_VARS),
        }
    }

    /// Job `k`'s circuit and cost observable: a pure function of the seed.
    fn instance(&self, k: u64) -> (Circuit, PauliSum) {
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(self.seed, k as usize));
        let mut structure = StdRng::seed_from_u64(rng.next_u64());
        let problem = sparse_hubo(HUBO_COLD_VARS, 3, HUBO_COLD_TERMS, &mut structure, &mut rng);
        let mut angles = || -> Vec<f64> {
            (0..HUBO_COLD_LAYERS)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect()
        };
        let params = QaoaParameters {
            gammas: angles(),
            betas: angles(),
        };
        let circuit = qaoa_circuit(&problem, &params, SeparatorStrategy::Direct);
        (circuit, problem.to_pauli_sum())
    }
}

impl Workload for HuboCold {
    fn job(&mut self, k: u64, tr: &mut Tracer) -> JobSpec {
        let span = tr.begin("direct.build");
        let (circuit, observable) = self.instance(k);
        tr.end(span);
        self.gates = circuit.len();
        JobSpec::expectation(circuit, Arc::new(observable))
    }

    fn record(&mut self, k: u64, _spec: &JobSpec, output: &JobOutput) -> bool {
        let JobOutput::Expectation(e) = output else {
            return false;
        };
        self.records.push((k, *e));
        e.is_finite()
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for i in sampled(self.records.len()) {
            let (k, e) = self.records[i];
            let (circuit, observable) = self.instance(k);
            let grouped = GroupedPauliSum::new(&observable);
            match ReferenceStatevector.expectation(&InitialState::ZeroState, &circuit, &grouped) {
                Ok(exact) if (exact - e).abs() <= 1e-9 => {}
                other => failures.push(format!(
                    "hubo_cold job {k}: service {e} vs reference {other:?}"
                )),
            }
        }
        failures
    }

    fn replay(&mut self, spec: &JobSpec, tr: &mut Tracer) -> Replay {
        let CircuitSource::Concrete(circuit) = &spec.circuit else {
            unreachable!("hubo_cold builds concrete circuits");
        };
        let observable = observable_of(spec);
        let mut worker = Duration::ZERO;
        let span = tr.begin("fusion.plan");
        let plan = circuit.fusion_plan();
        worker += tr.end(span);
        let span = tr.begin("fusion.emit");
        let fused = plan.emit(circuit);
        worker += tr.end(span);
        let span = tr.begin("kernels.apply");
        self.state.reset_to_basis(0);
        self.state.apply_fused(&fused);
        let apply = tr.end(span);
        worker += apply;
        let span = tr.begin("expectation.prepare");
        let grouped = GroupedPauliSum::new(observable);
        worker += tr.end(span);
        let span = tr.begin("expectation.readout");
        let e = self.state.expectation_grouped(&grouped).re;
        worker += tr.end(span);
        Replay {
            output: JobOutput::Expectation(e),
            worker,
            kernel: Some(KernelWork {
                ops: fused.ops().len(),
                qubits: HUBO_COLD_VARS,
                apply,
            }),
        }
    }

    fn gates_per_job(&self) -> usize {
        self.gates
    }
}

// ---------------------------------------------------------------------------
// noisy_h2: trajectory-backend energies of the H2 UCCSD ansatz.
// ---------------------------------------------------------------------------

const NOISY_H2_TRAJECTORIES: usize = 2;
/// Failure probability of the Hoeffding check on the run's mean energy.
const HOEFFDING_DELTA: f64 = 1e-9;

struct NoisyH2 {
    seed: u64,
    template: Arc<ParameterizedCircuit>,
    observable: Arc<PauliSum>,
    grouped: GroupedPauliSum,
    noise: NoiseModel,
    params: Vec<f64>,
    bound: Circuit,
    scratch: Circuit,
    records: Vec<(u64, f64)>,
}

impl NoisyH2 {
    fn new(seed: u64, tr: &mut Tracer) -> Self {
        let span = tr.begin("direct.build");
        let model = h2_sto3g();
        let pool = uccsd_pool(&model);
        let template = uccsd_parameterized(&model, &pool, &DirectOptions::linear());
        let observable = model.pauli_sum();
        tr.end(span);
        let span = tr.begin("expectation.prepare");
        let grouped = GroupedPauliSum::new(&observable);
        tr.end(span);
        // Depolarizing takes the Pauli-mask path, amplitude damping the
        // general Kraus-branch path.
        let noise = NoiseModel::noiseless()
            .with_all_gates(KrausChannel::depolarizing(0.01))
            .with_all_gates(KrausChannel::amplitude_damping(0.02));
        let mut rng = StdRng::seed_from_u64(seed);
        let params: Vec<f64> = (0..template.num_params())
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        let bound = template.bind(&params);
        Self {
            seed,
            template: Arc::new(template),
            observable: Arc::new(observable),
            grouped,
            noise,
            params,
            bound,
            scratch: Circuit::new(0),
            records: Vec::new(),
        }
    }

    fn trajectory_seed(&self, k: u64) -> u64 {
        derive_stream_seed(self.seed, k as usize)
    }

    fn backend(&self, seed: u64) -> TrajectoryNoise {
        TrajectoryNoise::new(self.noise.clone(), NOISY_H2_TRAJECTORIES, seed)
    }
}

impl Workload for NoisyH2 {
    fn job(&mut self, k: u64, _tr: &mut Tracer) -> JobSpec {
        JobSpec::expectation(
            (self.template.clone(), self.params.clone()),
            self.observable.clone(),
        )
        .on_backend(BackendSpec::Trajectory {
            model: self.noise.clone(),
            trajectories: NOISY_H2_TRAJECTORIES,
            seed: self.trajectory_seed(k),
        })
    }

    fn record(&mut self, k: u64, _spec: &JobSpec, output: &JobOutput) -> bool {
        let JobOutput::Expectation(e) = output else {
            return false;
        };
        self.records.push((k, *e));
        e.is_finite()
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let zero = InitialState::ZeroState;
        for i in sampled(self.records.len()) {
            let (k, e) = self.records[i];
            let direct = self.backend(self.trajectory_seed(k)).expectation(
                &zero,
                &self.bound,
                &self.grouped,
            );
            if direct != Ok(e) {
                failures.push(format!(
                    "noisy_h2 job {k}: service {e} vs direct trajectories {direct:?}"
                ));
            }
        }
        if self.records.is_empty() {
            return failures;
        }
        // Every trajectory energy lies in [-S, S] with S the coefficients'
        // absolute sum, and all trajectories are independent.
        let exact = DensityMatrixBackend::new(self.noise.clone())
            .expectation(&zero, &self.bound, &self.grouped)
            .expect("4 qubits fit the density-matrix oracle");
        let span: f64 = 2.0
            * self
                .observable
                .terms()
                .iter()
                .map(|(c, _)| c.abs())
                .sum::<f64>();
        let samples = (self.records.len() * NOISY_H2_TRAJECTORIES) as f64;
        let mean = self.records.iter().map(|(_, e)| e).sum::<f64>() / self.records.len() as f64;
        let bound = span * ((2.0 / HOEFFDING_DELTA).ln() / (2.0 * samples)).sqrt();
        if (mean - exact).abs() > bound {
            failures.push(format!(
                "noisy_h2: mean {mean} is {:e} from the density-matrix energy {exact}, \
                 beyond the Hoeffding bound {bound:e}",
                (mean - exact).abs()
            ));
        }
        failures
    }

    fn replay(&mut self, spec: &JobSpec, tr: &mut Tracer) -> Replay {
        let (template, params) = template_job(spec);
        let BackendSpec::Trajectory { seed, .. } = &spec.backend else {
            unreachable!("noisy_h2 builds trajectory jobs");
        };
        let span = tr.begin("param.bind");
        template.bind_into(params, &mut self.scratch);
        let mut worker = tr.end(span);
        let span = tr.begin("trajectory.expectation");
        let e = self
            .backend(*seed)
            .expectation(&InitialState::ZeroState, &self.scratch, &self.grouped)
            .expect("trajectories run on 4 qubits");
        worker += tr.end(span);
        Replay {
            output: JobOutput::Expectation(e),
            worker,
            kernel: None,
        }
    }

    fn gates_per_job(&self) -> usize {
        self.template.len()
    }

    fn kraus_applications_per_job(&self) -> usize {
        let per_trajectory: usize = self
            .bound
            .gates()
            .iter()
            .map(|g| {
                let touched = g.qubits().len();
                touched * self.noise.channels_for(touched).len()
            })
            .sum();
        per_trajectory * NOISY_H2_TRAJECTORIES
    }

    fn trajectories_per_job(&self) -> usize {
        NOISY_H2_TRAJECTORIES
    }
}

// ---------------------------------------------------------------------------
// clifford_shots: stabilizer shots of a repetition-code syndrome circuit.
// ---------------------------------------------------------------------------

const CLIFFORD_QUBITS: usize = 256;
const CLIFFORD_ROUNDS: usize = 4;
const CLIFFORD_SHOTS: usize = 64;

/// Repetition-code syndrome extraction: even qubits are data, odd qubits
/// ancillas; each round copies the parity of an ancilla's two data
/// neighbours onto it. After an even number of rounds every ancilla is 0.
fn syndrome_circuit(n: usize, rounds: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in (0..n).step_by(2) {
        c.h(q);
    }
    for _ in 0..rounds {
        for a in (1..n).step_by(2) {
            c.cx(a - 1, a);
            if a + 1 < n {
                c.cx(a + 1, a);
            }
        }
    }
    c
}

struct CliffordShots {
    seed: u64,
    circuit: Arc<Circuit>,
    tableau: StabilizerState,
    /// Job index and a digest of its shots: keeping every shot would make
    /// the peak RSS grow with throughput.
    records: Vec<(u64, u64)>,
}

/// The stream's ancillas read 0 whether or not the CX gates act, and also
/// with control and target swapped. After an odd number of rounds each
/// ancilla must instead hold the parity of its data neighbours, which only
/// a working CX gives.
fn check_odd_rounds(seed: u64) -> Vec<String> {
    let circuit = syndrome_circuit(CLIFFORD_QUBITS, 3);
    let tableau = match StabilizerBackend.prepare(&InitialState::ZeroState, &circuit) {
        Ok(tableau) => tableau,
        Err(err) => return vec![format!("clifford_shots: 3-round circuit refused: {err}")],
    };
    let shots = StabilizerBackend::sample_prepared(&tableau, CLIFFORD_SHOTS, seed);
    let off_parity = shots
        .iter()
        .filter(|s| {
            (1..CLIFFORD_QUBITS).step_by(2).any(|a| {
                let right = a + 1 < CLIFFORD_QUBITS && s.get(a + 1);
                s.get(a) != (s.get(a - 1) ^ right)
            })
        })
        .count();
    let data_set = shots
        .iter()
        .any(|s| (0..CLIFFORD_QUBITS).step_by(2).any(|d| s.get(d)));
    let mut failures = Vec::new();
    if off_parity > 0 {
        failures.push(format!(
            "clifford_shots: {off_parity} of {CLIFFORD_SHOTS} 3-round shots have an ancilla \
             off its data neighbours' parity"
        ));
    }
    if !data_set {
        failures.push("clifford_shots: 3-round shots have every data bit 0".into());
    }
    failures
}

fn digest(shots: &[BitString]) -> u64 {
    let mut hasher = DefaultHasher::new();
    shots.hash(&mut hasher);
    hasher.finish()
}

impl CliffordShots {
    fn new(seed: u64, tr: &mut Tracer) -> Self {
        let span = tr.begin("direct.build");
        let circuit = syndrome_circuit(CLIFFORD_QUBITS, CLIFFORD_ROUNDS);
        tr.end(span);
        let span = tr.begin("stabilizer.prepare");
        let tableau = StabilizerBackend
            .prepare(&InitialState::ZeroState, &circuit)
            .expect("the syndrome circuit is Clifford");
        tr.end(span);
        Self {
            seed,
            circuit: Arc::new(circuit),
            tableau,
            records: Vec::new(),
        }
    }
}

impl Workload for CliffordShots {
    fn job(&mut self, k: u64, _tr: &mut Tracer) -> JobSpec {
        JobSpec::sample(self.circuit.clone(), CLIFFORD_SHOTS)
            .on_backend(BackendSpec::Stabilizer)
            .with_seed(derive_stream_seed(self.seed, k as usize))
    }

    fn record(&mut self, k: u64, _spec: &JobSpec, output: &JobOutput) -> bool {
        let JobOutput::BitShots(shots) = output else {
            return false;
        };
        let ancillas_clear = shots.iter().all(|s| {
            s.len() == CLIFFORD_QUBITS && (1..CLIFFORD_QUBITS).step_by(2).all(|a| !s.get(a))
        });
        self.records.push((k, digest(shots)));
        shots.len() == CLIFFORD_SHOTS && ancillas_clear
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for i in sampled(self.records.len()) {
            let (k, shots) = self.records[i];
            let seed = derive_stream_seed(self.seed, k as usize);
            let direct = StabilizerBackend::sample_prepared(&self.tableau, CLIFFORD_SHOTS, seed);
            if digest(&direct) != shots {
                failures.push(format!(
                    "clifford_shots job {k}: shots differ from a direct sample_prepared"
                ));
            }
        }
        failures.extend(check_odd_rounds(self.seed));
        failures
    }

    fn replay(&mut self, spec: &JobSpec, tr: &mut Tracer) -> Replay {
        let span = tr.begin("stabilizer.sample");
        let shots = StabilizerBackend::sample_prepared(&self.tableau, CLIFFORD_SHOTS, spec.seed);
        let worker = tr.end(span);
        Replay {
            output: JobOutput::BitShots(shots),
            worker,
            kernel: None,
        }
    }

    fn gates_per_job(&self) -> usize {
        self.circuit.len()
    }

    fn shots_per_job(&self) -> usize {
        CLIFFORD_SHOTS
    }
}
