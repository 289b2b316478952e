//! The batched job executor: a pool of persistent workers stealing from the
//! fair multi-queue, executing jobs through the shared plan cache and
//! per-worker scratch buffers.
//!
//! # Determinism
//!
//! Every job's output is a pure function of its own [`JobSpec`] (including
//! its seed) — workers share read-only artifacts (plans, observables,
//! distributions) but never accumulate state across jobs that could leak
//! into a result. Scheduling, worker count and cache hits therefore change
//! *when* a job runs, never *what* it returns: a seeded job stream yields
//! bit-identical results on one worker, sixteen workers, or with caching
//! disabled.
//!
//! # Batching without allocation
//!
//! Each worker owns scratch buffers keyed by structural key (bound-circuit
//! scratch) and register size (state-vector scratch). A stream of
//! same-template jobs rebinds angles in place via
//! [`ghs_circuit::ParameterizedCircuit::bind_into`] and resets the state vector in place
//! via `reset_to_basis`, so steady-state execution allocates only the fused
//! kernels the plan emits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ghs_circuit::{Circuit, StructuralKey};
use ghs_core::{
    zero_noise_extrapolation, Backend, BackendError, BackendSpec, InitialState, StabilizerBackend,
};
use ghs_statevector::{CachedDistribution, GroupedPauliSum, ShardedStateVector, StateVector};

use crate::cache::{
    angle_bits, layout_fingerprint, CacheStats, DistKey, PlanCache, STABILIZER_LAYOUT,
};
use crate::job::{CircuitSource, JobId, JobOutput, JobRequest, JobResult, JobSpec, SubmitError};
use crate::queue::FairQueue;

/// Sizing and fairness knobs of a [`Service`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available hardware thread.
    pub workers: usize,
    /// Bound on *queued* jobs — pushes beyond it block (or fail, for
    /// `try_submit`) until workers drain the queue.
    pub queue_capacity: usize,
    /// Bound on queued **plus running** jobs — the total admission window.
    pub max_in_flight: usize,
    /// Per-map capacity of the plan cache; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            max_in_flight: 512,
            cache_capacity: 64,
        }
    }
}

impl ServiceConfig {
    /// A single-worker configuration: jobs run strictly in the fair queue's
    /// pop order. The reference setup for determinism comparisons.
    pub fn serial() -> Self {
        Self {
            workers: 1,
            ..Self::default()
        }
    }
}

/// Everything guarded by the queue lock.
struct QueueState {
    fair: FairQueue<(JobId, JobSpec)>,
    running: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when work arrives (or shutdown begins): wakes workers.
    work_cv: Condvar,
    /// Signalled when admission space frees up: wakes blocked submitters.
    space_cv: Condvar,
    done: Mutex<HashMap<JobId, JobOutput>>,
    /// Signalled when a job finishes: wakes waiters.
    done_cv: Condvar,
    cache: PlanCache,
    next_id: AtomicU64,
    max_in_flight: usize,
}

/// Per-worker reusable buffers (see the module docs on batching).
#[derive(Default)]
struct WorkerScratch {
    /// Bound-circuit buffer per template topology: `bind_into` rewrites
    /// angles in place on every job after the first.
    bound: HashMap<StructuralKey, Circuit>,
    /// Execution state vector per register size, reset in place per job.
    states: HashMap<usize, StateVector>,
}

/// The batched job service (see the crate docs for the full tour).
///
/// ```
/// use std::sync::Arc;
/// use ghs_circuit::ParameterizedCircuit;
/// use ghs_math::c64;
/// use ghs_operators::{PauliString, PauliSum};
/// use ghs_service::{JobOutput, JobSpec, Service, ServiceConfig};
///
/// // E(θ) = ⟨0|RY(θ)† Z RY(θ)|0⟩ = cos θ, evaluated as a job stream: the
/// // template and observable are planned/prepared once, every further
/// // binding rebinds angles in place and reuses the cached artifacts.
/// let mut ansatz = ParameterizedCircuit::new(1, 1);
/// ansatz.ry_p(0, 0, 1.0);
/// let ansatz = Arc::new(ansatz);
/// let mut z = PauliSum::zero(1);
/// z.push(c64(1.0, 0.0), PauliString::parse("Z").unwrap());
/// let z = Arc::new(z);
///
/// let service = Service::new(ServiceConfig::default());
/// let id = service
///     .submit(JobSpec::expectation((ansatz.clone(), vec![0.6]), z.clone()))
///     .unwrap();
/// let result = service.wait(id);
/// let JobOutput::Expectation(e) = result.output else { panic!() };
/// assert!((e - 0.6f64.cos()).abs() < 1e-12);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool described by `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let mut service = Self::build(&config);
        service.workers = (0..workers)
            .map(|_| {
                let shared = service.shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        service
    }

    /// A service with **no workers**: submissions queue but never run. Lets
    /// tests exercise backpressure (`try_submit` → `QueueFull`) and fairness
    /// deterministically, without racing a live pool.
    #[doc(hidden)]
    pub fn new_paused(config: ServiceConfig) -> Self {
        Self::build(&config)
    }

    fn build(config: &ServiceConfig) -> Self {
        assert!(config.max_in_flight > 0, "max_in_flight must be non-zero");
        Self {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState {
                    fair: FairQueue::new(config.queue_capacity),
                    running: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                space_cv: Condvar::new(),
                done: Mutex::new(HashMap::new()),
                done_cv: Condvar::new(),
                cache: PlanCache::new(config.cache_capacity),
                next_id: AtomicU64::new(0),
                max_in_flight: config.max_in_flight,
            }),
            workers: Vec::new(),
        }
    }

    /// Number of live worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job, **blocking** while the admission window (queue
    /// capacity or in-flight bound) is full. Returns the ticket to redeem
    /// with [`Service::wait`].
    ///
    /// ```
    /// use ghs_circuit::Circuit;
    /// use ghs_service::{JobOutput, JobSpec, Service, ServiceConfig};
    ///
    /// let mut bell = Circuit::new(2);
    /// bell.h(0).cx(0, 1);
    /// let service = Service::new(ServiceConfig::serial());
    /// let id = service.submit(JobSpec::sample(bell, 64).with_seed(11)).unwrap();
    /// let JobOutput::Shots(shots) = service.wait(id).output else { panic!() };
    /// // A Bell pair only ever measures |00⟩ or |11⟩.
    /// assert!(shots.iter().all(|&s| s == 0b00 || s == 0b11));
    /// ```
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec, true)
    }

    /// Non-blocking [`Service::submit`]: fails with [`SubmitError::QueueFull`]
    /// instead of waiting when the admission window is full.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec, false)
    }

    fn admit(&self, spec: JobSpec, block: bool) -> Result<JobId, SubmitError> {
        spec.validate()?;
        let shared = &self.shared;
        let mut q = shared.queue.lock().unwrap();
        loop {
            if q.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            let window_full = q.fair.len() + q.running >= shared.max_in_flight;
            if !window_full && !q.fair.is_full() {
                break;
            }
            if !block {
                return Err(SubmitError::QueueFull);
            }
            q = shared.space_cv.wait(q).unwrap();
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let submitter = spec.submitter;
        q.fair
            .push(submitter, (id, spec))
            .unwrap_or_else(|_| unreachable!("space was checked under the lock"));
        drop(q);
        shared.work_cv.notify_one();
        Ok(id)
    }

    /// Blocks until job `id` finishes and returns its result. Each ticket is
    /// redeemable once.
    pub fn wait(&self, id: JobId) -> JobResult {
        let shared = &self.shared;
        let mut done = shared.done.lock().unwrap();
        loop {
            if let Some(output) = done.remove(&id) {
                return JobResult { id, output };
            }
            done = shared.done_cv.wait(done).unwrap();
        }
    }

    /// Submits every spec (validating all of them up front) and waits for
    /// all results, returned **in submission order** regardless of worker
    /// scheduling.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Result<Vec<JobResult>, SubmitError> {
        for spec in specs {
            spec.validate()?;
        }
        let ids: Vec<JobId> = specs
            .iter()
            .map(|spec| self.submit(spec.clone()))
            .collect::<Result<_, _>>()?;
        Ok(ids.into_iter().map(|id| self.wait(id)).collect())
    }

    /// Snapshot of the shared plan cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut scratch = WorkerScratch::default();
    loop {
        let (id, spec) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.fair.pop() {
                    q.running += 1;
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        // Queue space freed by the pop: wake one blocked submitter.
        shared.space_cv.notify_one();

        // A panicking job must not take the worker down (the pool would
        // silently shrink) or leave waiters blocked forever: catch the
        // unwind and report it as a typed failure. The only state the
        // closure can tear is the worker-local scratch, which is dropped
        // and rebuilt below — shared caches only ever mutate under their
        // own short locks, which recover from poisoning (see
        // `cache::lock_recover`).
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&shared.cache, &mut scratch, &spec)
        }))
        .unwrap_or_else(|payload| {
            scratch = WorkerScratch::default();
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            JobOutput::Failed(BackendError::ExecutionPanicked { detail })
        });

        {
            let mut q = shared.queue.lock().unwrap();
            q.running -= 1;
        }
        // The in-flight window shrank too.
        shared.space_cv.notify_one();
        let mut done = shared.done.lock().unwrap();
        done.insert(id, output);
        shared.done_cv.notify_all();
    }
}

/// Resolves the job's circuit into an executable `&Circuit`, rebinding
/// templates into the worker's per-topology scratch buffer (in place after
/// the first job on a topology).
fn resolve_circuit<'a>(
    bound: &'a mut HashMap<StructuralKey, Circuit>,
    source: &'a CircuitSource,
    key: StructuralKey,
) -> &'a Circuit {
    match source {
        CircuitSource::Concrete(c) => c,
        CircuitSource::Template { template, params } => {
            let buf = bound.entry(key).or_insert_with(|| Circuit::new(0));
            template.bind_into(params, buf);
            buf
        }
    }
}

/// In-place reset of the register-sized scratch state to the job's initial
/// state (basis reset for symbolic initials, a buffer copy for dense ones).
fn reset_state<'a>(
    states: &'a mut HashMap<usize, StateVector>,
    n: usize,
    initial: &InitialState,
) -> &'a mut StateVector {
    let state = states
        .entry(n)
        .or_insert_with(|| StateVector::zero_state(n));
    match initial {
        InitialState::ZeroState => state.reset_to_basis(0),
        InitialState::Basis(index) => state.reset_to_basis(*index),
        InitialState::Dense(dense) => state.clone_from(dense),
    }
    state
}

fn run_job(cache: &PlanCache, scratch: &mut WorkerScratch, spec: &JobSpec) -> JobOutput {
    match &spec.request {
        // Mitigated expectations drive the *whole* backend (folded circuits
        // at several noise scales) rather than a single evolution, so they
        // bypass the per-backend fast paths and go through the trait object
        // uniformly.
        JobRequest::MitigatedExpectation { .. } => return run_mitigated(cache, scratch, spec),
        // Gradients never run a plain forward pass: the backend's own
        // gradient engine owns the whole sweep (the flat adjoint on the
        // state-vector backends, sharded included, and the parameter-shift
        // rule on the others). Admission has already refused backends
        // without gradient support.
        JobRequest::Gradient { observable } => {
            let CircuitSource::Template { template, params } = &spec.circuit else {
                unreachable!("validated at submission");
            };
            let grouped = cache.observable(observable);
            return match spec.backend.build().expectation_gradient(
                &spec.initial,
                template,
                params,
                &grouped,
            ) {
                Ok((energy, gradient)) => JobOutput::Gradient { energy, gradient },
                Err(err) => JobOutput::Failed(err),
            };
        }
        _ => {}
    }
    match &spec.backend {
        BackendSpec::Fused => run_fused(cache, scratch, spec),
        BackendSpec::Sharded => run_sharded(cache, scratch, spec),
        BackendSpec::Stabilizer => run_stabilizer(cache, scratch, spec),
        _ => run_generic(&*spec.backend.build(), cache, scratch, spec),
    }
}

/// Zero-noise-extrapolated expectation through whichever backend the spec
/// selects: resolve/rebind the circuit once, then let
/// [`ghs_core::mitigation`] fold and measure it at every noise scale.
fn run_mitigated(cache: &PlanCache, scratch: &mut WorkerScratch, spec: &JobSpec) -> JobOutput {
    let JobRequest::MitigatedExpectation {
        observable,
        lambdas,
        method,
    } = &spec.request
    else {
        unreachable!("dispatched on the request kind");
    };
    let key = spec.circuit.structural_key();
    let circuit = resolve_circuit(&mut scratch.bound, &spec.circuit, key);
    let grouped = cache.observable(observable);
    let backend = spec.backend.build();
    match zero_noise_extrapolation(
        &*backend,
        &spec.initial,
        circuit,
        &grouped,
        lambdas,
        *method,
    ) {
        Ok(result) => JobOutput::MitigatedExpectation {
            mitigated: result.mitigated,
            raw: result.raw(),
            energies: result.energies,
        },
        Err(err) => JobOutput::Failed(err),
    }
}

/// The fused fast path: cached structural plan + in-place rebinding + shared
/// distribution cache. This is where warm-cache throughput comes from.
fn run_fused(cache: &PlanCache, scratch: &mut WorkerScratch, spec: &JobSpec) -> JobOutput {
    let n = spec.circuit.num_qubits();
    let key = spec.circuit.structural_key();
    let WorkerScratch { bound, states } = scratch;
    let circuit = resolve_circuit(bound, &spec.circuit, key);

    // Sampling first checks the distribution cache: a hit skips planning,
    // emission and the state-vector sweep entirely and draws shots straight
    // from the cached alias table. The seed still drives the draw, so
    // repeated jobs with distinct seeds give independent, deterministic
    // streams. Dense initial states have no compact cache identity and skip
    // the distribution cache.
    if let JobRequest::Sample { shots } = spec.request {
        if let Some(initial_index) = spec.initial.basis_index() {
            let dkey = DistKey {
                key,
                initial: initial_index,
                angles: angle_bits(circuit),
                layout: 0,
            };
            if let Some(dist) = cache.distribution(&dkey) {
                return JobOutput::Shots(dist.sample_seeded(shots, spec.seed));
            }
            let state = execute_fused(cache, states, circuit, key, n, &spec.initial);
            let dist = Arc::new(CachedDistribution::from_state(state));
            cache.store_distribution(dkey, dist.clone());
            return JobOutput::Shots(dist.sample_seeded(shots, spec.seed));
        }
        let state = execute_fused(cache, states, circuit, key, n, &spec.initial);
        let dist = CachedDistribution::from_state(state);
        return JobOutput::Shots(dist.sample_seeded(shots, spec.seed));
    }

    let state = execute_fused(cache, states, circuit, key, n, &spec.initial);
    match &spec.request {
        JobRequest::Expectation { observable } => {
            let grouped = cache.observable(observable);
            JobOutput::Expectation(state.expectation_grouped(&grouped).re)
        }
        JobRequest::Probabilities => {
            JobOutput::Probabilities(state.amplitudes().iter().map(|a| a.norm_sqr()).collect())
        }
        JobRequest::Sample { .. }
        | JobRequest::Gradient { .. }
        | JobRequest::MitigatedExpectation { .. } => {
            unreachable!("dispatched by run_job")
        }
    }
}

/// Plan (cached) → emit → apply onto the in-place-reset scratch state.
///
/// Shares `run_fused`'s crossover: below [`FUSED_MIN_DIM`] amplitudes the
/// fusion pass costs more than the per-gate sweep it replaces, so tiny
/// registers skip the plan cache and apply the circuit directly — keeping
/// service results bit-identical to the `FusedStatevector` backend at every
/// register size.
fn execute_fused<'a>(
    cache: &PlanCache,
    states: &'a mut HashMap<usize, StateVector>,
    circuit: &Circuit,
    key: StructuralKey,
    n: usize,
    initial: &InitialState,
) -> &'a StateVector {
    let state = reset_state(states, n, initial);
    if state.dim() >= ghs_statevector::fused::FUSED_MIN_DIM {
        let plan = cache.plan(circuit, key);
        let fused = plan.emit(circuit);
        state.apply_fused(&fused);
    } else {
        state.run_unfused(circuit);
    }
    state
}

/// The sharded fast path: cached structural plan **and cached qubit
/// relabeling** + in-place template rebinding + shared distribution cache,
/// executed through [`ShardedStateVector`]. Mirrors [`run_fused`]; the
/// distribution cache keys include the execution layout (shard count +
/// relabeling) via [`layout_fingerprint`], so flat and sharded entries for
/// the same circuit never alias. Results are bit-identical to the flat path
/// for every shard count — the layout key pins cache provenance, not
/// output values.
fn run_sharded(cache: &PlanCache, scratch: &mut WorkerScratch, spec: &JobSpec) -> JobOutput {
    let n = spec.circuit.num_qubits();
    let key = spec.circuit.structural_key();
    let WorkerScratch { bound, .. } = scratch;
    let circuit = resolve_circuit(bound, &spec.circuit, key);
    let sharded_initial = |n: usize| match &spec.initial {
        InitialState::ZeroState => ShardedStateVector::basis_state(n, 0),
        InitialState::Basis(index) => ShardedStateVector::basis_state(n, *index),
        InitialState::Dense(dense) => ShardedStateVector::from_state(dense),
    };
    let execute = |cache: &PlanCache| -> StateVector {
        let plan = cache.plan(circuit, key);
        let fused = plan.emit(circuit);
        let relabeling = cache.sharding_relabeling(&fused, key);
        let mut state = sharded_initial(n);
        state.run_fused_with(&fused, &relabeling);
        state.to_state()
    };

    if let JobRequest::Sample { shots } = spec.request {
        // Dense initial states skip the distribution cache (no compact
        // cache identity); symbolic ones share alias tables as before.
        if let Some(initial_index) = spec.initial.basis_index() {
            let plan = cache.plan(circuit, key);
            let fused = plan.emit(circuit);
            let relabeling = cache.sharding_relabeling(&fused, key);
            let dkey = DistKey {
                key,
                initial: initial_index,
                angles: angle_bits(circuit),
                layout: layout_fingerprint(ghs_statevector::shard_count_for(n), &relabeling),
            };
            if let Some(dist) = cache.distribution(&dkey) {
                return JobOutput::Shots(dist.sample_seeded(shots, spec.seed));
            }
            let mut state = sharded_initial(n);
            state.run_fused_with(&fused, &relabeling);
            let dist = Arc::new(CachedDistribution::from_state(&state.to_state()));
            cache.store_distribution(dkey, dist.clone());
            return JobOutput::Shots(dist.sample_seeded(shots, spec.seed));
        }
        let dist = CachedDistribution::from_state(&execute(cache));
        return JobOutput::Shots(dist.sample_seeded(shots, spec.seed));
    }

    let state = execute(cache);
    match &spec.request {
        JobRequest::Expectation { observable } => {
            let grouped = cache.observable(observable);
            JobOutput::Expectation(state.expectation_grouped(&grouped).re)
        }
        JobRequest::Probabilities => {
            JobOutput::Probabilities(state.amplitudes().iter().map(|a| a.norm_sqr()).collect())
        }
        JobRequest::Sample { .. }
        | JobRequest::Gradient { .. }
        | JobRequest::MitigatedExpectation { .. } => {
            unreachable!("dispatched by run_job")
        }
    }
}

/// The generic path for non-fused backends: same template rebinding and
/// observable caching, execution through the [`Backend`] trait. Typed
/// backend failures become [`JobOutput::Failed`] instead of unwinding a
/// worker.
fn run_generic(
    backend: &dyn Backend,
    cache: &PlanCache,
    scratch: &mut WorkerScratch,
    spec: &JobSpec,
) -> JobOutput {
    let key = spec.circuit.structural_key();
    let WorkerScratch { bound, .. } = scratch;
    let circuit = resolve_circuit(bound, &spec.circuit, key);
    let result = match &spec.request {
        JobRequest::Expectation { observable } => {
            let grouped = cache.observable(observable);
            backend
                .expectation(&spec.initial, circuit, &grouped)
                .map(JobOutput::Expectation)
        }
        JobRequest::Sample { shots } => backend
            .sample(&spec.initial, circuit, *shots, spec.seed)
            .map(JobOutput::Shots),
        JobRequest::Probabilities => backend
            .probabilities(&spec.initial, circuit)
            .map(JobOutput::Probabilities),
        JobRequest::Gradient { .. } | JobRequest::MitigatedExpectation { .. } => {
            unreachable!("dispatched by run_job")
        }
    };
    result.unwrap_or_else(JobOutput::Failed)
}

/// The stabilizer path: the Clifford circuit is conjugated into a tableau
/// **once per (structure, initial, angles)** and cached ([`PlanCache`]'s
/// tableau map); every sampling job then goes straight to per-shot collapse
/// of tableau clones on derived RNG streams. Registers that fit a machine
/// word report shots as dense indices (comparable with the dense backends);
/// wider registers report packed [`JobOutput::BitShots`]. Admission has
/// already rejected everything the capability vocabulary describes, so the
/// remaining failure modes (none today) would land in
/// [`JobOutput::Failed`].
fn run_stabilizer(cache: &PlanCache, scratch: &mut WorkerScratch, spec: &JobSpec) -> JobOutput {
    let backend = StabilizerBackend;
    let n = spec.circuit.num_qubits();
    let key = spec.circuit.structural_key();
    let WorkerScratch { bound, .. } = scratch;
    let circuit = resolve_circuit(bound, &spec.circuit, key);

    let tableau = {
        let initial_index = spec
            .initial
            .basis_index()
            .expect("dense initials are rejected at admission");
        let tkey = DistKey {
            key,
            initial: initial_index,
            angles: angle_bits(circuit),
            layout: STABILIZER_LAYOUT,
        };
        match cache.tableau(&tkey) {
            Some(t) => t,
            None => {
                let t = match backend.prepare(&spec.initial, circuit) {
                    Ok(t) => Arc::new(t),
                    Err(err) => return JobOutput::Failed(err),
                };
                cache.store_tableau(tkey, t.clone());
                t
            }
        }
    };

    match &spec.request {
        JobRequest::Sample { shots } => {
            let bits = StabilizerBackend::sample_prepared(&tableau, *shots, spec.seed);
            if n <= usize::BITS as usize {
                JobOutput::Shots(
                    bits.iter()
                        .map(|b| b.to_index().expect("register fits a machine word"))
                        .collect(),
                )
            } else {
                JobOutput::BitShots(bits)
            }
        }
        JobRequest::Expectation { observable } => {
            let grouped = cache.observable(observable);
            JobOutput::Expectation(tableau_expectation(&tableau, &grouped))
        }
        JobRequest::Probabilities => JobOutput::Probabilities(tableau.basis_probabilities()),
        JobRequest::Gradient { .. } | JobRequest::MitigatedExpectation { .. } => {
            unreachable!("rejected at admission or dispatched by run_job")
        }
    }
}

/// Pauli-sum expectation read off a prepared tableau (each string is exactly
/// `0` or `±1`) — the cached-tableau twin of the stabilizer backend's
/// `expectation` entry point.
fn tableau_expectation(
    tableau: &ghs_stabilizer::StabilizerState,
    grouped: &GroupedPauliSum,
) -> f64 {
    let mut acc = ghs_math::Complex64::ZERO;
    for (coeff, x_mask, z_mask) in grouped.string_masks() {
        acc += coeff * tableau.expectation_dense_masks(x_mask, z_mask);
    }
    acc.re
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use ghs_circuit::Circuit;
    use ghs_math::c64;
    use ghs_operators::{PauliString, PauliSum};
    use std::sync::Arc;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn zz() -> Arc<PauliSum> {
        let mut sum = PauliSum::zero(2);
        sum.push(c64(1.0, 0.0), PauliString::parse("ZZ").unwrap());
        Arc::new(sum)
    }

    #[test]
    fn paused_service_reports_queue_full_deterministically() {
        let service = Service::new_paused(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_in_flight: 2,
            cache_capacity: 8,
        });
        let spec = JobSpec::expectation(bell(), zz());
        service.try_submit(spec.clone()).unwrap();
        service.try_submit(spec.clone()).unwrap();
        assert_eq!(
            service.try_submit(spec.clone()),
            Err(SubmitError::QueueFull)
        );
        // The in-flight bound also gates admission, independently of raw
        // queue capacity.
        let windowed = Service::new_paused(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            max_in_flight: 1,
            cache_capacity: 8,
        });
        windowed.try_submit(spec.clone()).unwrap();
        assert_eq!(windowed.try_submit(spec), Err(SubmitError::QueueFull));
    }

    #[test]
    fn invalid_specs_are_rejected_at_submission() {
        let service = Service::new_paused(ServiceConfig::serial());
        // Observable register mismatch.
        let mut wide = PauliSum::zero(3);
        wide.push(c64(1.0, 0.0), PauliString::parse("ZZZ").unwrap());
        let err = service
            .try_submit(JobSpec::expectation(bell(), Arc::new(wide)))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        // Gradient on a concrete circuit.
        let err = service
            .try_submit(JobSpec {
                request: crate::job::JobRequest::Gradient { observable: zz() },
                ..JobSpec::expectation(bell(), zz())
            })
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        // Initial basis index out of range.
        let err = service
            .try_submit(JobSpec::probabilities(bell()).starting_at(4))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
    }

    #[test]
    fn bell_expectation_and_probabilities_are_exact() {
        let service = Service::new(ServiceConfig::serial());
        let batch = service
            .run_batch(&[
                JobSpec::expectation(bell(), zz()),
                JobSpec::probabilities(bell()),
                JobSpec::probabilities(bell()).starting_at(1),
            ])
            .unwrap();
        let JobOutput::Expectation(e) = batch[0].output else {
            panic!("wrong output kind");
        };
        assert!((e - 1.0).abs() < 1e-12);
        let JobOutput::Probabilities(p) = &batch[1].output else {
            panic!("wrong output kind");
        };
        assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
        // |01⟩ input: H ⊗ CX maps it into the odd-parity Bell pair.
        let JobOutput::Probabilities(p) = &batch[2].output else {
            panic!("wrong output kind");
        };
        assert!((p[1] - 0.5).abs() < 1e-12 && (p[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn panicking_job_fails_typed_and_does_not_wedge_the_worker() {
        // One worker: if the panic killed or wedged it, the follow-up job
        // could never complete and `wait` would block forever.
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // Admission has no vocabulary for noise strengths, and the
        // trajectory sampler rejects a probability above 1.0 with a panic
        // at execution time — exactly the class of failure the worker must
        // absorb instead of unwinding.
        let bad = JobSpec::expectation(bell(), zz()).on_backend(BackendSpec::Noisy {
            depolarizing: 2.0,
            dephasing: 0.0,
            trajectories: 2,
            seed: 7,
        });
        let id = service.submit(bad).unwrap();
        let result = service.wait(id);
        assert!(
            matches!(
                result.output,
                JobOutput::Failed(BackendError::ExecutionPanicked { .. })
            ),
            "expected a typed panic failure, got {:?}",
            result.output
        );
        // The same (sole) worker keeps serving jobs afterwards, through the
        // same shared caches.
        let good = service.submit(JobSpec::expectation(bell(), zz())).unwrap();
        let JobOutput::Expectation(e) = service.wait(good).output else {
            panic!("wrong output kind");
        };
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mitigated_expectation_jobs_run_on_every_backend_family() {
        use ghs_operators::kraus::{KrausChannel, NoiseModel};

        let service = Service::new(ServiceConfig::serial());
        let model = NoiseModel::noiseless().with_all_gates(KrausChannel::depolarizing(0.01));
        let specs = [
            // Noiseless fused backend: mitigation is the identity.
            JobSpec::mitigated_expectation(bell(), zz()),
            // Exact density oracle under depolarizing noise.
            JobSpec::mitigated_expectation(bell(), zz()).on_backend(BackendSpec::Density {
                model: model.clone(),
            }),
            // Stochastic trajectory ensemble under the same model.
            JobSpec::mitigated_expectation(bell(), zz()).on_backend(BackendSpec::Trajectory {
                model,
                trajectories: 200,
                seed: 13,
            }),
        ];
        let results = service.run_batch(&specs).unwrap();
        for result in &results {
            let JobOutput::MitigatedExpectation {
                mitigated,
                raw,
                energies,
            } = &result.output
            else {
                panic!("wrong output kind: {:?}", result.output);
            };
            assert_eq!(energies.len(), 3);
            assert!(mitigated.is_finite() && raw.is_finite());
        }
        let JobOutput::MitigatedExpectation { mitigated, raw, .. } = results[0].output else {
            unreachable!()
        };
        assert!((mitigated - 1.0).abs() < 1e-10 && (raw - 1.0).abs() < 1e-10);
        // On the exact noisy oracle, extrapolation improves over raw.
        let JobOutput::MitigatedExpectation { mitigated, raw, .. } = results[1].output else {
            unreachable!()
        };
        assert!((mitigated - 1.0).abs() < (raw - 1.0).abs());

        // Validation rejects malformed folding ladders.
        let bad = JobSpec {
            request: crate::job::JobRequest::MitigatedExpectation {
                observable: zz(),
                lambdas: vec![1, 2],
                method: ghs_core::ExtrapolationMethod::Linear,
            },
            ..JobSpec::expectation(bell(), zz())
        };
        assert!(matches!(
            service.try_submit(bad),
            Err(SubmitError::Invalid(_))
        ));
    }

    /// A job output as its variant plus raw bits, so that equality is bit
    /// for bit (`-0.0` and `+0.0` differ).
    fn output_bits(output: &JobOutput) -> (std::mem::Discriminant<JobOutput>, Vec<u64>) {
        let bits = match output {
            JobOutput::Expectation(e) => vec![e.to_bits()],
            JobOutput::Gradient { energy, gradient } => std::iter::once(energy)
                .chain(gradient)
                .map(|x| x.to_bits())
                .collect(),
            JobOutput::Shots(shots) => shots.iter().map(|&s| s as u64).collect(),
            JobOutput::Probabilities(p) => p.iter().map(|x| x.to_bits()).collect(),
            other => panic!("unexpected output {other:?}"),
        };
        (std::mem::discriminant(output), bits)
    }

    /// Every backend spec, through the service, returns bit for bit what
    /// `spec.build()` returns when called directly, for every request kind
    /// its capabilities admit.
    #[test]
    fn every_backend_spec_matches_its_direct_backend() {
        use ghs_operators::kraus::NoiseModel;
        use ghs_statevector::testkit::{
            random_clifford_circuit, random_parameterized_circuit, random_pauli_sum, PauliSumKind,
        };

        let model = NoiseModel::pauli(0.05, 0.02);
        let noisy = BackendSpec::Noisy {
            depolarizing: 0.05,
            dephasing: 0.02,
            trajectories: 3,
            seed: 17,
        };
        let trajectory = BackendSpec::Trajectory {
            model: model.clone(),
            trajectories: 3,
            seed: 17,
        };
        let density = BackendSpec::Density { model };
        // 11 qubits put the dense engines above `FUSED_MIN_DIM`, where the
        // service runs its plan-cache path. The noise rows stay at 4 qubits
        // and three trajectories: the Kraus trajectory engine's
        // parameter-shift gradient costs seconds beyond that.
        let rows = [
            (BackendSpec::Fused, 4),
            (BackendSpec::Fused, 11),
            (BackendSpec::Sharded, 4),
            (BackendSpec::Sharded, 11),
            (BackendSpec::Reference, 4),
            (BackendSpec::Reference, 11),
            (BackendSpec::Stabilizer, 4),
            (BackendSpec::Stabilizer, 11),
            (noisy, 4),
            (trajectory, 4),
            (density, 4),
        ];
        let service = Service::new(ServiceConfig::serial());
        let zero = InitialState::ZeroState;
        for (spec, n) in rows {
            let caps = spec.capabilities();
            let direct = spec.build();
            let seed = n as u64;
            let observable = Arc::new(random_pauli_sum(n, 6, PauliSumKind::Mixed, seed));
            let grouped = GroupedPauliSum::new(&observable);
            let params = vec![0.3, -0.7, 1.1];
            let (source, circuit) = if caps.clifford_only {
                let circuit = random_clifford_circuit(n, 24, seed);
                (CircuitSource::from(circuit.clone()), circuit)
            } else {
                let template = Arc::new(random_parameterized_circuit(n, 8, 3, seed));
                let circuit = template.bind(&params);
                (CircuitSource::from((template, params.clone())), circuit)
            };
            let mut jobs = vec![
                (
                    JobSpec::expectation(source.clone(), observable.clone()),
                    direct
                        .expectation(&zero, &circuit, &grouped)
                        .map(JobOutput::Expectation),
                ),
                (
                    JobSpec::probabilities(source.clone()),
                    direct
                        .probabilities(&zero, &circuit)
                        .map(JobOutput::Probabilities),
                ),
                (
                    JobSpec::sample(source.clone(), 256).with_seed(5),
                    direct.sample(&zero, &circuit, 256, 5).map(JobOutput::Shots),
                ),
            ];
            if let CircuitSource::Template { template, .. } = &source {
                assert!(caps.supports_gradients, "{}", spec.name());
                jobs.push((
                    JobSpec::gradient(template.clone(), params.clone(), observable.clone()),
                    direct
                        .expectation_gradient(&zero, template, &params, &grouped)
                        .map(|(energy, gradient)| JobOutput::Gradient { energy, gradient }),
                ));
            }
            for (job, expected) in jobs {
                let request = format!("{:?}", job.request);
                let id = service.submit(job.on_backend(spec.clone())).unwrap();
                assert!(
                    output_bits(&service.wait(id).output) == output_bits(&expected.unwrap()),
                    "{} at {n} qubits: {request}",
                    spec.name()
                );
            }
        }
        // Admission enforces the density register cap before any worker runs.
        let wide = JobSpec::probabilities(Circuit::new(13)).on_backend(BackendSpec::Density {
            model: NoiseModel::noiseless(),
        });
        assert!(matches!(
            service.try_submit(wide),
            Err(SubmitError::Unsupported(
                BackendError::RegisterTooLarge { .. }
            ))
        ));
    }

    #[test]
    fn drop_with_outstanding_jobs_shuts_down_cleanly() {
        let service = Service::new(ServiceConfig::default());
        for s in 0..32 {
            service
                .submit(JobSpec::sample(bell(), 16).with_seed(s))
                .unwrap();
        }
        // Dropping joins the workers: they drain the queue before exiting,
        // and no thread is left blocked on a condvar.
        drop(service);
    }
}
