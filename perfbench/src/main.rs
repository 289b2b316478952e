//! Service benchmark: four single-kind job streams driven through
//! `ghs_service` by one client thread, every output checked against an
//! oracle, and a traced replay of the same seeded jobs through the layer
//! functions the service worker calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload qaoa_step --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads, the metric glossary and the
//! layer table.

mod probe;
mod trace;
mod workloads;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ghs_math::{c64, CMatrix};
use ghs_operators::KrausChannel;
use ghs_service::{CacheStats, JobOutput, JobSpec, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use probe::{
    host_probe_median_ms, host_steal_s, median, peak_rss_mib, quantile, spawn_probe_us, CpuTimes,
};
use trace::{Group, Tracer};
use workloads::Workload;

/// Fresh set-ups per run; `setup_s` is their median. Set-up `i` warms up
/// with job `i`, and the measured jobs start at job `SETUPS`.
const SETUPS: u32 = 31;
/// The measured window lasts `--seconds`; each of its slices stretches (up
/// to [`WINDOW_STRETCH`] times) until it completed its share of this many
/// jobs, so the p90 always has at least ten samples beyond it and a median
/// of many.
const MIN_JOBS: u32 = 100;
const WINDOW_STRETCH: f64 = 3.0;
/// Host probe repetitions at the start and at the end of a run.
const PROBE_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?.to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// Attempted and failed jobs of the run, and why each failure failed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.messages.push(message);
    }

    /// Counts one finished job: refused, failed, or checked.
    fn settle(&mut self, w: &mut dyn Workload, k: u64, spec: &JobSpec, output: &JobOutput) {
        if let JobOutput::Failed(err) = output {
            self.fail(format!("job {k} failed: {err}"));
        } else if !w.record(k, spec, output) {
            self.fail(format!("job {k}: output failed its check"));
        }
    }
}

struct SetUp {
    service: Service,
    workload: Box<dyn Workload>,
    seconds: f64,
}

/// One fresh set-up: a new service, the workload's templates, observables
/// and circuits, and a warm-up job that fills the caches.
fn set_up(args: &Args, index: u32, tr: &mut Tracer, ledger: &mut Ledger) -> Result<SetUp, String> {
    tr.set_group(Group::Setup(index));
    let start = Instant::now();
    let service = Service::new(service_config());
    let mut workload = workloads::build(&args.workload, args.seed, tr).ok_or("unknown workload")?;
    let k = u64::from(index);
    let spec = workload.job(k, tr);
    ledger.attempted += 1;
    match service.submit(spec.clone()) {
        Ok(id) => {
            let output = service.wait(id).output;
            ledger.settle(workload.as_mut(), k, &spec, &output);
        }
        Err(err) => ledger.fail(format!("warm-up job {k} refused: {err}")),
    }
    Ok(SetUp {
        service,
        workload,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// What the closed-loop windows of a run measured, summed over them.
#[derive(Default)]
struct Window {
    latencies_s: Vec<f64>,
    submit_s: Vec<f64>,
    elapsed_s: f64,
    cpu: CpuTimes,
    steal_s: f64,
    cache: CacheStats,
}

/// Runs a closed loop for `seconds` (stretched to `min_jobs` jobs) and adds
/// what it measured to `w`. The client keeps one job in flight: more would
/// put the workers' own parallel calls on more threads than the CPUs, and
/// that oversubscription amplified the host's noise several times over.
/// A request's latency runs from the start of building its job to the
/// return of `Service::wait`.
fn closed_loop(
    s: &mut SetUp,
    next_k: &mut u64,
    seconds: f64,
    min_jobs: usize,
    ledger: &mut Ledger,
    w: &mut Window,
) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let jobs_before = w.latencies_s.len();
    let cpu_before = CpuTimes::now()?;
    let steal_before = host_steal_s()?;
    let cache_before = s.service.cache_stats();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = w.latencies_s.len() - jobs_before;
        if elapsed >= seconds && (done >= min_jobs || elapsed >= seconds * WINDOW_STRETCH) {
            break;
        }
        let k = *next_k;
        *next_k += 1;
        ledger.attempted += 1;
        let t0 = Instant::now();
        let spec = s.workload.job(k, &mut tr);
        let submit = Instant::now();
        let id = match s.service.submit(spec.clone()) {
            Ok(id) => id,
            Err(err) => {
                ledger.fail(format!("job {k} refused: {err}"));
                continue;
            }
        };
        w.submit_s.push(submit.elapsed().as_secs_f64());
        let output = s.service.wait(id).output;
        w.latencies_s.push(t0.elapsed().as_secs_f64());
        ledger.settle(s.workload.as_mut(), k, &spec, &output);
    }
    w.elapsed_s += start.elapsed().as_secs_f64();
    let cpu = CpuTimes::now()?.since(&cpu_before);
    w.cpu.user_s += cpu.user_s;
    w.cpu.sys_s += cpu.sys_s;
    w.steal_s += host_steal_s()? - steal_before;
    add_cache_delta(&mut w.cache, &s.service.cache_stats(), &cache_before);
    Ok(())
}

fn add_cache_delta(total: &mut CacheStats, after: &CacheStats, before: &CacheStats) {
    total.plan_hits += after.plan_hits - before.plan_hits;
    total.plan_misses += after.plan_misses - before.plan_misses;
    total.observable_hits += after.observable_hits - before.observable_hits;
    total.observable_misses += after.observable_misses - before.observable_misses;
    total.tableau_hits += after.tableau_hits - before.tableau_hits;
    total.tableau_misses += after.tableau_misses - before.tableau_misses;
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The free counters of a window: process CPU, host steal, cache hits.
fn counters(w: &Window) -> Vec<Metric> {
    let jobs = w.latencies_s.len().max(1) as f64;
    let cpu_s = w.cpu.user_s + w.cpu.sys_s;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let c = &w.cache;
    vec![
        ("runtime.cpu_ms_per_job", cpu_s * 1e3 / jobs, "ms"),
        ("runtime.sys_frac", w.cpu.sys_s / cpu_s.max(1e-9), "frac"),
        (
            "host.steal_frac",
            w.steal_s / (w.elapsed_s * cpus).max(1e-9),
            "frac",
        ),
        (
            "cache.plan_hit_ratio",
            hit_ratio(c.plan_hits, c.plan_misses),
            "ratio",
        ),
        (
            "cache.observable_hit_ratio",
            hit_ratio(c.observable_hits, c.observable_misses),
            "ratio",
        ),
        (
            "cache.tableau_hit_ratio",
            hit_ratio(c.tableau_hits, c.tableau_misses),
            "ratio",
        ),
    ]
}

/// Fixed inputs of the micro-timed layer calls made once per traced job.
struct LayerProbes {
    /// Depolarizing classifies as Pauli noise after matching all four Kraus
    /// operators; amplitude damping is rejected after a few products, so
    /// each gets a span name of its own.
    pauli: KrausChannel,
    general: KrausChannel,
    m2: [CMatrix; 2],
    m4: [CMatrix; 2],
}

impl LayerProbes {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut random = |n: usize| {
            let data = (0..n * n)
                .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            CMatrix::from_vec(n, n, data)
        };
        Self {
            pauli: KrausChannel::depolarizing(0.01),
            general: KrausChannel::amplitude_damping(0.02),
            m2: [random(2), random(2)],
            m4: [random(4), random(4)],
        }
    }

    fn run(&self, tr: &mut Tracer) {
        for (name, channel) in [
            ("kraus.classify_pauli", &self.pauli),
            ("kraus.classify_general", &self.general),
        ] {
            let span = tr.begin(name);
            black_box(black_box(channel).pauli_probabilities());
            tr.end(span);
        }
        let span = tr.begin("dense.matmul2");
        black_box(black_box(&self.m2[0]).matmul(&self.m2[1]));
        tr.end(span);
        let span = tr.begin("dense.matmul4");
        black_box(black_box(&self.m4[0]).matmul(&self.m4[1]));
        tr.end(span);
    }
}

/// What the traced window measured, besides the spans.
#[derive(Default)]
struct Traced {
    latencies_s: Vec<f64>,
    overhead_s: Vec<f64>,
    ops: Vec<f64>,
    gbps: Vec<f64>,
}

/// Replays each job through the layer functions, then runs the same job
/// through the service alone, so the service's overhead is paired per job.
fn traced_loop(
    s: &mut SetUp,
    next_k: &mut u64,
    seconds: f64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Traced {
    const MIN_TRACED_JOBS: usize = 10;
    let probes = LayerProbes::new();
    let mut out = Traced::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || (out.latencies_s.len() < MIN_TRACED_JOBS
            && start.elapsed().as_secs_f64() < seconds * WINDOW_STRETCH)
    {
        let k = *next_k;
        *next_k += 1;
        ledger.attempted += 1;
        tr.set_group(Group::Job(k));
        let root = tr.begin("job");
        let t0 = Instant::now();
        let spec = s.workload.job(k, tr);
        let build = t0.elapsed();
        let replay = s.workload.replay(&spec, tr);
        probes.run(tr);
        let span = tr.begin("service.job");
        let output = s
            .service
            .submit(spec.clone())
            .map(|id| s.service.wait(id).output);
        let service = tr.end(span);
        tr.end(root);
        let output = match output {
            Ok(output) => output,
            Err(err) => {
                ledger.fail(format!("job {k} refused: {err}"));
                continue;
            }
        };
        out.latencies_s.push((build + service).as_secs_f64());
        out.overhead_s
            .push(service.as_secs_f64() - replay.worker.as_secs_f64());
        if let Some(kernel) = &replay.kernel {
            let bytes = kernel.ops as f64 * (1u64 << kernel.qubits) as f64 * 16.0 * 2.0;
            out.ops.push(kernel.ops as f64);
            out.gbps.push(bytes / kernel.apply.as_secs_f64() / 1e9);
        }
        if replay.output != output {
            ledger.fail(format!(
                "job {k}: replayed output differs from the service's"
            ));
        }
        ledger.settle(s.workload.as_mut(), k, &spec, &output);
    }
    out
}

/// Median of a layer's per-group totals (0 when the layer was not called).
fn layer(tr: &Tracer, name: &str) -> f64 {
    median(&mut tr.per_group_s(name))
}

fn per_call(tr: &Tracer, name: &str) -> f64 {
    median(&mut tr.per_call_s(name))
}

type Metric = (&'static str, f64, &'static str);

/// The untraced run. The first set-up's service serves the measured
/// window, which is cut into slices with one more fresh set-up timed after
/// each, so `setup_s` samples the same stretch of host time as the window.
fn run_plain(args: &Args, ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new(false);
    let mut s = set_up(args, 0, &mut tr, ledger)?;
    let mut setups = vec![s.seconds];
    let mut next_k = u64::from(SETUPS);
    let slices = SETUPS - 1;
    let mut w = Window::default();
    for i in 1..SETUPS {
        closed_loop(
            &mut s,
            &mut next_k,
            args.seconds / f64::from(slices),
            MIN_JOBS.div_ceil(slices) as usize,
            ledger,
            &mut w,
        )?;
        setups.push(set_up(args, i, &mut tr, ledger)?.seconds);
    }
    for message in s.workload.verify() {
        ledger.fail(message);
    }

    let jobs = w.latencies_s.len();
    let mut sorted = w.latencies_s.clone();
    sorted.sort_by(f64::total_cmp);
    let p90 = quantile(&sorted, 0.9);
    let beyond = sorted.iter().filter(|&&l| l > p90).count();
    println!("info jobs {jobs} count");
    println!("info latency_p90_ms {} ms", p90 * 1e3);
    println!("info p90_samples_beyond {beyond} count");
    for (name, value, unit) in counters(&w) {
        println!("info {name} {value} {unit}");
    }
    if beyond < 10 {
        eprintln!("warning: only {beyond} samples beyond the p90");
    }
    Ok(vec![
        ("latency_p50_ms", quantile(&sorted, 0.5) * 1e3, "ms"),
        ("jobs_per_s", jobs as f64 / w.elapsed_s, "1/s"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

/// The traced run: set-ups with spans, an untraced window for the free
/// counters and as the latency baseline, and the traced replay window.
/// Spans go to `.bench_out/`.
fn run_traced(args: &Args, ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new(true);
    let mut s = set_up(args, 0, &mut tr, ledger)?;
    for i in 1..SETUPS {
        set_up(args, i, &mut tr, ledger)?;
    }
    let mut next_k = u64::from(SETUPS);
    let slice = args.seconds / 2.0;
    let mut free = Window::default();
    closed_loop(&mut s, &mut next_k, slice, 1, ledger, &mut free)?;
    let mut traced = traced_loop(&mut s, &mut next_k, slice, &mut tr, ledger);
    for message in s.workload.verify() {
        ledger.fail(message);
    }

    let path = PathBuf::from(".bench_out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("info trace_file {} path", path.display());

    let w = &s.workload;
    let per = |total: f64, count: usize| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let overhead = median(&mut traced.latencies_s) / median(&mut free.latencies_s.clone()) - 1.0;
    let mut metrics = counters(&free);
    metrics.extend([
        (
            "service.submit_us",
            median(&mut free.submit_s.clone()) * 1e6,
            "us",
        ),
        (
            "service.overhead_ms",
            median(&mut traced.overhead_s) * 1e3,
            "ms",
        ),
        ("direct.build_ms", layer(&tr, "direct.build") * 1e3, "ms"),
        ("circuit.gates_per_job", w.gates_per_job() as f64, "count"),
        ("fusion.plan_ms", layer(&tr, "fusion.plan") * 1e3, "ms"),
        ("fusion.emit_ms", layer(&tr, "fusion.emit") * 1e3, "ms"),
        ("fusion.ops_per_job", median(&mut traced.ops), "count"),
        (
            "dense.matmul2_us",
            per_call(&tr, "dense.matmul2") * 1e6,
            "us",
        ),
        (
            "dense.matmul4_us",
            per_call(&tr, "dense.matmul4") * 1e6,
            "us",
        ),
        ("param.bind_us", layer(&tr, "param.bind") * 1e6, "us"),
        ("kernels.apply_ms", layer(&tr, "kernels.apply") * 1e3, "ms"),
        ("kernels.gbps", median(&mut traced.gbps), "GB/s"),
        (
            "expectation.prepare_ms",
            layer(&tr, "expectation.prepare") * 1e3,
            "ms",
        ),
        (
            "expectation.readout_ms",
            layer(&tr, "expectation.readout") * 1e3,
            "ms",
        ),
        (
            "gradient.adjoint_ms",
            layer(&tr, "gradient.adjoint") * 1e3,
            "ms",
        ),
        (
            "trajectory.ms_per_trajectory",
            per(
                layer(&tr, "trajectory.expectation") * 1e3,
                w.trajectories_per_job(),
            ),
            "ms",
        ),
        (
            "kraus.classify_pauli_us",
            per_call(&tr, "kraus.classify_pauli") * 1e6,
            "us",
        ),
        (
            "kraus.classify_general_us",
            per_call(&tr, "kraus.classify_general") * 1e6,
            "us",
        ),
        (
            "kraus.applications_per_job",
            w.kraus_applications_per_job() as f64,
            "count",
        ),
        (
            "stabilizer.prepare_ms",
            layer(&tr, "stabilizer.prepare") * 1e3,
            "ms",
        ),
        (
            "stabilizer.shot_us",
            per(layer(&tr, "stabilizer.sample") * 1e6, w.shots_per_job()),
            "us",
        ),
        ("trace.overhead_frac", overhead, "frac"),
    ]);
    Ok(metrics)
}

fn json_result(correct: bool, ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let probe_start = host_probe_median_ms(PROBE_REPS);
    let spawn_start = spawn_probe_us();
    let mut ledger = Ledger::default();
    let run = if args.trace {
        run_traced(&args, &mut ledger)
    } else {
        run_plain(&args, &mut ledger)
    };
    let mut metrics = match run {
        Ok(metrics) => metrics,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let probe_end = host_probe_median_ms(PROBE_REPS);
    let spawn_end = spawn_probe_us();
    println!("info host.probe_ms.start {probe_start} ms");
    println!("info host.probe_ms.end {probe_end} ms");
    println!("info host.spawn_us.start {spawn_start} us");
    println!("info host.spawn_us.end {spawn_end} us");
    if args.trace {
        metrics.push(("host.probe_ms", (probe_start + probe_end) / 2.0, "ms"));
        metrics.push(("host.spawn_us", (spawn_start + spawn_end) / 2.0, "us"));
    }
    for message in &ledger.messages {
        eprintln!("perfbench: {message}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not finite: {metrics:?}");
        for m in metrics.iter_mut().filter(|m| !m.1.is_finite()) {
            m.1 = 0.0;
        }
    }
    let correct = ledger.failed == 0 && ledger.attempted > 0 && finite;
    println!("{}", json_result(correct, &ledger, &metrics));
    ExitCode::SUCCESS
}
