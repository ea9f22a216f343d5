//! The repository benchmark: named workloads run through the public API,
//! outputs checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload torus_balance --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload until `--seconds` have passed and
//! reports the end-to-end metrics, times as host-corrected medians over
//! the repetitions (see `reference.rs`).
//! `--trace 1` runs the workload once untraced, once traced, and once
//! traced on the two-thread pool, probes the kernel phases, and reports
//! the per-layer metrics; the spans are written to `.bench_out/` when the
//! run ends. The last line of standard output is always one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. See `README.md`.

mod host;
mod probe;
mod reference;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use sodiff_core::{
    BuildError, Driver, ModeSpec, NullObserver, RoundingSpec, ScenarioReport, ScenarioSpec, Scheme,
    SchemeSpec, StopReason, StopSpec,
};

use trace::{Fixture, RoundClock, Trace};
use workloads::Workload;

/// Share of an untraced run spent timing the reference kernel.
const REFERENCE_SHARE: f64 = 0.1;
/// Repetitions an untraced run makes at least, however long they take.
const MIN_REPS: usize = 2;
/// Setup samples a run aims for; workloads whose setup is cheap add
/// setup-only passes (the scenarios at zero rounds) to reach it.
const SETUP_SAMPLES: usize = 15;
/// Setup-only passes are added only below this per-pass setup time.
const CHEAP_SETUP: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!(
            "--workload is required (one of {})",
            workloads::NAMES.join(", ")
        ))?,
        seed,
        seconds,
        trace,
    })
}

/// What the benchmark keeps of one scenario run.
struct Outcome {
    name: String,
    rounds: u64,
    edges: usize,
    max_minus_avg: f64,
    reason: StopReason,
    /// FNV-1a over the final loads and flow memory.
    fingerprint: u64,
    /// Output-check failures (empty when the scenario passed).
    problems: Vec<String>,
    /// Graph build, scheme resolve, experiment build, `simulator()`.
    setup: Duration,
    /// Round loop.
    run: Duration,
    state_bytes: usize,
    beta: Option<f64>,
    crashes: u64,
    injected: f64,
    departed: f64,
    joined: f64,
    steps: Vec<Duration>,
    fixture: Option<Fixture>,
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs `f` inside a span when a trace is attached.
fn stage<R>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// One scenario through the public API, stage by stage: the same calls
/// `Driver::run_spec` makes, except that `sos_opt` is resolved first so
/// the spectral analysis is timed apart from the experiment builder, and
/// the scenario's own `threads=` key is kept.
fn run_scenario(
    spec: &ScenarioSpec,
    mut trace: Option<&mut Trace>,
    capture_round: u64,
) -> Result<(ScenarioReport, Outcome), BuildError> {
    let start = Instant::now();
    let graph = stage(&mut trace, "graph.build", || spec.build_graph())?;
    let n = graph.node_count();
    let mut resolved = spec.clone();
    let mut beta = match spec.scheme {
        SchemeSpec::Sos { beta } => Some(beta),
        _ => None,
    };
    if spec.scheme == SchemeSpec::SosOpt {
        let speeds = stage(&mut trace, "scenario.speeds", || spec.speeds.build(n))?;
        let scheme = stage(&mut trace, "linalg.spectral", || {
            spec.scheme.resolve(&graph, &speeds)
        })?;
        if let Scheme::Sos { beta: b } = scheme {
            resolved.scheme = SchemeSpec::Sos { beta: b };
            beta = Some(b);
        }
    }
    let experiment = stage(&mut trace, "experiment.build", || {
        resolved.experiment_on(&graph)
    })?;
    let mut sim = stage(&mut trace, "engine.alloc", || experiment.simulator());
    let setup = start.elapsed();

    let run_start = Instant::now();
    let (report, run, steps, fixture) = match trace.as_deref_mut() {
        None => {
            let report = experiment.run_on(&mut sim, &mut NullObserver);
            (report, run_start.elapsed(), Vec::new(), None)
        }
        Some(t) => {
            let id = t.enter("engine.run");
            let mut clock = RoundClock::new(capture_round);
            let report = experiment.run_on(&mut sim, &mut clock);
            let end = Instant::now();
            for &(s, e) in &clock.steps {
                t.record("engine.step", s, e);
            }
            for &(s, e) in &clock.checks {
                t.record("engine.stop_check", s, e);
            }
            t.exit_at(id, end);
            let steps = clock.steps.iter().map(|&(s, e)| e - s).collect();
            (report, end - run_start, steps, clock.fixture)
        }
    };

    let mut problems = Vec::new();
    let fm = &report.final_metrics;
    let finite = [
        fm.max_minus_avg,
        fm.min_minus_avg,
        fm.max_local_diff,
        fm.potential_over_n,
        fm.min_load,
    ]
    .iter()
    .all(|v| v.is_finite());
    if !finite {
        problems.push(format!("non-finite final metrics {fm:?}"));
    }
    let expected =
        sim.initial_total() + report.load.injected + report.churn.joined - report.churn.departed;
    let total = sim.total_load();
    let tolerance = match spec.mode {
        ModeSpec::Discrete(_) => 0.0,
        ModeSpec::Continuous => 1e-9 * expected.abs().max(1.0),
    };
    let conserved = (total - expected).abs() <= tolerance;
    if !conserved {
        problems.push(format!(
            "conservation: total {total} != initial + injected + joined - departed = {expected}"
        ));
    }
    let loads = sim.loads_to_f64();
    let fingerprint = fnv1a(
        loads
            .iter()
            .chain(sim.previous_flows_to_f64().iter())
            .map(|v| v.to_bits()),
    );
    let outcome = Outcome {
        name: spec.name.clone(),
        rounds: report.rounds,
        edges: graph.edge_count(),
        max_minus_avg: fm.max_minus_avg,
        reason: report.reason,
        fingerprint,
        problems,
        setup,
        run,
        state_bytes: sim.state_bytes(),
        beta,
        crashes: report.faults.crashes,
        injected: report.load.injected,
        departed: report.churn.departed,
        joined: report.churn.joined,
        steps,
        fixture,
    };
    if let (Some(t), Some(policy)) = (trace, &spec.ckpt) {
        // The run loop writes its checkpoints internally; time the same
        // public write once per interval the run crossed.
        let path = policy.dir.join(format!("{}.ckpt", spec.name));
        let snap = sim.snapshot();
        for _ in 0..report.rounds / policy.every {
            t.span("checkpoint.write", || {
                sodiff_core::write_checkpoint(&path, &resolved, &snap)
            })
            .map_err(|e| BuildError::Checkpoint(Box::new(e)))?;
        }
    }
    let scenario_report = ScenarioReport {
        name: spec.name.clone(),
        spec: spec.to_string(),
        nodes: n,
        edges: graph.edge_count(),
        report,
        wall: start.elapsed(),
        attempts: 1,
    };
    Ok((scenario_report, outcome))
}

/// One pass over a workload's scenarios.
struct Rep {
    wall: Duration,
    parse: Duration,
    batch: Duration,
    outcomes: Vec<Outcome>,
    /// Scenarios that errored, panicked or diverged.
    errors: Vec<String>,
    attempted: usize,
}

impl Rep {
    fn setup(&self) -> Duration {
        self.parse + self.outcomes.iter().map(|o| o.setup).sum::<Duration>()
    }

    fn rounds_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.run).sum()
    }

    fn edge_rounds(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.rounds as f64 * o.edges as f64)
            .sum()
    }

    fn rounds(&self) -> u64 {
        self.outcomes.iter().map(|o| o.rounds).sum()
    }

    fn worst_max_minus_avg(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.max_minus_avg)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Failure messages: batch errors plus failed output checks.
    fn failures(&self, expect_threshold: bool) -> Vec<String> {
        let mut out = self.errors.clone();
        for o in &self.outcomes {
            out.extend(o.problems.iter().map(|p| format!("{}: {p}", o.name)));
            if expect_threshold && o.reason != StopReason::Threshold {
                out.push(format!(
                    "{}: stopped by {:?}, not the threshold",
                    o.name, o.reason
                ));
            }
        }
        out
    }
}

/// Runs `text` through a sequential `Driver` batch, one scenario at a time.
fn run_rep(
    text: &str,
    mut trace: Option<&mut Trace>,
    capture: &HashMap<String, u64>,
    edit: impl Fn(&mut ScenarioSpec),
) -> Rep {
    let start = Instant::now();
    let parsed = stage(&mut trace, "scenario.parse", || {
        ScenarioSpec::parse_many(text)
    });
    let parse = start.elapsed();
    let mut specs = match parsed {
        Ok(specs) => specs,
        Err(e) => {
            return Rep {
                wall: start.elapsed(),
                parse,
                batch: Duration::ZERO,
                outcomes: Vec::new(),
                errors: vec![format!("scenario text does not parse: {e}")],
                attempted: 1,
            }
        }
    };
    specs.iter_mut().for_each(&edit);
    let batch_id = trace.as_deref_mut().map(|t| t.enter("driver.batch"));
    let shared = Mutex::new((trace, Vec::new()));
    let batch_start = Instant::now();
    let batch = Driver::new().run_batch_with(&specs, |spec| {
        let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
        let (trace, outcomes) = &mut *guard;
        let capture_round = capture.get(&spec.name).copied().unwrap_or(0);
        let mut t = trace.as_deref_mut();
        let id = t.as_deref_mut().map(|t| t.enter("driver.scenario"));
        let result = run_scenario(spec, t, capture_round);
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), id) {
            t.exit(id);
        }
        let (report, outcome) = result?;
        outcomes.push(outcome);
        Ok(report)
    });
    let batch_time = batch_start.elapsed();
    let (trace, outcomes) = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let (Some(t), Some(id)) = (trace, batch_id) {
        t.exit(id);
    }
    Rep {
        wall: start.elapsed(),
        parse,
        batch: batch_time,
        outcomes,
        errors: batch.errors.iter().map(|e| e.to_string()).collect(),
        attempted: specs.len(),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Value at quantile `q` (nearest rank) of `values`.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len()) - 1;
    values[idx]
}

/// Metric name → (value, unit), printed in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out + "}"
    }
}

/// Tracks correctness across everything a run executes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn add_rep(&mut self, rep: &Rep, wl: &Workload) {
        self.attempted += rep.attempted;
        self.failures.extend(rep.failures(wl.expect_threshold));
    }

    /// Every repetition must reproduce the first one exactly.
    fn check_repeats(&mut self, reps: &[&Rep]) {
        let key = |r: &Rep| -> Vec<(String, u64, u64, u64)> {
            r.outcomes
                .iter()
                .map(|o| {
                    (
                        o.name.clone(),
                        o.rounds,
                        o.max_minus_avg.to_bits(),
                        o.fingerprint,
                    )
                })
                .collect()
        };
        if let Some((first, rest)) = reps.split_first() {
            for (i, r) in rest.iter().enumerate() {
                if key(r) != key(first) {
                    self.failures
                        .push(format!("repetition {} differs from the first", i + 1));
                }
            }
        }
    }
}

/// Worker threads of the pool the benchmark checks and measures.
const POOL_THREADS: usize = 2;

/// Scenario keys that must not depend on the executor.
fn result_key(rep: &Rep) -> Vec<(u64, u64, u64)> {
    rep.outcomes
        .iter()
        .map(|o| (o.rounds, o.max_minus_avg.to_bits(), o.fingerprint))
        .collect()
}

/// The first `rounds` rounds of every scenario on the worker pool must
/// leave the same state as on the inline executor.
fn thread_check(wl: &Workload, rounds: usize, tally: &mut Tally) {
    let run = |threads: usize| {
        run_rep(&wl.text, None, &HashMap::new(), |spec| {
            spec.stop = StopSpec::Rounds(rounds);
            spec.threads = threads;
        })
    };
    let (inline, pooled) = (run(1), run(POOL_THREADS));
    for rep in [&inline, &pooled] {
        tally.attempted += rep.attempted;
        tally.failures.extend(rep.failures(false));
    }
    if result_key(&pooled) != result_key(&inline) {
        tally.failures.push(format!(
            "threads: the pool differs from one thread after {rounds} rounds"
        ));
    }
}

/// One line per scenario: what it did and where its time went.
fn print_outcomes(rep: &Rep) {
    for o in &rep.outcomes {
        println!(
            "scenario {:<14} rounds {:>5} {:<9} max-avg {:>10} setup {:>8.4} s run {:>8.4} s",
            o.name,
            o.rounds,
            format!("{:?}", o.reason),
            o.max_minus_avg,
            secs(o.setup),
            secs(o.run)
        );
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs the reference kernel and returns its time in seconds; a checksum
/// that differs from the first run's is a failure.
fn reference_time(first: &mut Option<u64>, tally: &mut Tally) -> f64 {
    let (time, checksum) = reference::run();
    if *first.get_or_insert(checksum) != checksum {
        tally
            .failures
            .push("reference kernel: its checksum changed between runs".into());
    }
    secs(time)
}

/// Untraced run: repeat the workload for `seconds`, timing the reference
/// kernel after each repetition, and report host-corrected medians.
fn end_to_end(wl: &Workload, seconds: f64, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut checksum = None;
    let mut refs = Vec::new();
    let mut reps = Vec::new();
    loop {
        let rep = run_rep(&wl.text, None, &HashMap::new(), |_| {});
        tally.add_rep(&rep, wl);
        let last = secs(rep.wall);
        // Enough kernel runs for about a tenth of the repetition's time.
        let mut spent = 0.0;
        while spent < REFERENCE_SHARE * last {
            refs.push(reference_time(&mut checksum, tally));
            spent += refs[refs.len() - 1];
        }
        eprintln!(
            "rep {}: wall {:.3} s, setup {:.3} s, rounds {:.3} s, reference {:.4} s",
            reps.len() + 1,
            last,
            secs(rep.setup()),
            secs(rep.rounds_time()),
            refs[refs.len() - 1]
        );
        if reps.is_empty() {
            print_outcomes(&rep);
        }
        reps.push(rep);
        // Stop at the repetition boundary nearest to `seconds`, so a
        // workload of long repetitions overruns by at most half of one,
        // but after two repetitions at least.
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
    tally.check_repeats(&reps.iter().collect::<Vec<_>>());
    let mut setups: Vec<f64> = reps.iter().map(|r| secs(r.setup())).collect();
    let per_pass = median(&mut setups.clone());
    if per_pass < CHEAP_SETUP.as_secs_f64() {
        while setups.len() < SETUP_SAMPLES {
            let rep = run_rep(&wl.text, None, &HashMap::new(), |spec| {
                spec.stop = StopSpec::Rounds(0);
            });
            tally.attempted += rep.attempted;
            tally.failures.extend(rep.failures(false));
            setups.push(secs(rep.setup()));
        }
    }
    if wl.thread_check_rounds > 0 {
        thread_check(wl, wl.thread_check_rounds, tally);
    }
    // One factor for the whole run: a single kernel run varies by about
    // 20%, so a factor per repetition would add noise of its own.
    let reference = median(&mut refs.clone());
    let scale = reference::correction(reference);
    let measured = |f: &dyn Fn(&Rep) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    let (wall, rounds) = (
        measured(&|r| secs(r.wall)),
        measured(&|r| secs(r.rounds_time())),
    );
    println!(
        "repetitions {}: measured wall {wall:.4} s, rounds {rounds:.4} s; \
         reference kernel {reference:.4} s over {} runs (nominal {} s)",
        reps.len(),
        refs.len(),
        reference::NOMINAL_S
    );
    let mut m = Metrics::default();
    m.put("wall_s", wall * scale, "s");
    m.put("setup_s", median(&mut setups) * scale, "s");
    m.put("rounds_s", rounds * scale, "s");
    // Every repetition reproduces the first, so the work is the same.
    m.put(
        "edge_rounds_per_s",
        reps[0].edge_rounds() / (rounds * scale),
        "1/s",
    );
    m.put("rounds_to_target", reps[0].rounds() as f64, "rounds");
    m.put(
        "final_max_minus_avg",
        reps[0].worst_max_minus_avg(),
        "tokens",
    );
    m.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let failed = tally.failures.len().min(tally.attempted);
    m.put(
        "completed_share",
        1.0 - failed as f64 / tally.attempted.max(1) as f64,
        "share",
    );
    m
}

/// Traced run: one untraced pass, one traced pass, the probes, then a
/// traced pass on the two-thread pool, whose results must equal the
/// one-thread pass exactly.
fn per_layer(wl: &Workload, seed: u64, tally: &mut Tally) -> (Metrics, Trace, Trace) {
    let plain = run_rep(&wl.text, None, &HashMap::new(), |_| {});
    tally.add_rep(&plain, wl);
    // The kernel probe's fixture: the first discrete SOS scenario with
    // randomized rounding, captured halfway through its run.
    let specs = ScenarioSpec::parse_many(&wl.text).unwrap_or_default();
    let probe_spec = specs.iter().find(|s| {
        matches!(s.scheme, SchemeSpec::SosOpt | SchemeSpec::Sos { .. })
            && s.mode == ModeSpec::Discrete(RoundingSpec::Randomized)
    });
    let mut capture = HashMap::new();
    if let Some(spec) = probe_spec {
        let rounds = plain
            .outcomes
            .iter()
            .find(|o| o.name == spec.name)
            .map_or(0, |o| o.rounds);
        capture.insert(spec.name.clone(), (rounds / 2).max(1));
    }

    let mut trace = Trace::new();
    let root = trace.enter("workload");
    let traced = run_rep(&wl.text, Some(&mut trace), &capture, |_| {});
    trace.exit(root);
    tally.add_rep(&traced, wl);
    tally.check_repeats(&[&plain, &traced]);

    let mut pool_trace = Trace::new();
    let root = pool_trace.enter("workload");
    let pooled = run_rep(&wl.text, Some(&mut pool_trace), &HashMap::new(), |spec| {
        spec.threads = POOL_THREADS;
    });
    pool_trace.exit(root);
    tally.add_rep(&pooled, wl);
    if result_key(&pooled) != result_key(&traced) {
        tally
            .failures
            .push("threads: the pool run differs from the one-thread run".into());
    }

    let target = probe_spec.and_then(|spec| {
        let o = traced.outcomes.iter().find(|o| o.name == spec.name)?;
        Some((spec, o.fixture.as_ref()?, o.beta?))
    });
    let phases = target.and_then(|(spec, fixture, beta)| {
        trace.span("probe.kernel", || {
            let graph = spec.build_graph().ok()?;
            let speeds = spec.speeds.build(graph.node_count()).ok()?;
            let mut resolved = spec.clone();
            resolved.scheme = SchemeSpec::Sos { beta };
            let inline = resolved.experiment_on(&graph).ok()?;
            resolved.threads = POOL_THREADS;
            let pool = resolved.experiment_on(&graph).ok()?;
            let (mut one, mut two) = (inline.simulator(), pool.simulator());
            one.restore(&fixture.snapshot).ok()?;
            two.restore(&fixture.snapshot).ok()?;
            let seed = spec.seed.unwrap_or(0);
            let phases = probe::kernel_phases(&mut one, &mut two, &speeds, fixture, beta, seed);
            // Perturbed runs step masked kernels and planners the probe
            // leaves out, so only an unperturbed probe must match.
            let plain = spec.faults.is_none() && spec.load.is_none() && spec.churn.is_none();
            Some((phases, plain))
        })
    });
    if let Some((p, plain)) = &phases {
        if *plain && !p.matches_engine {
            tally
                .failures
                .push("kernel probe: the probed rounds differ from the engine's".into());
        }
    }
    if phases.is_none() {
        tally
            .failures
            .push("kernel probe: no discrete SOS scenario captured a fixture".into());
    }
    // Matching generation on the first matching scenario's graph, else
    // on the probe graph.
    let matching = specs
        .iter()
        .find(|s| matches!(s.scheme, SchemeSpec::MatchingRandom { .. }))
        .or(probe_spec);
    let matchgen = matching
        .and_then(|spec| spec.build_graph().ok())
        .map(|graph| {
            trace.span("probe.matchgen", || {
                probe::matchgen_ns_per_edge(&graph, seed)
            })
        });
    let mut m = Metrics::default();
    let s = |name: &str| secs(trace.total(name));
    m.put("scenario.parse_s", s("scenario.parse"), "s");
    m.put("graph.build_s", s("graph.build"), "s");
    m.put(
        "experiment.build_s",
        s("experiment.build") + s("scenario.speeds"),
        "s",
    );
    m.put("engine.alloc_s", s("engine.alloc"), "s");
    m.put(
        "engine.state_bytes",
        traced
            .outcomes
            .iter()
            .map(|o| o.state_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );

    let mut seen = HashSet::new();
    let (mut calls, mut repeats) = (0usize, 0usize);
    for spec in specs.iter().filter(|s| s.scheme == SchemeSpec::SosOpt) {
        calls += 1;
        if !seen.insert((spec.topology.to_string(), spec.speeds.to_string())) {
            repeats += 1;
        }
    }
    m.put("linalg.spectral_s", s("linalg.spectral"), "s");
    m.put("linalg.spectral_calls", calls as f64, "count");
    m.put(
        "linalg.spectral_repeat_share",
        if calls == 0 {
            0.0
        } else {
            repeats as f64 / calls as f64
        },
        "share",
    );

    let mut steps_us: Vec<f64> = traced
        .outcomes
        .iter()
        .flat_map(|o| o.steps.iter().map(|d| d.as_secs_f64() * 1e6))
        .collect();
    m.put("engine.step_s", s("engine.step"), "s");
    m.put("engine.step_p50_us", quantile(&mut steps_us, 0.5), "us");
    m.put("engine.step_p99_us", quantile(&mut steps_us, 0.99), "us");
    // Sampled every STOP_CHECK_EVERY-th round, scaled to all rounds.
    m.put(
        "engine.stop_check_s",
        s("engine.stop_check") * trace::STOP_CHECK_EVERY as f64,
        "s",
    );

    let p = |f: fn(&probe::KernelPhases) -> f64| phases.as_ref().map_or(f64::NAN, |(k, _)| f(k));
    // Share of the threads' round time that is not kernel work, both
    // timed from the same state side by side.
    let residual = |k: &probe::KernelPhases| 1.0 - k.round_ns / k.step_ns;
    let pool_residual =
        |k: &probe::KernelPhases| 1.0 - k.round_ns / (POOL_THREADS as f64 * k.pool_step_ns);
    m.put(
        "kernel.edge_pass_ns_per_edge",
        p(|k| k.edge_pass_ns_per_edge),
        "ns/edge",
    );
    m.put(
        "kernel.arc_round_ns_per_arc",
        p(|k| k.arc_round_ns_per_arc),
        "ns/arc",
    );
    m.put(
        "kernel.prev_copy_ns_per_edge",
        p(|k| k.prev_copy_ns_per_edge),
        "ns/edge",
    );
    m.put(
        "kernel.apply_ns_per_node",
        p(|k| k.apply_ns_per_node),
        "ns/node",
    );
    m.put(
        "rng.fill_ns_per_node",
        p(|k| k.rng_fill_ns_per_node),
        "ns/node",
    );
    m.put("kernel.bytes_per_round", p(|k| k.bytes_per_round), "bytes");
    m.put("kernel.phases_us", p(|k| k.round_ns / 1e3), "us");
    m.put("engine.probe_step_us", p(|k| k.step_ns / 1e3), "us");
    m.put("engine.step_residual_share", p(residual), "share");

    m.put(
        "matchgen.fill_ns_per_edge",
        matchgen.unwrap_or(f64::NAN),
        "ns/edge",
    );

    let sum = |f: fn(&Outcome) -> f64| traced.outcomes.iter().map(f).sum::<f64>();
    m.put("fault.crashes", sum(|o| o.crashes as f64), "count");
    m.put("load.injected", sum(|o| o.injected), "tokens");
    m.put("churn.departed", sum(|o| o.departed), "tokens");
    m.put("churn.joined", sum(|o| o.joined), "tokens");

    let (files, bytes) = wl
        .ckpt_dir
        .as_deref()
        .map_or((0, 0), |dir| dir_files_and_bytes(Path::new(dir)));
    m.put("checkpoint.files", files as f64, "count");
    m.put("checkpoint.bytes", bytes as f64, "bytes");
    m.put("checkpoint.write_s", s("checkpoint.write"), "s");

    m.put("pool.rounds_s", secs(pooled.rounds_time()), "s");
    m.put(
        "pool.speedup",
        secs(traced.rounds_time()) / secs(pooled.rounds_time()),
        "ratio",
    );
    m.put("pool.probe_step_us", p(|k| k.pool_step_ns / 1e3), "us");
    m.put("pool.step_residual_share", p(pool_residual), "share");
    m.put(
        "pool.state_bytes",
        pooled
            .outcomes
            .iter()
            .map(|o| o.state_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );

    m.put(
        "driver.overhead_s",
        secs(traced.batch.saturating_sub(trace.total("driver.scenario"))),
        "s",
    );
    m.put(
        "trace.overhead_share",
        secs(traced.wall) / secs(plain.wall) - 1.0,
        "share",
    );
    (m, trace, pool_trace)
}

fn dir_files_and_bytes(dir: &Path) -> (u64, u64) {
    fs::read_dir(dir).map_or((0, 0), |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .filter(fs::Metadata::is_file)
            .fold((0, 0), |(n, b), md| (n + 1, b + md.len()))
    })
}

/// Prints each layer's self time (span time minus its child spans).
fn print_self_times(workload: &str, trace: &Trace) {
    let self_times = trace.self_times();
    let total: Duration = self_times.values().sum();
    println!("self time by span, workload {workload}:");
    for (name, d) in &self_times {
        println!(
            "  {name:<22} {:>10.4} s  {:>5.1}%",
            secs(*d),
            100.0 * secs(*d) / secs(total).max(1e-12)
        );
    }
}

/// Removes the workload's checkpoint directory when dropped.
struct CleanDir(Option<String>);

impl Drop for CleanDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = fs::remove_dir_all(dir);
            // `.bench_tmp` itself goes too once no other run uses it.
            if let Some(parent) = Path::new(dir).parent() {
                let _ = fs::remove_dir(parent);
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload '{}' (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let _clean = CleanDir(wl.ckpt_dir.clone());

    let mut host = String::from("{");
    for (k, v) in host::metadata() {
        let _ = write!(host, "\"{k}\": \"{}\", ", v.replace('"', "'"));
    }
    println!(
        "host {host}\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        wl.name, args.seed, args.seconds, args.trace
    );

    let mut tally = Tally::default();
    let metrics = if args.trace {
        let (metrics, trace, pool_trace) = per_layer(&wl, args.seed, &mut tally);
        for (label, t) in [("1 thread", &trace), ("pool", &pool_trace)] {
            print_self_times(&format!("{} ({label})", wl.name), t);
            let out = format!(
                ".bench_out/trace-{}-seed{}-{}.jsonl",
                wl.name,
                args.seed,
                label.replace(' ', "")
            );
            if let Err(e) =
                fs::create_dir_all(".bench_out").and_then(|()| fs::write(&out, t.to_json_lines()))
            {
                eprintln!("perfbench: writing {out}: {e}");
            }
        }
        metrics
    } else {
        end_to_end(&wl, args.seconds, &mut tally)
    };
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    let failed = tally.failures.len().min(tally.attempted);
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let by_name: BTreeMap<_, _> = metrics.0.iter().map(|(n, v, u)| (*n, (*v, *u))).collect();
    for (name, (value, unit)) in &by_name {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failures.is_empty() && finite,
        tally.attempted.max(1),
        failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
