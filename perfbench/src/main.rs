//! `mai-perfbench`: the repository's source→answer benchmark.
//!
//! ```text
//! mai-perfbench --workload <lambda-deep|cps-lanes|fj-gc> --seed <n> --seconds <s> --trace <0|1>
//! mai-perfbench --record-expected
//! ```
//!
//! With `--trace 0` it times whole operations (source text → front end →
//! solve → query answer) with tracing off and prints the end-to-end
//! metrics; with `--trace 1` it runs the traced solve and the layer sweep
//! and prints the per-layer metrics.  Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`.  See `README.md` in this directory.

mod inputs;
mod layers;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Spans;
use stats::{log_log_slope, median, peak_rss_mb, reset_peak_rss, LatencyProbe};
use workloads::{Answer, Input, Layers, Workload};

/// Counts recorded by `--record-expected`: `workload size configs facts`.
const EXPECTED: &str = include_str!("../expected.txt");

/// How many times set-up runs in one invocation (`setup_s` is the median).
const SETUP_REPEATS: usize = 5;

/// An operation slower than this counts as failed.
const OP_LIMIT: Duration = Duration::from_secs(60);

/// Stack of the thread that runs the benchmark: the front ends and the
/// syntax-tree destructors recurse on program depth.
const STACK_BYTES: usize = 256 << 20;

/// The latency probe walks a random cycle through `2^21` slots (8 MiB)
/// for this many steps right before every timed operation.
const PROBE_LOG2_LEN: u32 = 21;
const PROBE_STEPS: usize = 400_000;

/// The probe's walk time on a quiet run of the reference host (2-CPU
/// container).  Timed operations are reported in drift-corrected seconds,
/// `wall × PROBE_REF_S / probe`: the host's memory latency drifts by ±20%
/// with its other tenants' load, and the workloads' time drifts with it.
const PROBE_REF_S: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The expected answer of one rung, if recorded.
fn expected(workload: Workload, size: usize) -> Option<Answer> {
    EXPECTED.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [name, sz, configs, facts, ..]
                if *name == workload.name() && sz.parse() == Ok(size) =>
            {
                Some(Answer {
                    configs: configs.parse().ok()?,
                    flow_facts: facts.parse().ok()?,
                    errors: 0,
                })
            }
            _ => None,
        }
    })
}

/// Checks an operation's answer against the recorded counts.
fn check(workload: Workload, size: usize, answer: &Answer) -> Result<(), String> {
    let want = expected(workload, size)
        .ok_or_else(|| format!("no expected counts for {} {size}", workload.name()))?;
    if *answer == want {
        Ok(())
    } else {
        Err(format!(
            "{} {size}: got {answer:?}, expected {want:?}",
            workload.name()
        ))
    }
}

/// Success/failure tally of the run's operations.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_owned());
        Err(format!("panicked: {message}"))
    })
}

/// Times operations in drift-corrected seconds (see [`PROBE_REF_S`]).
struct Clock(LatencyProbe);

/// One timed call: its result, wall seconds and corrected seconds.
struct Timed<R> {
    result: R,
    wall_s: f64,
    corrected_s: f64,
}

impl Clock {
    fn new() -> Self {
        Clock(LatencyProbe::new(PROBE_LOG2_LEN))
    }

    /// Runs `f` between two probes and corrects by their mean.
    fn time<R>(&self, f: impl FnOnce() -> R) -> Timed<R> {
        let before_s = self.0.seconds(PROBE_STEPS);
        let start = Instant::now();
        let result = f();
        let wall_s = start.elapsed().as_secs_f64();
        let after_s = self.0.seconds(PROBE_STEPS);
        Timed {
            result,
            wall_s,
            corrected_s: wall_s * PROBE_REF_S / ((before_s + after_s) / 2.0),
        }
    }
}

/// Set-up: generate the ladder's inputs from the seed and warm up on the
/// smallest rung (name pools, allocator), `SETUP_REPEATS` times.
fn setup(workload: Workload, seed: u64, clock: &Clock, tally: &mut Tally) -> (Vec<Input>, f64) {
    let ladder = workload.ladder();
    let mut times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let timed = clock.time(|| {
            let generated: Vec<Input> = ladder
                .iter()
                .map(|&size| workload.generate(size, seed))
                .collect();
            let answer = guarded(|| workload.answer(&generated[0]));
            (generated, answer)
        });
        times.push(timed.corrected_s);
        let (generated, answer) = timed.result;
        tally.record(
            "warm-up",
            answer.and_then(|a| check(workload, ladder[0], &a)),
        );
        inputs = generated;
    }
    (inputs, median(&times))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Whether another pass of `pass_s` seconds still fits in the budget.
fn another_pass_fits(start: Instant, pass_s: f64, budget_s: f64) -> bool {
    start.elapsed().as_secs_f64() + pass_s <= budget_s
}

fn end_to_end(
    args: &Args,
    inputs: &[Input],
    clock: &Clock,
    setup_s: f64,
    tally: &mut Tally,
) -> Metrics {
    let workload = args.workload;
    let ladder = workload.ladder();
    let largest = ladder.len() - 1;
    let mut rung_times: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut rung_walls: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut pass_totals = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut total = 0.0;
        for (i, (&size, input)) in ladder.iter().zip(inputs).enumerate() {
            if i == largest {
                reset_peak_rss();
            }
            let timed = clock.time(|| guarded(|| workload.answer(input)));
            if i == largest {
                peaks.push(peak_rss_mb());
            }
            let outcome = timed
                .result
                .and_then(|a| check(workload, size, &a))
                .and_then(|()| {
                    if timed.wall_s > OP_LIMIT.as_secs_f64() {
                        Err(format!(
                            "took {:.1}s, over the {OP_LIMIT:?} limit",
                            timed.wall_s
                        ))
                    } else {
                        Ok(())
                    }
                });
            tally.record(&format!("{} {size}", workload.name()), outcome);
            rung_times[i].push(timed.corrected_s);
            rung_walls[i].push(timed.wall_s);
            total += timed.corrected_s;
        }
        pass_totals.push(total);
        if !another_pass_fits(start, pass_start.elapsed().as_secs_f64(), args.seconds) {
            break;
        }
    }
    // The untimed checks that share nothing with the timed engine.
    let mut configs = Vec::new();
    for (&size, input) in ladder.iter().zip(inputs) {
        let outcome = guarded(|| workload.deep(input, false, false, &mut Spans::default()));
        configs.push(
            outcome
                .as_ref()
                .ok()
                .and_then(|l| l.answer)
                .map_or(1, |a| a.configs),
        );
        let outcome =
            outcome.and_then(|l| check(workload, size, &l.answer.expect("deep runs answer")));
        tally.record(
            &format!("{} {size} certificate+concrete", workload.name()),
            outcome,
        );
    }
    let curve: Vec<(f64, f64)> = configs
        .iter()
        .zip(&rung_times)
        .map(|(&c, times)| (c as f64, median(times)))
        .collect();
    for (i, &size) in ladder.iter().enumerate() {
        eprintln!(
            "{} {size}: {} configurations, median {:.4}s corrected, {:.4}s wall, over {} passes",
            workload.name(),
            curve[i].0,
            curve[i].1,
            median(&rung_walls[i]),
            rung_times[i].len()
        );
    }
    vec![
        ("e2e_s", median(&pass_totals), "s"),
        ("scaling_exp", log_log_slope(&curve), "log-log"),
        ("peak_rss_mb", median(&peaks), "MiB"),
        ("setup_s", setup_s, "s"),
    ]
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced pass over the ladder.
fn layer_metrics(
    ladder_layers: &[Layers],
    spans: &Spans,
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let totals = spans.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let sum = |f: &dyn Fn(&Layers) -> f64| ladder_layers.iter().map(f).sum::<f64>();
    let largest = ladder_layers.last().expect("a ladder has rungs");
    let states = sum(&|l| l.sweep.states as f64);
    let branches = sum(&|l| l.sweep.branches as f64);
    let mean_addrs: Vec<(f64, f64)> = ladder_layers
        .iter()
        .map(|l| {
            (
                l.answer.map_or(1, |a| a.configs) as f64,
                ratio(l.sweep.readset_addrs as f64, l.sweep.states as f64).max(f64::MIN_POSITIVE),
            )
        })
        .collect();
    let mut m = BTreeMap::new();
    let mut put = |name, value, unit| {
        m.insert(name, (value, unit));
    };
    put("readset.ns_per_state", ratio(ns("readset"), states), "ns");
    put(
        "readset.mean_addrs",
        mean_addrs.last().map_or(0.0, |p| p.1),
        "count",
    );
    put("readset.addrs_slope", log_log_slope(&mean_addrs), "log-log");
    put(
        "transition.ns_per_state",
        ratio(ns("transition"), states),
        "ns",
    );
    put(
        "transition.branches_per_state",
        ratio(branches, states),
        "count",
    );
    put("delta.ns_per_branch", ratio(ns("delta"), branches), "ns");
    put("intern.ns_per_call", ratio(ns("intern"), branches), "ns");
    put("intern.hits", sum(&|l| l.stats.intern_hits as f64), "count");
    put(
        "intern.misses",
        sum(&|l| l.stats.intern_misses as f64),
        "count",
    );
    put("fold.ns_per_branch", ratio(ns("fold"), branches), "ns");
    put("gc.ns_per_branch", ratio(ns("gc"), branches), "ns");
    put(
        "gc.dropped_share",
        ratio(
            sum(&|l| l.sweep.gc_dropped as f64),
            sum(&|l| l.sweep.gc_bindings as f64),
        ),
        "share",
    );
    put(
        "engine.step_phase_ms",
        sum(&|l| l.step_phase_ns as f64) / 1e6,
        "ms",
    );
    put(
        "engine.join_phase_ms",
        sum(&|l| l.join_phase_ns as f64) / 1e6,
        "ms",
    );
    put(
        "engine.rounds",
        sum(&|l| l.stats.iterations as f64),
        "count",
    );
    put(
        "engine.states_stepped",
        sum(&|l| l.stats.states_stepped as f64),
        "count",
    );
    put(
        "engine.reenqueued",
        sum(&|l| l.stats.reenqueued as f64),
        "count",
    );
    put(
        "engine.store_joins",
        sum(&|l| l.stats.store_joins as f64),
        "count",
    );
    put(
        "engine.peak_frontier",
        ladder_layers
            .iter()
            .map(|l| l.stats.peak_frontier as f64)
            .fold(0.0, f64::max),
        "count",
    );
    put(
        "engine.hot_state_share",
        ratio(largest.hot_state_ns as f64, largest.step_phase_ns as f64),
        "share",
    );
    put("store.bindings", largest.store_bindings as f64, "count");
    put(
        "store.shared_spine_kb",
        largest.stats.store_bytes_shared as f64 / 1024.0,
        "KiB",
    );
    put("parse.ms", ms("parse"), "ms");
    put("parse.bytes", sum(&|l| l.parse_bytes as f64), "bytes");
    put("typecheck.ms", ms("typecheck"), "ms");
    put("query.ms", ms("query"), "ms");
    put(
        "query.flow_facts",
        sum(&|l| l.answer.map_or(0, |a| a.flow_facts) as f64),
        "count",
    );
    put("teardown.ms", ms("teardown"), "ms");
    put("certify.ms", ms("certify"), "ms");
    put(
        "certify.solve_ratio",
        ratio(ms("certify"), ms("solve")),
        "ratio",
    );
    put(
        "parallel.speedup_t2",
        ratio(largest.solve_ns as f64, largest.barrier_ns as f64),
        "ratio",
    );
    put(
        "elastic.speedup_t2",
        ratio(largest.solve_ns as f64, largest.elastic_ns as f64),
        "ratio",
    );
    put(
        "trace.overhead_ratio",
        ratio(
            sum(&|l| l.traced_solve_ns as f64),
            sum(&|l| l.solve_ns as f64),
        ),
        "ratio",
    );
    m
}

fn per_layer(args: &Args, inputs: &[Input], tally: &mut Tally) -> Metrics {
    let workload = args.workload;
    let ladder = workload.ladder();
    let mut passes: Vec<BTreeMap<&'static str, (f64, &'static str)>> = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut spans = Spans::default();
        let mut ladder_layers = Vec::new();
        for (i, (&size, input)) in ladder.iter().zip(inputs).enumerate() {
            let parallel = i == ladder.len() - 1;
            spans.enter("program");
            let outcome = guarded(|| workload.deep(input, true, parallel, &mut spans));
            spans.exit();
            let layers = outcome.clone().unwrap_or_default();
            let outcome =
                outcome.and_then(|l| check(workload, size, &l.answer.expect("deep runs answer")));
            tally.record(&format!("{} {size} traced", workload.name()), outcome);
            eprintln!(
                "{} {size}: read set {:.1} addresses/state, {} states swept",
                workload.name(),
                ratio(
                    layers.sweep.readset_addrs as f64,
                    layers.sweep.states as f64
                ),
                layers.sweep.states
            );
            ladder_layers.push(layers);
        }
        if passes.is_empty() {
            eprintln!(
                "{:<16} {:>8} {:>12} {:>12}",
                "span", "count", "total ms", "self ms"
            );
            for (name, t) in spans.totals() {
                eprintln!(
                    "{name:<16} {:>8} {:>12.3} {:>12.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        passes.push(layer_metrics(&ladder_layers, &spans));
        if !another_pass_fits(start, pass_start.elapsed().as_secs_f64(), args.seconds) {
            break;
        }
    }
    // Counts repeat exactly across passes; times are reported as medians.
    passes[0]
        .iter()
        .map(|(&name, &(_, unit))| {
            let values: Vec<f64> = passes.iter().map(|p| p[name].0).collect();
            (name, median(&values), unit)
        })
        .collect()
}

/// Formats a finite number as JSON.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Recomputes `expected.txt` with the reference engines on the seed-0
/// inputs and prints it.  On the smallest rung every reference engine runs
/// and must agree.
fn record_expected() {
    println!("# workload size configurations flow_facts engine");
    for workload in Workload::ALL {
        let engines = workload.reference_engines();
        for (&size, &engine) in workload.ladder().iter().zip(engines) {
            let input = workload.generate(size, 0);
            let answer = workload.reference_answer(&input, engine);
            assert_eq!(
                answer.errors,
                0,
                "{} {size} has abstract errors",
                workload.name()
            );
            if size == workload.ladder()[0] {
                for &other in engines {
                    assert_eq!(
                        answer,
                        workload.reference_answer(&input, other),
                        "{}",
                        other.name()
                    );
                }
            }
            println!(
                "{} {size} {} {} {}",
                workload.name(),
                answer.configs,
                answer.flow_facts,
                engine.name()
            );
        }
    }
}

fn run(argv: Vec<String>) -> ExitCode {
    if argv == ["--record-expected"] {
        record_expected();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("mai-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let clock = Clock::new();
    let (inputs, setup_s) = setup(args.workload, args.seed, &clock, &mut tally);
    let metrics = if args.trace {
        per_layer(&args, &inputs, &mut tally)
    } else {
        end_to_end(&args, &inputs, &clock, setup_s, &mut tally)
    };
    print_result(&tally, &metrics);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::thread::Builder::new()
        .name("perfbench".to_owned())
        .stack_size(STACK_BYTES)
        .spawn(move || run(argv))
        .expect("spawning the benchmark thread")
        .join()
        .unwrap_or(ExitCode::FAILURE)
}
