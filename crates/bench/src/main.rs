//! The experiment report binary: regenerates the qualitative tables listed
//! in `EXPERIMENTS.md` (E1–E8 and E10–E17; E9 is retired), prints them to
//! stdout and writes the machine-readable `BENCH_report.json` next to the
//! current directory so the performance trajectory is tracked across PRs.
//!
//! Run with `cargo run -p mai-bench --release`.
//!
//! With `--check-regress`, instead of regenerating the report, the binary
//! re-measures the *deterministic* work counters (step-function invocations
//! and contribution joins per engine and workload), compares them against
//! the committed `BENCH_report.json`, and exits non-zero if any counter
//! regressed or a gated section has no committed rows — the CI gate that
//! keeps the engines from quietly re-doing work they had stopped doing.
//! Timing fields (`wall_ms`, `host_cpus`, `*_ms`) are recorded on every row
//! but never gated.
//!
//! With `--trace-out <path>`, the binary instead solves one parallel kCFA
//! workload with the tracing sink attached (worker count from `--threads`,
//! default 2), writes the Chrome trace-event JSON to `<path>` (load it in
//! Perfetto or `chrome://tracing`), and self-validates the export.  With
//! `--profile`, it prints the human-readable phase/hot-spot profile of the
//! same solve.
//!
//! `--epochs E` sets the elastic epoch budget of the E14 section and the
//! `--parallel-smoke` elastic row (default 4; `1` is the barrier engine).
//! `--repeat N` overrides how often each timed solve is repeated — every
//! repeated row reports the minimum (`*_ms`) and, for E14, the median
//! (`*_median_ms`) wall-clock; `--check-regress` still samples counters
//! only.
//!
//! Governance knobs (E15 and `--parallel-smoke`): `--max-steps N` sets the
//! step budget of the E15 exhaustion/resume exercise (default 32);
//! `--deadline-ms N` additionally prints a deadline-bounded solve of the
//! largest workload (reported-only, never committed — wall-clock bound
//! outcomes are host-dependent); `--cancel-after-ms N` sets the watchdog
//! delay of the `--parallel-smoke` cancellation row (default 2).

use std::time::Instant;

use mai_bench::report::Json;
use mai_bench::{
    cancel_latency_row, cloning_vs_shared, cps_corpus, direct_row, elastic_row, gc_rows,
    governed_row, host_cpus, interned_row, parallel_row, polyvariance_rows, scaling_row,
    telemetry_row, widening_row, worklist_row, ScalingFamily, ScalingRow, E10_SCALE_WIDTH,
    PROFILE_TOP_K,
};
use mai_core::store::StoreLike;
use mai_cps::analysis::{analyse_kcfa_shared, analyse_mono};
use mai_cps::convert::cps_convert;
use mai_cps::programs::{garbage_chain, id_chain, kcfa_worst_case, kcfa_worst_case_scaled};
use mai_cps::{analyse_concrete_collecting, interpret_with_limit, PState};
use mai_fj::analysis::result_classes;
use mai_lambda::decode_church_numeral;

fn heading(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// E1 — adequacy: the concrete interpreter and the fresh-address concrete
/// collecting semantics agree on termination for the terminating corpus.
fn experiment_adequacy() {
    heading("E1  concrete interpreter vs. concrete collecting semantics");
    for (name, program) in cps_corpus() {
        let concrete = interpret_with_limit(&program, 2_000);
        let collecting = analyse_concrete_collecting(&program, 128);
        let collecting_halts = collecting
            .value()
            .distinct_states()
            .iter()
            .any(PState::is_final);
        println!(
            "{name:<18} concrete-halts={:<5} collecting-halts={:<5} collecting-converged={}",
            concrete.halted(),
            collecting_halts,
            collecting.is_complete()
        );
    }
}

/// E2 — polyvariance sweep (0CFA / 1CFA / 2CFA).
fn experiment_polyvariance() -> Vec<Json> {
    heading("E2  polyvariance sweep (shared store)");
    let mut rows = Vec::new();
    for (name, program) in cps_corpus() {
        for row in polyvariance_rows(name, &program) {
            println!("{}", row.render());
            rows.push(row.to_json());
        }
    }
    rows
}

/// E3 — heap cloning vs. shared-store widening.
fn experiment_cloning() {
    heading("E3  per-state (heap-cloning) vs. shared-store configurations");
    for n in [2usize, 3, 4, 5] {
        let chain = id_chain(n);
        let (cloned, shared) = cloning_vs_shared(&chain);
        println!("id-chain-{n:<2}        cloned={cloned:<7} shared={shared:<7}");
    }
    for n in [1usize, 2, 3] {
        let worst = kcfa_worst_case(n);
        let (cloned, shared) = cloning_vs_shared(&worst);
        println!("kcfa-worst-{n:<2}      cloned={cloned:<7} shared={shared:<7}");
    }
}

/// E4 — abstract counting.
fn experiment_counting() {
    heading("E4  abstract counting (per-state counting store)");
    for (name, program) in cps_corpus() {
        let counted = mai_cps::analysis::analyse_kcfa_count_cloned::<1>(&program);
        let mut single = 0usize;
        let mut total = 0usize;
        for (_, store) in counted.iter() {
            single += store.single_count();
            total += store.addresses().len();
        }
        println!("{name:<18} singleton-count-certificates={single:<6} of {total}");
    }
}

/// E5 — abstract garbage collection.
fn experiment_gc() {
    heading("E5  abstract garbage collection (1CFA, shared store)");
    for n in [4usize, 6, 8] {
        let program = garbage_chain(n);
        for row in gc_rows("garbage-chain", &program) {
            println!("n={n:<3} {}", row.render());
        }
    }
}

/// E6 — the same monadic parameters drive all three languages.
fn experiment_reuse() {
    heading("E6  cross-language reuse of the monadic parameters");
    let cps_program = cps_convert(&mai_lambda::programs::church_multiplication(2, 2));
    let cps_result = analyse_mono(&cps_program);
    println!(
        "CPS     0CFA on church 2×2: {} states",
        cps_result.distinct_states().len()
    );
    let cesk_result = mai_lambda::analyse_mono(&mai_lambda::programs::church_multiplication(2, 2));
    println!(
        "CESK    0CFA on church 2×2: {} states",
        cesk_result.distinct_states().len()
    );
    let fj_result = mai_fj::analyse_mono(&mai_fj::programs::two_cells());
    println!(
        "FJ      0CFA on two-cells : {} states, result classes {:?}",
        fj_result.distinct_states().len(),
        result_classes(&fj_result)
    );
    println!(
        "church 2×2 decodes concretely to {}",
        decode_church_numeral(&mai_lambda::programs::church_multiplication(2, 2))
    );
}

/// E7 — classical expected CFA results.
fn experiment_classic() {
    heading("E7  textbook flow sets");
    let fan = mai_cps::programs::fan_out(5);
    let mono = analyse_mono(&fan);
    let one = analyse_kcfa_shared::<1>(&fan);
    let mono_flows = mai_cps::flow_map_of_store(mono.store());
    let x = mai_core::Name::from("x");
    println!(
        "fan-out-5: |0CFA flow set of x| = {} (expected 5), 1CFA singleton addresses = {}",
        mono_flows[&x].len(),
        mai_cps::AnalysisMetrics::of_shared(&one).singleton_flows
    );
}

/// E8 — the frontier-driven worklist engine vs. naive Kleene iteration:
/// identical fixpoints, strictly fewer step-function invocations.
fn experiment_worklist() -> Vec<Json> {
    heading("E8  worklist engine vs. Kleene iteration (1CFA, shared store)");
    let mut rows = Vec::new();
    for (name, program) in cps_corpus() {
        let row = worklist_row(name, &program);
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    for (n, name) in [(3usize, "kcfa-worst-3"), (4, "kcfa-worst-4")] {
        let program = kcfa_worst_case(n);
        let row = worklist_row(name, &program);
        println!("n={n:<3} {}", row.render());
        println!("     engine: {}", row.stats);
        rows.push(row.to_json());
    }
    rows
}

/// The E10 workload list: the benchmark corpus plus the scaled k-CFA
/// worst-case family at the depths where wall-clock differences are
/// visible.  Shared by the report and by `--check-regress` so the two
/// always measure the same rows.
fn e10_workloads() -> Vec<(String, mai_cps::syntax::CExp, usize)> {
    let mut workloads: Vec<(String, mai_cps::syntax::CExp, usize)> = cps_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_string(), program, 5))
        .collect();
    workloads.push(("kcfa-worst-4".to_string(), kcfa_worst_case(4), 5));
    for n in 3..=6 {
        workloads.push((
            format!("kcfa-worst-{n}w{E10_SCALE_WIDTH}"),
            kcfa_worst_case_scaled(n, E10_SCALE_WIDTH),
            5,
        ));
    }
    workloads
}

/// E10 — the id-indexed (hash-consed) engine vs. the PR-2 structural-key
/// incremental engine: identical fixpoints, O(1) state identity.
fn experiment_interned() -> Vec<Json> {
    heading(
        "E10  id-indexed (interned) engine vs. structural incremental engine (1CFA, shared store)",
    );
    let mut rows = Vec::new();
    for (name, program, repeats) in e10_workloads() {
        let row = interned_row(name, &program, repeat_count(repeats));
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    rows
}

/// The value of a `--flag value` style argument, if present.
fn string_arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of a `--flag N` style argument, if present.
fn numeric_arg(flag: &str) -> Option<usize> {
    string_arg(flag).and_then(|v| v.parse().ok())
}

/// The E12 thread sweep: 1 and 2 workers plus the `--threads` top count
/// (default 4), deduplicated and sorted.
fn e12_thread_counts() -> Vec<usize> {
    let top = numeric_arg("--threads").unwrap_or(4).max(1);
    let mut counts = vec![1usize, 2, top];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The `--repeat` override: how often each timed solve is repeated
/// (defaults to the section's own repeat count when absent).
fn repeat_count(default: usize) -> usize {
    numeric_arg("--repeat").unwrap_or(default).max(1)
}

/// The `--epochs` knob: the elastic epoch budget of the E14 section and
/// the `--parallel-smoke` elastic row (default 4; `1` is the barrier
/// engine).
fn epoch_budget() -> usize {
    numeric_arg("--epochs").unwrap_or(4).max(1)
}

/// The `--max-steps` knob: the step budget of the E15 exhaustion/resume
/// exercise (default 32 — small enough to bite on every corpus workload).
fn max_steps_budget() -> usize {
    numeric_arg("--max-steps").unwrap_or(32).max(1)
}

/// The `--cancel-after-ms` knob: the watchdog delay of the
/// `--parallel-smoke` cancellation row (default 2ms).
fn cancel_after() -> std::time::Duration {
    std::time::Duration::from_millis(numeric_arg("--cancel-after-ms").unwrap_or(2) as u64)
}

/// The E12 workload list: the scaled k-CFA worst-case lanes family at the
/// acceptance depths.  Shared by the report and by `--check-regress`.
fn e12_workloads() -> Vec<(String, mai_cps::syntax::CExp)> {
    (3..=6)
        .map(|n| {
            (
                format!("kcfa-worst-{n}w{E10_SCALE_WIDTH}"),
                kcfa_worst_case_scaled(n, E10_SCALE_WIDTH),
            )
        })
        .collect()
}

/// E12 — the sharded parallel driver vs. the sequential direct engine:
/// identical fixpoints and identical deterministic work counters at every
/// thread count; wall-clock speedup when (and only when) the host has the
/// cores — the section records `host_cpus` so a 1-CPU container's ≈1×
/// rows are not mistaken for a scaling regression.
fn experiment_parallel() -> Json {
    heading("E12  sharded parallel driver vs. sequential direct engine (1CFA, shared store)");
    println!("host cpus: {}", host_cpus());
    let mut rows = Vec::new();
    for (name, program) in e12_workloads() {
        for threads in e12_thread_counts() {
            let row = parallel_row(name.clone(), &program, threads, repeat_count(3));
            println!("{}", row.render());
            rows.push(row.to_json());
        }
    }
    Json::obj([
        ("host_cpus", Json::Int(host_cpus() as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The `--parallel-smoke` mode: one quick parallel-vs-direct row at the
/// `--threads` worker count; non-zero exit unless the fixpoints (and the
/// asserted work counters inside `parallel_row`) agree.
fn parallel_smoke() -> std::process::ExitCode {
    let threads = numeric_arg("--threads").unwrap_or(2).max(1);
    let epochs = epoch_budget();
    println!("Monadic Abstract Interpreters — parallel smoke ({threads} threads, {epochs} epochs)");
    if host_cpus() == 1 {
        println!("==================================================================");
        println!("!! HOST HAS 1 CPU — PARITY ONLY, NO SCALING CLAIM               !!");
        println!("!! the rows below verify fixpoint equality across drivers; the  !!");
        println!("!! wall-clock columns measure nothing about parallel speedup.   !!");
        println!("==================================================================");
    }
    let program = kcfa_worst_case_scaled(3, E10_SCALE_WIDTH);
    let name = format!("kcfa-worst-3w{E10_SCALE_WIDTH}");
    let row = parallel_row(name.clone(), &program, threads, 1);
    println!("{}", row.render());
    let elastic = elastic_row(name.clone(), &program, threads, epochs, 1);
    println!("{}", elastic.render());
    // Governance smoke: a watchdog thread cancels the elastic solve after
    // `--cancel-after-ms` (default 2ms).  Either outcome — cancelled
    // partial or completed fixpoint (on a fast host the solve can win the
    // race) — passes; a hang or a mangled outcome fails.
    let cancel = cancel_latency_row(name, &program, threads, epochs, cancel_after());
    println!("{}", cancel.render());
    if row.equal && elastic.equal && cancel.ok() {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("a parallel smoke row failed (divergence or hung cancel)");
        std::process::ExitCode::FAILURE
    }
}

/// The E13 thread sweep: the acceptance thread counts, fixed so the
/// committed per-round profiles always decompose the same three ladder
/// rungs (sequential-in-driver, two-way, four-way).
const E13_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// E13 — engine telemetry: the sharded parallel driver solved with the
/// tracing sink attached, on the kCFA lanes family at 1/2/4 workers.
/// Tracing is pure observation — each row asserts the traced solve
/// reproduces the untraced fixpoint and work counters bit-for-bit — and
/// the committed per-round profiles decompose every round's wall-clock
/// into step, join and sync (barrier/coordination) time, with per-worker
/// busy/wait spans and the hot-spot attribution.  All of it is
/// reported-only: `--check-regress` gates nothing in this section.
fn experiment_telemetry() -> Json {
    heading("E13  engine telemetry (traced parallel driver, 1CFA, shared store)");
    println!("host cpus: {}", host_cpus());
    let mut rows = Vec::new();
    for (name, program) in e12_workloads() {
        for threads in E13_THREAD_COUNTS {
            let row = telemetry_row(name.clone(), &program, threads);
            println!("{}", row.render());
            rows.push(row.to_json());
        }
    }
    Json::obj([
        ("host_cpus", Json::Int(host_cpus() as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// E14 — the barrier-elastic driver vs. the barrier driver vs. the
/// sequential direct engine: byte-identical fixpoints at every
/// `(threads, epochs)` point (gated by the differential suite and by the
/// `equal` flag here), wall-clock and barrier-wait share as the payoff
/// metrics.  **Nothing in this section is gated**: elastic work counters
/// are timing-dependent by design — the staleness argument trades counter
/// determinism for less time at barriers.
fn experiment_elastic() -> Json {
    let epochs = epoch_budget();
    heading("E14  barrier-elastic driver vs. barrier driver (1CFA, shared store)");
    println!("host cpus: {} (epoch budget {epochs})", host_cpus());
    let mut rows = Vec::new();
    for (name, program) in e12_workloads() {
        for threads in E13_THREAD_COUNTS {
            let row = elastic_row(name.clone(), &program, threads, epochs, repeat_count(3));
            assert!(
                row.equal,
                "{name}@t{threads}e{epochs}: elastic fixpoint diverged from the direct oracle"
            );
            println!("{}", row.render());
            rows.push(row.to_json());
        }
    }
    Json::obj([
        ("host_cpus", Json::Int(host_cpus() as u64)),
        ("epoch_budget", Json::Int(epochs as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The E15 workload list: the benchmark corpus plus the two largest k-CFA
/// worst cases, where the default 32-step budget genuinely exhausts and
/// the resume chain runs several links long.  Shared by the report and by
/// `--check-regress`.
fn e15_workloads() -> Vec<(String, mai_cps::syntax::CExp)> {
    let mut workloads: Vec<(String, mai_cps::syntax::CExp)> = cps_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_string(), program))
        .collect();
    workloads.push(("kcfa-worst-4".to_string(), kcfa_worst_case(4)));
    workloads.push((
        format!("kcfa-worst-4w{E10_SCALE_WIDTH}"),
        kcfa_worst_case_scaled(4, E10_SCALE_WIDTH),
    ));
    workloads
}

/// E15 — governed engines: governed-off parity (unlimited budgets are
/// byte-identical to the classic engines, counters included — asserted,
/// and the `governed` counters plus the deterministic `resume_links` are
/// regression-gated), and step-budgeted solves resumed link by link onto
/// the one-shot fixpoint.  With `--deadline-ms N`, additionally prints a
/// deadline-bounded solve of the largest workload; that row is
/// reported-only and never committed, because wall-clock-bound outcomes
/// depend on the host.
fn experiment_governed() -> Vec<Json> {
    let max_steps = max_steps_budget();
    heading("E15  governed engines: budgets, resume, parity (1CFA, shared store)");
    let mut rows = Vec::new();
    for (name, program) in e15_workloads() {
        let row = governed_row(name.clone(), &program, max_steps);
        assert!(row.parity, "{name}: governed-off parity broke");
        assert!(row.resumed_equal, "{name}: resume diverged from one-shot");
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    if let Some(ms) = numeric_arg("--deadline-ms") {
        use mai_core::engine::Budget;
        let program = kcfa_worst_case_scaled(4, E10_SCALE_WIDTH);
        let budget = Budget::unlimited().with_timeout(std::time::Duration::from_millis(ms as u64));
        let start = Instant::now();
        let (outcome, stats) = mai_core::analyse::governed::<mai_cps::analysis::KCfaShared<1>, _>(
            &program,
            mai_core::analyse::Gc::Off,
            None,
            &budget,
            &mut mai_core::NoopSink,
        );
        println!(
            "deadline demo      kcfa-worst-4w{E10_SCALE_WIDTH} deadline={ms}ms wall={:<8.2?} \
             rounds={:<4} outcome={} (reported-only)",
            start.elapsed(),
            stats.iterations,
            outcome
                .exhaust_reason()
                .map_or("complete", mai_core::engine::ExhaustReason::as_str),
        );
    }
    rows
}

/// The E16 step budget of the join-only solve: deep enough that the
/// shallow capped chain completes under plain join, shallow enough that
/// the unbounded and deep-capped chains visibly starve it.
const E16_STEP_BUDGET: usize = 64;

/// The E16 workload list: the unbounded counting loop (latent
/// non-termination — join-only iteration must starve the step budget), a
/// shallow capped chain (join-only completes; pins the precision the
/// narrowing pass must recover) and a deep capped chain (finite height,
/// but join-only needs `Θ(cap)` rounds where widening needs `Θ(1)`).
/// Shared by the report and by `--check-regress`.
fn e16_workloads() -> Vec<(String, Option<i64>)> {
    vec![
        ("count-unbounded".to_string(), None),
        ("count-cap-12".to_string(), Some(12)),
        ("count-cap-4096".to_string(), Some(4096)),
    ]
}

/// E16 — widening on the infinite-height interval domain: join-only
/// budget starvation vs. widened convergence with narrowing, carrier
/// parity, and parallel/elastic driver parity.  The sequential widened
/// counters are regression-gated; the elastic driver contributes only a
/// fixpoint-parity bool (its widening counters are timing-dependent).
fn experiment_widening() -> Vec<Json> {
    heading("E16  widening: interval counting loops, chain depth vs. widening points");
    let threads = numeric_arg("--threads").unwrap_or(2).max(1);
    let mut rows = Vec::new();
    for (name, cap) in e16_workloads() {
        let row = widening_row(name.clone(), cap, E16_STEP_BUDGET, threads);
        assert!(row.carrier_parity, "{name}: Rc carrier diverged");
        assert!(row.parallel_parity, "{name}: parallel driver diverged");
        assert!(row.elastic_parity, "{name}: elastic driver diverged");
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    rows
}

/// How often each E17 row runs at most in the report (best time per
/// phase; a row also stops once its passes took a second, see
/// [`scaling_row`]), unless `--repeat` overrides it.
const E17_REPEATS: usize = 7;

/// The E17 rows of every family, each fitting its exponent against the
/// family's previous row.
fn scaling_rows(repeats: usize) -> Vec<ScalingRow> {
    let mut rows: Vec<ScalingRow> = Vec::new();
    for family in ScalingFamily::ALL {
        let mut previous: Option<ScalingRow> = None;
        for &size in family.sizes() {
            let row = scaling_row(family, size, repeats, previous.as_ref());
            previous = Some(row.clone());
            rows.push(row);
        }
    }
    rows
}

/// E17 — the scaling curve past the perfbench ladders: source text →
/// front end → direct solve → query, per family, with a fitted exponent
/// per segment.
fn experiment_scaling() -> Vec<Json> {
    heading("E17  scaling curve: source → direct solve → answer (time vs. configurations)");
    scaling_rows(repeat_count(E17_REPEATS))
        .iter()
        .map(|row| {
            println!("{}", row.render());
            row.to_json()
        })
        .collect()
}

/// The `--widening-canary` mode: the CI non-termination canary.  Solves
/// the unbounded counting loop join-only under a step budget — it must
/// stop with a *clean* `StepBudget` exhaustion, never hang — and then
/// with engine widening points, where the same loop must complete.  Both
/// legs run under the workflow's `timeout-minutes` backstop, so a
/// regression in either the budget plumbing or the widening-point
/// selection turns into a red build, not a stalled runner.
fn widening_canary() -> std::process::ExitCode {
    use mai_core::engine::{Budget, WidenPolicy};
    use mai_core::{DirectCollecting, SolveFrom};
    type IS = mai_core::store::IntervalStore<u8>;
    println!("Monadic Abstract Interpreters — widening canary (unbounded interval loop)");
    let step = mai_bench::counting_step(None);

    let fuel = Budget::unlimited().with_max_steps(E16_STEP_BUDGET);
    let (join_only, stats) = <mai_bench::WideningDomain as DirectCollecting<
        mai_bench::CountState,
        u64,
        IS,
    >>::explore_frontier_governed(
        &step, SolveFrom::Fresh(mai_bench::CountState(0)), &fuel
    );
    println!(
        "join-only   budget={E16_STEP_BUDGET} steps={} outcome={}",
        stats.states_stepped,
        join_only
            .exhaust_reason()
            .map_or("complete", mai_core::engine::ExhaustReason::as_str),
    );
    if join_only.exhaust_reason() != Some(mai_core::engine::ExhaustReason::StepBudget) {
        eprintln!("canary failed: join-only iteration did not starve the step budget cleanly");
        return std::process::ExitCode::FAILURE;
    }

    let widened = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
    let (outcome, stats) = <mai_bench::WideningDomain as DirectCollecting<
        mai_bench::CountState,
        u64,
        IS,
    >>::explore_frontier_governed(
        &step, SolveFrom::Fresh(mai_bench::CountState(0)), &widened
    );
    println!(
        "widened     widens={} steps={} outcome={}",
        stats.widen_applied,
        stats.states_stepped,
        outcome
            .exhaust_reason()
            .map_or("complete", mai_core::engine::ExhaustReason::as_str),
    );
    if !outcome.is_complete() {
        eprintln!("canary failed: widening points did not force convergence");
        return std::process::ExitCode::FAILURE;
    }
    let bound = outcome.into_complete().store().fetch(&0u8);
    println!("loop-head counter bound: {bound}");
    if bound != mai_core::lattice::Interval::at_least(0) {
        eprintln!("canary failed: widened bound is not [0, +∞)");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}

/// The traced workload behind `--trace-out` and `--profile`: one solve of
/// the E13 acceptance program on the parallel driver at the `--threads`
/// worker count (default 2 so worker spans and sync phases exist).
fn traced_acceptance_solve() -> (mai_bench::TelemetryRow, usize) {
    let threads = numeric_arg("--threads").unwrap_or(2).max(1);
    let program = kcfa_worst_case_scaled(4, E10_SCALE_WIDTH);
    (
        telemetry_row(format!("kcfa-worst-4w{E10_SCALE_WIDTH}"), &program, threads),
        threads,
    )
}

/// The `--trace-out <path>` mode: writes the Chrome trace-event JSON of
/// one traced parallel solve to `path`, then self-validates the export —
/// it must parse back and contain at least one slice for each phase
/// category (`step`, `join`, `sync`) and at least one `worker` span.
/// Non-zero exit otherwise, so CI can smoke the whole telemetry path.
fn trace_out(path: &str) -> std::process::ExitCode {
    let (row, threads) = traced_acceptance_solve();
    println!("Monadic Abstract Interpreters — Chrome trace export ({threads} threads)");
    println!("{}", row.render());
    if !row.equal {
        eprintln!("traced fixpoint diverged from the untraced parallel solve");
        return std::process::ExitCode::FAILURE;
    }
    let chrome = row.trace.chrome_trace_json();
    if let Err(err) = std::fs::write(path, &chrome) {
        eprintln!("failed to write {path}: {err}");
        return std::process::ExitCode::FAILURE;
    }
    let parsed = match Json::parse(&chrome) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("exported trace is not valid JSON: {err}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let events = parsed.get("traceEvents").map(Json::items).unwrap_or(&[]);
    let count = |cat: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some(cat))
            .count()
    };
    println!(
        "wrote {path}: {} events (step={} join={} sync={} worker={} steal={})",
        events.len(),
        count("step"),
        count("join"),
        count("sync"),
        count("worker"),
        count("steal"),
    );
    for cat in ["step", "join", "sync", "worker"] {
        if count(cat) == 0 {
            eprintln!("exported trace has no '{cat}' events");
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}

/// The `--profile` mode: prints the human-readable phase split, per-worker
/// totals and hot-spot attribution of one traced parallel solve.
fn profile() -> std::process::ExitCode {
    let (row, threads) = traced_acceptance_solve();
    println!("Monadic Abstract Interpreters — engine profile ({threads} threads)");
    println!("{}", row.render());
    print!("{}", row.trace.profile_summary(PROFILE_TOP_K));
    if row.equal {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("traced fixpoint diverged from the untraced parallel solve");
        std::process::ExitCode::FAILURE
    }
}

/// E11 — the direct-style carrier on the persistent store spine vs. the
/// PR-3 interned engine on the `Rc`-closure carrier: identical fixpoints
/// and identical work counters, no `Rc<dyn Fn>` allocation per bind.
fn experiment_persistent() -> Vec<Json> {
    heading(
        "E11  direct-style carrier (persistent spine) vs. Rc-closure interned engine \
         (1CFA, shared store)",
    );
    let mut rows = Vec::new();
    for (name, program, repeats) in e10_workloads() {
        let row = direct_row(name, &program, repeat_count(repeats));
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    rows
}

/// One deterministic counter of one engine row: `(section, program,
/// counter-path, fresh value)`.  `higher_is_better` selects the regression
/// direction: most counters measure *work* (growth regresses), the
/// structural-sharing byte counter measures *savings* (shrinkage
/// regresses).
type CounterSample = (&'static str, String, &'static str, u64);

/// Every deterministic counter path the regression gate samples, by
/// report section.  Reported-only fields — `wall_ms`, `host_cpus`, the
/// `*_ms` timings and the whole `e13_engine_telemetry` section — are
/// deliberately absent: the gate pins *work*, never wall-clock, and a
/// unit test keeps timing fields from creeping in.
const GATED_COUNTER_PATHS: &[(&str, &[&str])] = &[
    (
        "e8_worklist_vs_kleene",
        &[
            "kleene_steps",
            "engine.states_stepped",
            "engine.store_joins",
        ],
    ),
    (
        "e10_interned_vs_structural",
        &[
            "interned.states_stepped",
            "interned.store_joins",
            "structural.states_stepped",
            "structural.store_joins",
        ],
    ),
    (
        "e11_persistent_vs_interned",
        &[
            "direct.states_stepped",
            "direct.store_joins",
            "direct.spine_clones",
            "direct.store_bytes_shared",
            "direct.dep_edges",
            "direct.branches_folded",
            "direct.gc_filter_visited",
        ],
    ),
    (
        "e12_parallel_vs_direct",
        &[
            "parallel.states_stepped",
            "parallel.store_joins",
            "parallel.sync_rounds",
        ],
    ),
    (
        "e15_governed",
        &[
            "governed.states_stepped",
            "governed.store_joins",
            "resume_links",
        ],
    ),
    // E16's elastic solve is only a parity bool in the row — its widening
    // counters are timing-dependent and deliberately exempt; the gated
    // paths below all come from the sequential widened solve.
    (
        "e16_widening",
        &[
            "widened.states_stepped",
            "widened.store_joins_applied",
            "widened.widen_applied",
        ],
    ),
    // E17 gates the work of each row; its times and exponents are
    // reported, never gated.
    (
        "e17_scaling",
        &[
            "engine.states_stepped",
            "engine.dep_edges",
            "engine.branches_folded",
            "engine.gc_filter_visited",
        ],
    ),
];

/// The sections whose rows carry a `certified` flag from
/// `engine::certify`; `--check-regress` fails on any row without
/// `certified: true`, except the E17 rows of the families `certify` is not
/// run on ([`must_be_certified`]).
const CERTIFIED_SECTIONS: &[&str] = &[
    "e8_worklist_vs_kleene",
    "e10_interned_vs_structural",
    "e11_persistent_vs_interned",
    "e15_governed",
    "e16_widening",
    "e17_scaling",
];

/// Whether a row of a certified section must say `certified: true`: every
/// row but the E17 rows of a family that is not
/// [certifiable](ScalingFamily::certifiable).  A row naming no known
/// family must be certified.
fn must_be_certified(section: &str, row: &Json) -> bool {
    section != "e17_scaling"
        || row
            .get("family")
            .and_then(Json::as_str)
            .and_then(ScalingFamily::by_name)
            .is_none_or(ScalingFamily::certifiable)
}

/// `section/program` for every row of a certified section whose fixpoint
/// `engine::certify` did not accept (or that does not say).
fn uncertified_rows(report: &Json) -> Vec<String> {
    CERTIFIED_SECTIONS
        .iter()
        .flat_map(|section| {
            committed_rows(report, section)
                .iter()
                .filter(|row| must_be_certified(section, row))
                .filter(|row| !matches!(row.get("certified"), Some(Json::Bool(true))))
                .map(move |row| {
                    let program = row.get("program").and_then(Json::as_str).unwrap_or("?");
                    format!("{section}/{program}")
                })
        })
        .collect()
}

/// The gated counter paths of one section.
fn section_paths(section: &str) -> &'static [&'static str] {
    GATED_COUNTER_PATHS
        .iter()
        .find(|(s, _)| *s == section)
        .map(|(_, paths)| *paths)
        .unwrap_or_else(|| panic!("section {section} has no gated counters"))
}

/// Samples every gated counter of one freshly measured row, reading the
/// values out of the row's own JSON rendering — the same representation
/// `--check-regress` walks in the committed report, so the fresh and
/// committed sides cannot drift apart.
fn sample_row(samples: &mut Vec<CounterSample>, section: &'static str, key: String, row: &Json) {
    for path in section_paths(section) {
        let value = committed_counter(row, path)
            .unwrap_or_else(|| panic!("{section}/{key}: fresh row misses gated counter {path}"));
        samples.push((section, key.clone(), path, value));
    }
}

/// Whether a larger fresh value is the good direction for this counter.
fn higher_is_better(counter: &str) -> bool {
    counter.ends_with("store_bytes_shared")
}

/// The committed rows of one report section: the section itself when it
/// is an array, else its `rows` field (E12 keeps `host_cpus` next to its
/// rows).  Empty when the report lacks the section.
fn committed_rows<'a>(report: &'a Json, section: &str) -> &'a [Json] {
    report
        .get(section)
        .map(|section_json| section_json.get("rows").unwrap_or(section_json))
        .map_or(&[], Json::items)
}

/// The gated sections with no committed rows.  A missing baseline would
/// turn every fresh sample of its section into a "new row" and silently
/// switch that section's gate off, so `--check-regress` fails on it.
fn sections_without_baseline(report: &Json) -> Vec<&'static str> {
    GATED_COUNTER_PATHS
        .iter()
        .map(|(section, _)| *section)
        .filter(|section| committed_rows(report, section).is_empty())
        .collect()
}

/// Reads `row.engine.states_stepped`-style nested counters out of a parsed
/// report row.
fn committed_counter(row: &Json, path: &str) -> Option<u64> {
    let mut value = row;
    for part in path.split('.') {
        value = value.get(part)?;
    }
    value.as_u64()
}

/// Measures every deterministic engine counter the report tracks, without
/// printing the tables, and names every fresh row whose fixpoint
/// `engine::certify` rejected.
fn fresh_counters() -> (Vec<CounterSample>, Vec<String>) {
    let mut samples: Vec<CounterSample> = Vec::new();
    let mut uncertified: Vec<String> = Vec::new();
    let mut certify = |section: &str, key: &str, certified: bool| {
        if !certified {
            uncertified.push(format!("{section}/{key}"));
        }
    };
    let mut corpus = cps_corpus();
    corpus.push(("kcfa-worst-3", kcfa_worst_case(3)));
    corpus.push(("kcfa-worst-4", kcfa_worst_case(4)));
    // E8: Kleene step counts and worklist engine counters.
    for (name, program) in &corpus {
        let row = worklist_row(name, program);
        assert!(row.equal, "{name}: worklist fixpoint differs from Kleene");
        certify("e8_worklist_vs_kleene", name, row.certified);
        sample_row(
            &mut samples,
            "e8_worklist_vs_kleene",
            name.to_string(),
            &row.to_json(),
        );
    }
    // E11: direct-carrier counters (work + structural sharing).  The work
    // counters must also *match* the Rc carrier's — the solver is shared —
    // which pins the carriers to each other, not just to the baseline.
    for (name, program, _) in e10_workloads() {
        let row = direct_row(name.clone(), &program, 1);
        assert!(row.equal, "{name}: direct fixpoint differs from Rc carrier");
        assert_eq!(
            (
                row.rc.states_stepped,
                row.rc.store_joins,
                row.rc.spine_clones,
                row.rc.dep_edges
            ),
            (
                row.direct.states_stepped,
                row.direct.store_joins,
                row.direct.spine_clones,
                row.direct.dep_edges
            ),
            "{name}: carriers disagree on work counters"
        );
        certify("e11_persistent_vs_interned", &name, row.certified);
        sample_row(
            &mut samples,
            "e11_persistent_vs_interned",
            name,
            &row.to_json(),
        );
    }
    // E12: parallel-driver deterministic counters.  `parallel_row` itself
    // asserts the work counters match the sequential direct engine; the
    // gate additionally pins them (and the round structure) to the
    // committed baseline.  The timing gauges (steal_events,
    // shard_imbalance) are *not* sampled — they are legitimately
    // nondeterministic.
    for (name, program) in e12_workloads() {
        for threads in e12_thread_counts() {
            let row = parallel_row(name.clone(), &program, threads, 1);
            assert!(
                row.equal,
                "{name}@t{threads}: parallel fixpoint differs from direct"
            );
            sample_row(
                &mut samples,
                "e12_parallel_vs_direct",
                format!("{name}@t{threads}"),
                &row.to_json(),
            );
        }
    }
    // E10: id-indexed vs. structural counters.
    for (name, program, _) in e10_workloads() {
        let row = interned_row(name.clone(), &program, 1);
        assert!(
            row.equal,
            "{name}: interned fixpoint differs from structural"
        );
        certify("e10_interned_vs_structural", &name, row.certified);
        sample_row(
            &mut samples,
            "e10_interned_vs_structural",
            name,
            &row.to_json(),
        );
    }
    // E15: governed-engine counters.  `governed_row` runs the unlimited
    // budget (parity with the classic engines — counters included) and the
    // step-budgeted resume chain; both invariants are asserted here, and
    // the governed work counters plus the deterministic resume-link count
    // are pinned to the committed baseline.
    for (name, program) in e15_workloads() {
        let row = governed_row(name.clone(), &program, max_steps_budget());
        assert!(row.parity, "{name}: governed-off parity broke");
        assert!(row.resumed_equal, "{name}: resume diverged from one-shot");
        certify("e15_governed", &name, row.certified);
        sample_row(&mut samples, "e15_governed", name, &row.to_json());
    }
    // E16: widened-solve counters.  Widening points make the governed
    // sequential engine's work deterministic, so the gate pins it; the
    // three parity invariants are asserted here just as in the report.
    for (name, cap) in e16_workloads() {
        let row = widening_row(name.clone(), cap, E16_STEP_BUDGET, 2);
        assert!(row.carrier_parity, "{name}: Rc carrier diverged");
        assert!(row.parallel_parity, "{name}: parallel driver diverged");
        assert!(row.elastic_parity, "{name}: elastic driver diverged");
        certify("e16_widening", &name, row.certified);
        sample_row(&mut samples, "e16_widening", name, &row.to_json());
    }
    // E17: the scaling rows' work counters, from one pass of each row,
    // and the certificates of the GC-free families.
    for row in scaling_rows(1) {
        if let Some(certified) = row.certified {
            certify("e17_scaling", &row.program(), certified);
        }
        sample_row(&mut samples, "e17_scaling", row.program(), &row.to_json());
    }
    (samples, uncertified)
}

/// The `--check-regress` mode: compares freshly measured deterministic
/// counters against the committed `BENCH_report.json`.  Exits non-zero on
/// any counter that grew (the engine does *more* work than the committed
/// baseline) and on any gated section the report has no rows for;
/// counters that shrank are reported as improvements and pass (regenerate
/// the report to lock them in).
fn check_regress() -> std::process::ExitCode {
    println!("Monadic Abstract Interpreters — counter regression check");
    let path = "BENCH_report.json";
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(json) => json,
            Err(err) => {
                eprintln!("failed to parse {path}: {err}");
                return std::process::ExitCode::FAILURE;
            }
        },
        Err(err) => {
            eprintln!("failed to read {path}: {err}");
            return std::process::ExitCode::FAILURE;
        }
    };

    let unbaselined = sections_without_baseline(&committed);
    for section in &unbaselined {
        println!("NO BASELINE {section}: gated section has no committed rows in {path}");
    }
    let committed_uncertified = uncertified_rows(&committed);
    for row in &committed_uncertified {
        println!("UNCERTIFIED {row}: the committed fixpoint is not certified in {path}");
    }

    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut missing = 0usize;
    let (samples, fresh_uncertified) = fresh_counters();
    for row in &fresh_uncertified {
        println!("UNCERTIFIED {row}: engine::certify rejects the fresh fixpoint");
    }
    let uncertified = committed_uncertified.len() + fresh_uncertified.len();
    for (section, program, counter, fresh) in samples {
        // E12 rows are keyed by program *and* thread count (the sample key
        // is "program@tN"); its rows live under the section's "rows" field
        // next to the host_cpus record.
        let (program_name, threads) = match program.split_once("@t") {
            Some((p, t)) => (p.to_string(), t.parse::<u64>().ok()),
            None => (program.clone(), None),
        };
        let baseline = committed_rows(&committed, section)
            .iter()
            .find(|row| {
                row.get("program").and_then(Json::as_str) == Some(&program_name)
                    && match threads {
                        Some(t) => row.get("threads").and_then(Json::as_u64) == Some(t),
                        None => true,
                    }
            })
            .and_then(|row| committed_counter(row, counter));
        match baseline {
            Some(committed_value) if fresh != committed_value => {
                // `store_bytes_shared` regresses when sharing *shrinks*;
                // every work counter regresses when it *grows*.
                let regressed = if higher_is_better(counter) {
                    fresh < committed_value
                } else {
                    fresh > committed_value
                };
                if regressed {
                    regressions += 1;
                    println!(
                        "REGRESSION  {section}/{program} {counter}: {fresh} vs committed {committed_value}"
                    );
                } else {
                    improvements += 1;
                    println!(
                        "improved    {section}/{program} {counter}: {fresh} vs committed {committed_value}"
                    );
                }
            }
            Some(_) => {}
            None => {
                missing += 1;
                println!(
                    "new row     {section}/{program} {counter}: {fresh} (no committed baseline)"
                );
            }
        }
    }
    println!(
        "\ncheck-regress: {regressions} regression(s), {improvements} improvement(s), {missing} new counter(s)"
    );
    if uncertified > 0 {
        println!(
            "{uncertified} uncertified fixpoint(s) — an engine returned less than a post-fixpoint"
        );
        std::process::ExitCode::FAILURE
    } else if !unbaselined.is_empty() {
        println!(
            "{} gated section(s) have no committed baseline — regenerate BENCH_report.json",
            unbaselined.len()
        );
        std::process::ExitCode::FAILURE
    } else if regressions > 0 {
        println!("step/join counters regressed — investigate, or regenerate BENCH_report.json if intentional");
        std::process::ExitCode::FAILURE
    } else {
        if improvements > 0 {
            println!(
                "counters improved — regenerate BENCH_report.json to lock the new baseline in"
            );
        }
        std::process::ExitCode::SUCCESS
    }
}

fn main() -> std::process::ExitCode {
    if std::env::args().any(|arg| arg == "--check-regress") {
        return check_regress();
    }
    if std::env::args().any(|arg| arg == "--parallel-smoke") {
        return parallel_smoke();
    }
    if std::env::args().any(|arg| arg == "--widening-canary") {
        return widening_canary();
    }
    if let Some(path) = string_arg("--trace-out") {
        return trace_out(&path);
    }
    if std::env::args().any(|arg| arg == "--profile") {
        return profile();
    }
    let started = Instant::now();
    println!("Monadic Abstract Interpreters — experiment report");
    experiment_adequacy();
    let polyvariance = experiment_polyvariance();
    experiment_cloning();
    experiment_counting();
    experiment_gc();
    experiment_reuse();
    experiment_classic();
    let worklist = experiment_worklist();
    let interned = experiment_interned();
    let persistent = experiment_persistent();
    let parallel = experiment_parallel();
    let telemetry = experiment_telemetry();
    let elastic = experiment_elastic();
    let governed = experiment_governed();
    let widening = experiment_widening();
    let scaling = experiment_scaling();

    let report = Json::obj([
        ("schema_version", Json::Int(10)),
        (
            "report_wall_clock_ms",
            Json::Num(started.elapsed().as_secs_f64() * 1e3),
        ),
        ("e2_polyvariance", Json::Arr(polyvariance)),
        ("e8_worklist_vs_kleene", Json::Arr(worklist)),
        ("e10_interned_vs_structural", Json::Arr(interned)),
        ("e11_persistent_vs_interned", Json::Arr(persistent)),
        ("e12_parallel_vs_direct", parallel),
        ("e13_engine_telemetry", telemetry),
        ("e14_elastic_vs_barrier", elastic),
        ("e15_governed", Json::Arr(governed)),
        ("e16_widening", Json::Arr(widening)),
        ("e17_scaling", Json::Arr(scaling)),
    ]);
    let path = "BENCH_report.json";
    match std::fs::write(path, report.render() + "\n") {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => eprintln!("\nfailed to write {path}: {err}"),
    }
    println!("done.");
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite guarantee behind `wall_ms`/`host_cpus`: the
    /// regression gate samples *work* counters only.  No gated path may
    /// name a timing or host field, and the telemetry section is never
    /// gated at all.
    #[test]
    fn regress_gate_never_samples_timing_fields() {
        for (section, paths) in GATED_COUNTER_PATHS {
            assert_ne!(
                *section, "e13_engine_telemetry",
                "the telemetry section is reported-only"
            );
            assert_ne!(
                *section, "e14_elastic_vs_barrier",
                "elastic counters are timing-dependent and never gated"
            );
            for path in *paths {
                for part in path.split('.') {
                    assert!(
                        part != "wall_ms" && part != "host_cpus" && !part.ends_with("_ms"),
                        "{section}: gated counter path {path} samples a timing field"
                    );
                    assert!(
                        !mai_core::EngineStats::GAUGES.contains(&part),
                        "{section}: gated counter path {path} samples a timing gauge"
                    );
                }
            }
        }
    }

    /// The committed report carries rows for every gated section — a
    /// deleted baseline would otherwise switch its section's gate off.
    #[test]
    fn committed_report_has_rows_for_every_gated_section() {
        let report = Json::parse(include_str!("../../../BENCH_report.json"))
            .expect("committed BENCH_report.json parses");
        let unbaselined = sections_without_baseline(&report);
        assert!(
            unbaselined.is_empty(),
            "gated sections without committed rows: {unbaselined:?}"
        );
        // …and the check itself fires when a section goes missing.
        let gutted = Json::obj([("schema_version", Json::Int(9))]);
        assert_eq!(
            sections_without_baseline(&gutted).len(),
            GATED_COUNTER_PATHS.len()
        );
    }

    /// Every gated path resolves inside the JSON rendering its section's
    /// row type produces — a path typo would otherwise only surface as a
    /// panic in the (slow) `--check-regress` mode.
    #[test]
    fn committed_report_certifies_every_fixpoint() {
        let report = Json::parse(include_str!("../../../BENCH_report.json"))
            .expect("committed BENCH_report.json parses");
        for section in CERTIFIED_SECTIONS {
            assert!(
                !committed_rows(&report, section).is_empty(),
                "{section} has no committed rows"
            );
        }
        assert_eq!(uncertified_rows(&report), Vec::<String>::new());
        // …and the check fires on a false or missing flag.
        let row = |certified: Option<bool>| {
            let mut fields = vec![("program", Json::Str("p".to_string()))];
            fields.extend(certified.map(|c| ("certified", Json::Bool(c))));
            Json::obj(fields)
        };
        let scaling = |family: &str, certified: Option<bool>| {
            let mut fields = vec![
                ("program", Json::Str(format!("{family}-1"))),
                ("family", Json::Str(family.to_string())),
            ];
            fields.extend(certified.map(|c| ("certified", Json::Bool(c))));
            Json::obj(fields)
        };
        let doctored = Json::obj([
            ("e8_worklist_vs_kleene", Json::Arr(vec![row(Some(true))])),
            (
                "e10_interned_vs_structural",
                Json::Arr(vec![row(Some(false))]),
            ),
            ("e15_governed", Json::Arr(vec![row(None)])),
            (
                "e17_scaling",
                Json::Arr(vec![
                    scaling("cps-lanes", Some(true)),
                    scaling("lambda-identity", None),
                    scaling("lambda-identity-gc", None),
                    scaling("fj-cells", None),
                    row(None),
                ]),
            ),
        ]);
        assert_eq!(
            uncertified_rows(&doctored),
            vec![
                "e10_interned_vs_structural/p",
                "e15_governed/p",
                "e17_scaling/lambda-identity-1",
                "e17_scaling/p"
            ]
        );
    }

    #[test]
    fn gated_paths_resolve_in_fresh_rows() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        let rows: Vec<(&str, Json)> = vec![
            (
                "e8_worklist_vs_kleene",
                worklist_row("w", &program).to_json(),
            ),
            (
                "e10_interned_vs_structural",
                interned_row("w", &program, 1).to_json(),
            ),
            (
                "e11_persistent_vs_interned",
                direct_row("w", &program, 1).to_json(),
            ),
            (
                "e12_parallel_vs_direct",
                parallel_row("w", &program, 2, 1).to_json(),
            ),
            ("e15_governed", governed_row("w", &program, 8).to_json()),
            ("e16_widening", widening_row("w", Some(12), 64, 2).to_json()),
            (
                "e17_scaling",
                scaling_row(ScalingFamily::LambdaIdentity, 4, 1, None).to_json(),
            ),
        ];
        for (section, row) in rows {
            for path in section_paths(section) {
                assert!(
                    committed_counter(&row, path).is_some(),
                    "{section}: gated path {path} does not resolve"
                );
            }
        }
    }
}
