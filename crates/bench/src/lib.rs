//! Shared helpers for the experiment harness: workload corpora and metric
//! extraction used both by the Criterion benches (`benches/`) and by the
//! `mai-bench` report binary (`src/main.rs`), which regenerates the
//! experiment tables listed in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mai_core::analyse::{self, Gc};
use mai_core::collect::explore_fp;
use mai_core::engine::{
    certify, Budget, CancelToken, EngineStats, ExhaustReason, Outcome, ParallelConfig,
};
use mai_core::store::BasicStore;
use mai_core::telemetry::{NoopSink, TraceBuffer, TraceSink};
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx, StorePassing};
use mai_cps::analysis::{
    analyse_kcfa, analyse_kcfa_shared, analyse_kcfa_shared_gc, analyse_mono, distinct_env_count,
    AnalysisMetrics, KCfaShared, KStore,
};
use mai_cps::syntax::CExp;
use mai_cps::{mnext, mnext_direct, PState};
use mai_lambda::machine::Storable;
use report::{engine_stats_json, engine_trace_json, Json};

/// Whether [`certify`] accepts a 1CFA shared-store fixpoint as a
/// post-fixpoint of `mnext`: the check that shares no machinery with the
/// engines that computed it.
fn certified(fixpoint: &KCfaShared<1>) -> bool {
    certify(fixpoint, &mnext_direct::<KCallCtx<1>, KStore>).certified()
}

/// A 1CFA shared-store solve on the parallel driver `config` selects,
/// observed by `sink`.
fn solve_parallel<T: TraceSink>(
    program: &CExp,
    config: ParallelConfig,
    sink: &mut T,
) -> (KCfaShared<1>, EngineStats) {
    analyse::complete(analyse::parallel(
        program,
        Gc::Off,
        config,
        &Budget::unlimited(),
        sink,
    ))
}

/// The number of logical CPUs on the reporting host.  Recorded (never
/// gated) on every report row alongside `wall_ms`, so a wall-clock number
/// is always read in the context of the machine that produced it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `top_k` of the hot-spot attribution embedded in report rows and
/// printed by `mai-bench --profile`.
pub const PROFILE_TOP_K: usize = 8;

/// The two reported-not-gated timing fields every report row carries: the
/// row's total wall-clock and [`host_cpus`].  `--check-regress` samples
/// neither — timing is context, not a deterministic baseline.
fn timing_fields(wall: Duration) -> [(&'static str, Json); 2] {
    [
        ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
        ("host_cpus", Json::Int(host_cpus() as u64)),
    ]
}

/// Runs `f` `repeats` times (minimum 1) and returns the last result with
/// the **minimum** and **median** wall-clock across the runs — the two
/// numbers `--repeat N` reports per timed solve.  The median damps
/// scheduler noise without hiding it the way the minimum can; both are
/// reported, neither is ever gated.
pub fn repeat_timed<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Duration, Duration) {
    let repeats = repeats.max(1);
    let mut times: Vec<Duration> = Vec::with_capacity(repeats);
    let mut result = None;
    for _ in 0..repeats {
        let start = Instant::now();
        result = Some(f());
        times.push(start.elapsed());
    }
    times.sort_unstable();
    let min = times[0];
    let median = times[times.len() / 2];
    (result.expect("at least one repeat"), min, median)
}

/// One row of a polyvariance / precision table for a CPS program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecisionRow {
    /// The workload name.
    pub program: &'static str,
    /// The analysis configuration name.
    pub configuration: String,
    /// The measured metrics.
    pub metrics: AnalysisMetrics,
    /// Wall-clock time of the analysis (reported, never gated).
    pub wall: Duration,
}

/// Times one precision configuration for [`polyvariance_rows`] / [`gc_rows`].
fn timed_precision_row(
    program: &'static str,
    configuration: &str,
    analyse: impl FnOnce() -> AnalysisMetrics,
) -> PrecisionRow {
    let start = Instant::now();
    let metrics = analyse();
    PrecisionRow {
        program,
        configuration: configuration.to_string(),
        metrics,
        wall: start.elapsed(),
    }
}

impl PrecisionRow {
    /// Renders the row in the fixed-width format used by the report binary.
    pub fn render(&self) -> String {
        format!(
            "{:<18} {:<14} states={:<5} bindings={:<5} facts={:<6} singletons={:<5}",
            self.program,
            self.configuration,
            self.metrics.distinct_states,
            self.metrics.store_bindings,
            self.metrics.store_facts,
            self.metrics.singleton_flows,
        )
    }
}

/// Runs the polyvariance sweep (experiment E2) for one program: 0CFA, 1CFA
/// and 2CFA with a shared store.
pub fn polyvariance_rows(name: &'static str, program: &CExp) -> Vec<PrecisionRow> {
    vec![
        timed_precision_row(name, "0CFA", || {
            AnalysisMetrics::of_shared(&analyse_mono(program))
        }),
        timed_precision_row(name, "1CFA", || {
            AnalysisMetrics::of_shared(&analyse_kcfa_shared::<1>(program))
        }),
        timed_precision_row(name, "2CFA", || {
            AnalysisMetrics::of_shared(&analyse_kcfa_shared::<2>(program))
        }),
    ]
}

/// Runs the GC experiment (E5) for one program: 1CFA with and without
/// abstract garbage collection.
pub fn gc_rows(name: &'static str, program: &CExp) -> Vec<PrecisionRow> {
    vec![
        timed_precision_row(name, "1CFA", || {
            AnalysisMetrics::of_shared(&analyse_kcfa_shared::<1>(program))
        }),
        timed_precision_row(name, "1CFA+GC", || {
            AnalysisMetrics::of_shared(&analyse_kcfa_shared_gc::<1>(program))
        }),
    ]
}

/// The number of abstract configurations explored by the heap-cloning
/// analysis versus the shared-store analysis (experiment E3).
pub fn cloning_vs_shared(program: &CExp) -> (usize, usize) {
    let cloned: mai_core::PerStateDomain<
        PState<KCallAddr>,
        mai_core::KCallCtx<1>,
        mai_cps::analysis::KStore,
    > = analyse_kcfa::<1>(program);
    let shared = analyse_kcfa_shared::<1>(program);
    (cloned.len(), shared.len())
}

/// The CPS corpus used by the experiments, restricted to sizes that finish
/// quickly enough for Criterion.
pub fn cps_corpus() -> Vec<(&'static str, CExp)> {
    mai_cps::programs::standard_corpus()
}

/// One row of the worklist-vs-Kleene comparison (experiment E8): the same
/// 1CFA shared-store analysis solved by naive Kleene iteration and by the
/// frontier-driven worklist engine, with step counts and wall-clock times.
#[derive(Debug, Clone)]
pub struct WorklistRow {
    /// The workload name.
    pub program: &'static str,
    /// How many times Kleene iteration invoked the step function.
    pub kleene_steps: usize,
    /// Wall-clock time of the Kleene solve.
    pub kleene_time: Duration,
    /// The engine's work statistics.
    pub stats: EngineStats,
    /// Wall-clock time of the worklist solve.
    pub worklist_time: Duration,
    /// Whether the two fixpoints were identical (they always must be).
    pub equal: bool,
    /// Whether [`certify`] accepts the worklist fixpoint.
    pub certified: bool,
}

impl WorklistRow {
    /// Renders the row in the fixed-width format used by the report binary.
    pub fn render(&self) -> String {
        let ratio = if self.stats.states_stepped > 0 {
            self.kleene_steps as f64 / self.stats.states_stepped as f64
        } else {
            f64::NAN
        };
        format!(
            "{:<18} kleene-steps={:<7} worklist-steps={:<6} step-ratio={:<5.1} \
             kleene={:<10.2?} worklist={:<10.2?} equal={} certified={}",
            self.program,
            self.kleene_steps,
            self.stats.states_stepped,
            ratio,
            self.kleene_time,
            self.worklist_time,
            self.equal,
            self.certified,
        )
    }
}

/// Runs the E8 comparison for one program: 1CFA with a shared store, solved
/// by `explore_fp` (instrumented to count step invocations) and by the
/// worklist engine.
pub fn worklist_row(name: &'static str, program: &CExp) -> WorklistRow {
    type Ctx = KCallCtx<1>;
    type M = StorePassing<Ctx, KStore>;

    let steps = Rc::new(Cell::new(0usize));
    let counter = Rc::clone(&steps);
    let counted = move |ps: PState<KCallAddr>| {
        counter.set(counter.get() + 1);
        mnext::<M, KCallAddr>(ps, ())
    };
    let start = Instant::now();
    let kleene: KCfaShared<1> = explore_fp::<M, _, _, _>(counted, PState::inject(program.clone()));
    let kleene_time = start.elapsed();

    let start = Instant::now();
    let (worklist, stats) = analyse::worklist::<KCfaShared<1>>(program, Gc::Off);
    let worklist_time = start.elapsed();

    WorklistRow {
        program: name,
        kleene_steps: steps.get(),
        kleene_time,
        stats,
        worklist_time,
        equal: worklist == kleene,
        certified: certified(&worklist),
    }
}

impl PrecisionRow {
    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.to_string())),
                ("configuration", Json::Str(self.configuration.clone())),
                (
                    "distinct_states",
                    Json::Int(self.metrics.distinct_states as u64),
                ),
                (
                    "store_bindings",
                    Json::Int(self.metrics.store_bindings as u64),
                ),
                ("store_facts", Json::Int(self.metrics.store_facts as u64)),
                (
                    "singleton_flows",
                    Json::Int(self.metrics.singleton_flows as u64),
                ),
            ]
            .into_iter()
            .chain(timing_fields(self.wall)),
        )
    }
}

impl WorklistRow {
    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.to_string())),
                ("kleene_steps", Json::Int(self.kleene_steps as u64)),
                ("kleene_ms", Json::Num(self.kleene_time.as_secs_f64() * 1e3)),
                ("engine", engine_stats_json(&self.stats)),
                (
                    "worklist_ms",
                    Json::Num(self.worklist_time.as_secs_f64() * 1e3),
                ),
                ("equal", Json::Bool(self.equal)),
                ("certified", Json::Bool(self.certified)),
            ]
            .into_iter()
            .chain(timing_fields(self.kleene_time + self.worklist_time)),
        )
    }
}

/// The width knob of the scaled k-CFA worst-case family measured by E10
/// (`kcfa_worst_case_scaled(n, E10_SCALE_WIDTH)` for n = 3..6): wide enough
/// that wall-clock differences between the engines dominate measurement
/// noise, small enough that the report stays fast.
pub const E10_SCALE_WIDTH: usize = 16;

/// One row of the E10 comparison: the same 1CFA shared-store analysis
/// solved by the id-indexed (hash-consed) engine and by the PR-2
/// structural-key incremental engine.
#[derive(Debug, Clone)]
pub struct InternedRow {
    /// The workload name (owned: the scaled worst-case family generates
    /// names like `kcfa-worst-4w16`).
    pub program: String,
    /// `(state, guts)` pairs in the fixpoint (identical for both engines).
    pub configurations: usize,
    /// Work statistics of the id-indexed engine, with the intern counters
    /// filled by the engine and `distinct_envs` filled at the language
    /// boundary.
    pub interned: EngineStats,
    /// Wall-clock time of the id-indexed solve.
    pub interned_time: Duration,
    /// Work statistics of the PR-2 structural-key engine.
    pub structural: EngineStats,
    /// Wall-clock time of the structural solve.
    pub structural_time: Duration,
    /// Whether the two fixpoints were identical (they always must be).
    pub equal: bool,
    /// Whether [`certify`] accepts the id-indexed fixpoint.
    pub certified: bool,
}

impl InternedRow {
    /// Wall-clock speedup of the id-indexed engine over the structural
    /// engine (>1 means interning won).
    pub fn speedup(&self) -> f64 {
        let interned = self.interned_time.as_secs_f64();
        if interned > 0.0 {
            self.structural_time.as_secs_f64() / interned
        } else {
            f64::NAN
        }
    }

    /// Renders the row in the fixed-width format used by the report binary.
    /// The headline column is the wall-clock speedup; the intern hit rate
    /// and the distinct state/env counts explain where it comes from, and
    /// `deps` sets the journaled read sets against the structural
    /// baseline's root closures (Σ |read set| over steps).
    pub fn render(&self) -> String {
        format!(
            "{:<18} states={:<6} envs={:<5} hit-rate={:<5.2} deps={}/{} \
             interned={:<10.2?} structural={:<10.2?} speedup={:<5.2} equal={} certified={}",
            self.program,
            self.interned.distinct_states,
            self.interned.distinct_envs,
            self.interned.intern_hit_rate(),
            self.interned.dep_edges,
            self.structural.dep_edges,
            self.interned_time,
            self.structural_time,
            self.speedup(),
            self.equal,
            self.certified,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                ("configurations", Json::Int(self.configurations as u64)),
                ("interned", engine_stats_json(&self.interned)),
                (
                    "interned_ms",
                    Json::Num(self.interned_time.as_secs_f64() * 1e3),
                ),
                ("structural", engine_stats_json(&self.structural)),
                (
                    "structural_ms",
                    Json::Num(self.structural_time.as_secs_f64() * 1e3),
                ),
                ("speedup", Json::Num(self.speedup())),
                ("equal", Json::Bool(self.equal)),
                ("certified", Json::Bool(self.certified)),
            ]
            .into_iter()
            .chain(timing_fields(self.interned_time + self.structural_time)),
        )
    }
}

/// Runs the E10 comparison for one program: 1CFA with a shared store,
/// solved by the id-indexed engine and by the PR-2 structural engine.  Both
/// solves are repeated `repeats` times (minimum taken) so the small corpus
/// programs produce stable wall-clock numbers.
pub fn interned_row(name: impl Into<String>, program: &CExp, repeats: usize) -> InternedRow {
    let repeats = repeats.max(1);
    let mut interned_time = Duration::MAX;
    let mut structural_time = Duration::MAX;
    let mut measured: Option<(KCfaShared<1>, EngineStats, KCfaShared<1>, EngineStats)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let (interned, interned_stats) = analyse::worklist::<KCfaShared<1>>(program, Gc::Off);
        interned_time = interned_time.min(start.elapsed());

        let start = Instant::now();
        let (structural, structural_stats) = analyse::structural::<KCfaShared<1>>(program, Gc::Off);
        structural_time = structural_time.min(start.elapsed());
        measured = Some((interned, interned_stats, structural, structural_stats));
    }
    let (interned, mut interned_stats, structural, structural_stats) =
        measured.expect("at least one repeat");
    interned_stats.distinct_envs = distinct_env_count(&interned);

    InternedRow {
        program: name.into(),
        configurations: interned.len(),
        interned: interned_stats,
        interned_time,
        structural: structural_stats,
        structural_time,
        equal: interned == structural,
        certified: certified(&interned),
    }
}

/// One row of the E11 comparison: the same 1CFA shared-store analysis on
/// the persistent (pmap) store spine, solved by the PR-3 interned engine on
/// the `Rc`-closure carrier and by the same engine on the direct-style
/// carrier (`mnext_direct`, no `Rc<dyn Fn>` per bind).
#[derive(Debug, Clone)]
pub struct DirectRow {
    /// The workload name.
    pub program: String,
    /// `(state, guts)` pairs in the fixpoint (identical for both carriers).
    pub configurations: usize,
    /// Work statistics of the `Rc`-carrier (PR-3 interned) solve.
    pub rc: EngineStats,
    /// Wall-clock time of the `Rc`-carrier solve.
    pub rc_time: Duration,
    /// Work statistics of the direct-carrier solve.  The *work* counters
    /// (steps, joins, spine clones) are identical to the `Rc` side by
    /// construction — the solver code is shared — which is itself asserted;
    /// only wall-clock differs.
    pub direct: EngineStats,
    /// Wall-clock time of the direct-carrier solve.
    pub direct_time: Duration,
    /// Whether the two fixpoints were identical (they always must be).
    pub equal: bool,
    /// Whether [`certify`] accepts the direct-carrier fixpoint.
    pub certified: bool,
}

impl DirectRow {
    /// Wall-clock speedup of the direct carrier over the `Rc` carrier
    /// (>1 means eliminating the per-bind `Rc` allocations won).
    pub fn speedup(&self) -> f64 {
        let direct = self.direct_time.as_secs_f64();
        if direct > 0.0 {
            self.rc_time.as_secs_f64() / direct
        } else {
            f64::NAN
        }
    }

    /// Renders the row in the fixed-width format used by the report binary.
    /// The headline column is the wall-clock speedup; the spine counters
    /// show the structural sharing both carriers now enjoy.
    pub fn render(&self) -> String {
        format!(
            "{:<18} states={:<6} clones={:<6} shared-bytes={:<8} deps={:<7} folded={:<7} \
             rc={:<10.2?} direct={:<10.2?} speedup={:<5.2} equal={} certified={}",
            self.program,
            self.direct.distinct_states,
            self.direct.spine_clones,
            self.direct.store_bytes_shared,
            self.direct.dep_edges,
            self.direct.branches_folded,
            self.rc_time,
            self.direct_time,
            self.speedup(),
            self.equal,
            self.certified,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                ("configurations", Json::Int(self.configurations as u64)),
                ("rc", engine_stats_json(&self.rc)),
                ("rc_ms", Json::Num(self.rc_time.as_secs_f64() * 1e3)),
                ("direct", engine_stats_json(&self.direct)),
                ("direct_ms", Json::Num(self.direct_time.as_secs_f64() * 1e3)),
                ("speedup", Json::Num(self.speedup())),
                ("equal", Json::Bool(self.equal)),
                ("certified", Json::Bool(self.certified)),
            ]
            .into_iter()
            .chain(timing_fields(self.rc_time + self.direct_time)),
        )
    }
}

/// Runs the E11 comparison for one program: 1CFA with a shared store,
/// solved by the PR-3 interned engine on both carriers.  Both solves are
/// repeated `repeats` times (minimum taken).
pub fn direct_row(name: impl Into<String>, program: &CExp, repeats: usize) -> DirectRow {
    let repeats = repeats.max(1);
    let mut rc_time = Duration::MAX;
    let mut direct_time = Duration::MAX;
    let mut measured: Option<(KCfaShared<1>, EngineStats, KCfaShared<1>, EngineStats)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let (rc, rc_stats) = analyse::worklist::<KCfaShared<1>>(program, Gc::Off);
        rc_time = rc_time.min(start.elapsed());

        let start = Instant::now();
        let (direct, direct_stats) = analyse::direct::<KCfaShared<1>>(program, Gc::Off);
        direct_time = direct_time.min(start.elapsed());
        measured = Some((rc, rc_stats, direct, direct_stats));
    }
    let (rc, rc_stats, direct, direct_stats) = measured.expect("at least one repeat");

    DirectRow {
        program: name.into(),
        configurations: direct.len(),
        rc: rc_stats,
        rc_time,
        direct: direct_stats,
        direct_time,
        equal: rc == direct,
        certified: certified(&direct),
    }
}

/// One row of the E12 comparison: the same 1CFA shared-store analysis
/// solved by the sequential direct engine and by the sharded parallel
/// driver at one thread count.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// The workload name.
    pub program: String,
    /// The worker thread count of the parallel solve.
    pub threads: usize,
    /// `(state, guts)` pairs in the fixpoint (identical for both drivers).
    pub configurations: usize,
    /// Work statistics of the sequential direct solve (the determinism
    /// oracle).
    pub direct: EngineStats,
    /// Wall-clock time of the sequential direct solve.
    pub direct_time: Duration,
    /// Work statistics of the parallel solve.  The deterministic work
    /// counters (steps, joins, rounds, widenings, intern traffic) are
    /// identical to the direct side by construction — asserted by
    /// [`parallel_row`] — and `sync_rounds`/`steal_events`/
    /// `shard_imbalance` describe the sharding itself.
    pub parallel: EngineStats,
    /// Wall-clock time of the parallel solve.
    pub parallel_time: Duration,
    /// Whether the two fixpoints were identical (they always must be).
    pub equal: bool,
}

impl ParallelRow {
    /// Wall-clock speedup of the parallel driver over the sequential
    /// direct engine (>1 means sharding won).
    pub fn speedup(&self) -> f64 {
        let parallel = self.parallel_time.as_secs_f64();
        if parallel > 0.0 {
            self.direct_time.as_secs_f64() / parallel
        } else {
            f64::NAN
        }
    }

    /// Renders the row in the fixed-width format used by the report
    /// binary.  The headline column is the wall-clock speedup; the sync/
    /// steal/imbalance counters describe how the sharding behaved.
    pub fn render(&self) -> String {
        format!(
            "{:<18} threads={:<2} states={:<6} syncs={:<4} steals={:<5} imbalance={:<5} \
             direct={:<10.2?} parallel={:<10.2?} speedup={:<5.2} equal={}",
            self.program,
            self.threads,
            self.parallel.distinct_states,
            self.parallel.sync_rounds,
            self.parallel.steal_events,
            self.parallel.shard_imbalance,
            self.direct_time,
            self.parallel_time,
            self.speedup(),
            self.equal,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json` (thread count
    /// recorded so rows at different counts stay distinct baselines).
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                ("threads", Json::Int(self.threads as u64)),
                ("configurations", Json::Int(self.configurations as u64)),
                ("direct", engine_stats_json(&self.direct)),
                ("direct_ms", Json::Num(self.direct_time.as_secs_f64() * 1e3)),
                ("parallel", engine_stats_json(&self.parallel)),
                (
                    "parallel_ms",
                    Json::Num(self.parallel_time.as_secs_f64() * 1e3),
                ),
                ("speedup", Json::Num(self.speedup())),
                ("equal", Json::Bool(self.equal)),
            ]
            .into_iter()
            .chain(timing_fields(self.direct_time + self.parallel_time)),
        )
    }
}

/// Runs the E12 comparison for one program at one thread count: 1CFA with
/// a shared store, solved by the sequential direct engine and by the
/// sharded parallel driver.  Both solves are repeated `repeats` times
/// (minimum taken), and the deterministic work counters are asserted to
/// agree between the drivers — the parallel engine must do the *same*
/// work, just spread across shards.
pub fn parallel_row(
    name: impl Into<String>,
    program: &CExp,
    threads: usize,
    repeats: usize,
) -> ParallelRow {
    let name = name.into();
    let repeats = repeats.max(1);
    let mut direct_time = Duration::MAX;
    let mut parallel_time = Duration::MAX;
    let mut measured: Option<(KCfaShared<1>, EngineStats, KCfaShared<1>, EngineStats)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let (direct, direct_stats) = analyse::direct::<KCfaShared<1>>(program, Gc::Off);
        direct_time = direct_time.min(start.elapsed());

        let start = Instant::now();
        let (parallel, parallel_stats) =
            solve_parallel(program, ParallelConfig::barrier(threads), &mut NoopSink);
        parallel_time = parallel_time.min(start.elapsed());
        measured = Some((direct, direct_stats, parallel, parallel_stats));
    }
    let (direct, direct_stats, parallel, parallel_stats) = measured.expect("at least one repeat");
    assert_eq!(
        (
            direct_stats.iterations,
            direct_stats.states_stepped,
            direct_stats.store_joins,
            direct_stats.store_joins_applied,
            direct_stats.widen_applied,
            direct_stats.spine_clones,
        ),
        (
            parallel_stats.iterations,
            parallel_stats.states_stepped,
            parallel_stats.store_joins,
            parallel_stats.store_joins_applied,
            parallel_stats.widen_applied,
            parallel_stats.spine_clones,
        ),
        "{name}: parallel driver diverged from the direct engine's work counters"
    );

    ParallelRow {
        program: name,
        threads,
        configurations: parallel.len(),
        direct: direct_stats,
        direct_time,
        parallel: parallel_stats,
        parallel_time,
        equal: direct == parallel,
    }
}

/// One row of the E13 telemetry profile: the sharded parallel driver
/// solved once untraced and once with the [`TraceBuffer`] sink attached,
/// at the same thread count.  Tracing is pure observation — the traced
/// solve must reproduce the untraced fixpoint and the *full*
/// [`EngineStats`] bit-for-bit, which [`telemetry_row`] asserts — and the
/// trace decomposes the wall-clock into per-round step/join/sync phases
/// and per-worker busy/barrier-wait spans.
#[derive(Debug)]
pub struct TelemetryRow {
    /// The workload name.
    pub program: String,
    /// The worker thread count of both solves.
    pub threads: usize,
    /// `(state, guts)` pairs in the fixpoint.
    pub configurations: usize,
    /// Work statistics (identical for the traced and untraced solves).
    pub stats: EngineStats,
    /// Wall-clock time of the untraced solve.
    pub untraced_time: Duration,
    /// Wall-clock time of the traced solve (the difference to
    /// `untraced_time` is the observation overhead).
    pub traced_time: Duration,
    /// The recorded trace.
    pub trace: TraceBuffer,
    /// Whether the traced and untraced fixpoints were identical (they
    /// always must be).
    pub equal: bool,
}

impl TelemetryRow {
    /// Renders the row in the fixed-width format used by the report
    /// binary: the wall-clock split into the three phases, plus the
    /// steal traffic the trace attributes.
    pub fn render(&self) -> String {
        let totals = self.trace.phase_totals();
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "{:<18} threads={:<2} rounds={:<4} step={:<8.3}ms join={:<8.3}ms sync={:<8.3}ms \
             steals={:<4} untraced={:<10.2?} traced={:<10.2?} equal={}",
            self.program,
            self.threads,
            self.trace.rounds.len(),
            ms(totals.step_ns),
            ms(totals.join_ns),
            ms(totals.sync_ns),
            self.trace.steals.len(),
            self.untraced_time,
            self.traced_time,
            self.equal,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.  Every
    /// trace field is reported-only: `--check-regress` gates none of it.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                ("threads", Json::Int(self.threads as u64)),
                ("configurations", Json::Int(self.configurations as u64)),
                ("engine", engine_stats_json(&self.stats)),
                (
                    "untraced_ms",
                    Json::Num(self.untraced_time.as_secs_f64() * 1e3),
                ),
                ("traced_ms", Json::Num(self.traced_time.as_secs_f64() * 1e3)),
                ("trace", engine_trace_json(&self.trace, PROFILE_TOP_K)),
                ("equal", Json::Bool(self.equal)),
            ]
            .into_iter()
            .chain(timing_fields(self.untraced_time + self.traced_time)),
        )
    }
}

/// Runs the E13 profile for one program at one thread count: 1CFA with a
/// shared store on the sharded parallel driver, untraced and traced.
/// Panics if tracing perturbs any deterministic work counter — the
/// telemetry layer's central guarantee.
pub fn telemetry_row(name: impl Into<String>, program: &CExp, threads: usize) -> TelemetryRow {
    let name = name.into();
    let start = Instant::now();
    let (untraced, untraced_stats) =
        solve_parallel(program, ParallelConfig::barrier(threads), &mut NoopSink);
    let untraced_time = start.elapsed();

    let mut trace = TraceBuffer::new();
    let start = Instant::now();
    let (traced, traced_stats) =
        solve_parallel(program, ParallelConfig::barrier(threads), &mut trace);
    let traced_time = start.elapsed();

    // The timing gauges legitimately differ between any two runs (traced or
    // not); every deterministic counter must agree.
    assert_eq!(
        untraced_stats.work(),
        traced_stats.work(),
        "{name}@t{threads}: tracing perturbed the engine's work counters"
    );
    TelemetryRow {
        program: name,
        threads,
        configurations: traced.len(),
        stats: traced_stats,
        untraced_time,
        traced_time,
        trace,
        equal: untraced == traced,
    }
}

/// One row of the E14 comparison: 1CFA with a shared store solved by the
/// sequential direct engine (the oracle), the barrier parallel driver and
/// the barrier-elastic driver at one `(threads, epochs)` point.
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// The workload name.
    pub program: String,
    /// The worker thread count of both parallel solves.
    pub threads: usize,
    /// The elastic epoch budget (`epochs = 1` is the barrier engine).
    pub epochs: usize,
    /// `(state, guts)` pairs in the fixpoint (identical for all drivers).
    pub configurations: usize,
    /// Work statistics of the sequential direct solve.
    pub direct: EngineStats,
    /// Minimum wall-clock of the direct solve.
    pub direct_time: Duration,
    /// Median wall-clock of the direct solve.
    pub direct_median: Duration,
    /// Work statistics of the barrier parallel solve.
    pub barrier: EngineStats,
    /// Minimum wall-clock of the barrier solve.
    pub barrier_time: Duration,
    /// Median wall-clock of the barrier solve.
    pub barrier_median: Duration,
    /// Work statistics of the elastic solve.  The elastic counters
    /// (`epochs_run`, `stale_merges`, memo and stripe traffic — and the
    /// step/join counts themselves) are **timing-dependent**: reported,
    /// never gated, never asserted equal to the barrier side.
    pub elastic: EngineStats,
    /// Minimum wall-clock of the elastic solve.
    pub elastic_time: Duration,
    /// Median wall-clock of the elastic solve.
    pub elastic_median: Duration,
    /// Share of worker time the barrier driver spent waiting at barriers
    /// (from a separate traced solve; observation only).
    pub barrier_wait_share: f64,
    /// Share of worker time the elastic driver spent waiting at barriers.
    pub elastic_wait_share: f64,
    /// Whether all three fixpoints were identical (they always must be).
    pub equal: bool,
}

impl ElasticRow {
    /// Wall-clock speedup of the elastic driver over the barrier driver
    /// at the same thread count (>1 means elasticity won).
    pub fn speedup_vs_barrier(&self) -> f64 {
        let elastic = self.elastic_time.as_secs_f64();
        if elastic > 0.0 {
            self.barrier_time.as_secs_f64() / elastic
        } else {
            f64::NAN
        }
    }

    /// Wall-clock speedup of the elastic driver over the sequential
    /// direct engine.
    pub fn speedup_vs_direct(&self) -> f64 {
        let elastic = self.elastic_time.as_secs_f64();
        if elastic > 0.0 {
            self.direct_time.as_secs_f64() / elastic
        } else {
            f64::NAN
        }
    }

    /// Renders the row in the fixed-width format used by the report
    /// binary.  The headline column is the elastic-vs-barrier speedup;
    /// the epoch/stale/memo counters describe how elastic the run was.
    pub fn render(&self) -> String {
        format!(
            "{:<18} threads={:<2} epochs={:<2} rounds={:<4} worker-epochs={:<5} stale={:<3} \
             memo-hit={:<5.2} wait={:<4.2}->{:<4.2} barrier={:<10.2?} elastic={:<10.2?} \
             speedup={:<5.2} equal={}",
            self.program,
            self.threads,
            self.epochs,
            self.elastic.sync_rounds,
            self.elastic.epochs_run,
            self.elastic.stale_merges,
            self.elastic.worker_cache_hit_rate(),
            self.barrier_wait_share,
            self.elastic_wait_share,
            self.barrier_time,
            self.elastic_time,
            self.speedup_vs_barrier(),
            self.equal,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.  Every
    /// field of this section is reported-only — the elastic counters are
    /// timing-dependent, so `--check-regress` gates none of it.
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                ("threads", Json::Int(self.threads as u64)),
                ("epochs", Json::Int(self.epochs as u64)),
                ("configurations", Json::Int(self.configurations as u64)),
                ("direct", engine_stats_json(&self.direct)),
                ("direct_ms", ms(self.direct_time)),
                ("direct_median_ms", ms(self.direct_median)),
                ("barrier", engine_stats_json(&self.barrier)),
                ("barrier_ms", ms(self.barrier_time)),
                ("barrier_median_ms", ms(self.barrier_median)),
                ("barrier_wait_share", Json::Num(self.barrier_wait_share)),
                ("elastic", engine_stats_json(&self.elastic)),
                ("elastic_ms", ms(self.elastic_time)),
                ("elastic_median_ms", ms(self.elastic_median)),
                ("elastic_wait_share", Json::Num(self.elastic_wait_share)),
                ("speedup_vs_barrier", Json::Num(self.speedup_vs_barrier())),
                ("speedup_vs_direct", Json::Num(self.speedup_vs_direct())),
                (
                    "median_wall_ms",
                    ms(self.direct_median + self.barrier_median + self.elastic_median),
                ),
                ("equal", Json::Bool(self.equal)),
            ]
            .into_iter()
            .chain(timing_fields(
                self.direct_time + self.barrier_time + self.elastic_time,
            )),
        )
    }
}

/// The share of total worker time a traced parallel solve spent waiting
/// (barrier/idle) rather than stepping, from the trace's per-worker
/// busy/wait totals.
fn trace_wait_share(trace: &TraceBuffer) -> f64 {
    let (busy, wait) = trace
        .worker_totals()
        .into_iter()
        .fold((0u64, 0u64), |(b, w), (_, _, _, busy, wait)| {
            (b + busy, w + wait)
        });
    if busy + wait == 0 {
        0.0
    } else {
        wait as f64 / (busy + wait) as f64
    }
}

/// Runs the E14 comparison for one program at one `(threads, epochs)`
/// point: the sequential direct oracle, the barrier driver and the
/// barrier-elastic driver, each repeated `repeats` times (minimum and
/// median wall-clock reported).  The three fixpoints must agree
/// byte-for-byte — that is the elastic driver's whole contract — but no
/// counter parity is asserted: elastic work counts are timing-dependent.
/// The barrier-wait decomposition comes from two extra traced solves so
/// observation overhead never pollutes the timed runs.
pub fn elastic_row(
    name: impl Into<String>,
    program: &CExp,
    threads: usize,
    epochs: usize,
    repeats: usize,
) -> ElasticRow {
    let name = name.into();
    let config = ParallelConfig { threads, epochs };
    let ((direct, direct_stats), direct_time, direct_median) = repeat_timed(repeats, || {
        analyse::direct::<KCfaShared<1>>(program, Gc::Off)
    });
    let ((barrier, barrier_stats), barrier_time, barrier_median) = repeat_timed(repeats, || {
        solve_parallel(program, ParallelConfig::barrier(threads), &mut NoopSink)
    });
    let ((elastic, elastic_stats), elastic_time, elastic_median) =
        repeat_timed(repeats, || solve_parallel(program, config, &mut NoopSink));

    let mut barrier_trace = TraceBuffer::new();
    let _ = solve_parallel(
        program,
        ParallelConfig::barrier(threads),
        &mut barrier_trace,
    );
    let mut elastic_trace = TraceBuffer::new();
    let _ = solve_parallel(program, config, &mut elastic_trace);

    ElasticRow {
        program: name,
        threads,
        epochs,
        configurations: elastic.len(),
        direct: direct_stats,
        direct_time,
        direct_median,
        barrier: barrier_stats,
        barrier_time,
        barrier_median,
        elastic: elastic_stats,
        elastic_time,
        elastic_median,
        barrier_wait_share: trace_wait_share(&barrier_trace),
        elastic_wait_share: trace_wait_share(&elastic_trace),
        equal: elastic == direct && barrier == direct,
    }
}

/// The defensive bound on E15 resume chains (each resumed link performs at
/// least one round of a finite abstract solve, so the chain terminates;
/// the bound only catches a seed-dropping regression).
const MAX_RESUME_LINKS: usize = 10_000;

/// One row of the E15 comparison: the same 1CFA shared-store analysis
/// solved classically, governed with an unlimited budget (parity must be
/// byte-identical), and governed with a step budget that is resumed to
/// completion.
#[derive(Debug, Clone)]
pub struct GovernedRow {
    /// The workload name.
    pub program: String,
    /// `(state, guts)` pairs in the fixpoint.
    pub configurations: usize,
    /// Work statistics of the classic direct solve (the oracle).
    pub direct: EngineStats,
    /// Work statistics of the governed solve under `Budget::unlimited()`.
    /// Must equal `direct` field-for-field: the governed solver *is* the
    /// implementation, and unlimited governance is free.
    pub governed: EngineStats,
    /// Whether the governed-off fixpoint *and* work counters were
    /// byte-identical to the classic solve.
    pub parity: bool,
    /// The step budget of the exhaustion/resume exercise.
    pub max_steps: usize,
    /// Why the first budgeted link stopped (`None`: it completed within
    /// the budget and no resume was needed).
    pub exhaust_reason: Option<ExhaustReason>,
    /// How many `Exhausted` partials were resumed before completion.
    pub resume_links: usize,
    /// Whether the resumed fixpoint equals the one-shot fixpoint.
    pub resumed_equal: bool,
    /// Whether [`certify`] accepts both the governed-off fixpoint and the
    /// fixpoint the resume chain ended on.
    pub certified: bool,
    /// Wall-clock time of the whole row (reported, never gated).
    pub wall: Duration,
}

impl GovernedRow {
    /// Renders the row in the fixed-width format used by the report binary.
    pub fn render(&self) -> String {
        format!(
            "{:<18} states={:<6} parity={:<5} max_steps={:<5} reason={:<9} resumes={:<4} \
             resumed_equal={:<5} certified={}",
            self.program,
            self.configurations,
            self.parity,
            self.max_steps,
            self.exhaust_reason.map_or("none", ExhaustReason::as_str),
            self.resume_links,
            self.resumed_equal,
            self.certified,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                ("configurations", Json::Int(self.configurations as u64)),
                ("direct", engine_stats_json(&self.direct)),
                ("governed", engine_stats_json(&self.governed)),
                ("parity", Json::Bool(self.parity)),
                ("max_steps", Json::Int(self.max_steps as u64)),
                (
                    "exhaust_reason",
                    Json::Str(
                        self.exhaust_reason
                            .map_or("none", ExhaustReason::as_str)
                            .to_string(),
                    ),
                ),
                ("resume_links", Json::Int(self.resume_links as u64)),
                ("resumed_equal", Json::Bool(self.resumed_equal)),
                ("certified", Json::Bool(self.certified)),
            ]
            .into_iter()
            .chain(timing_fields(self.wall)),
        )
    }
}

/// Runs the E15 exercise for one program: classic vs. governed-unlimited
/// parity, then a `max_steps`-budgeted solve resumed link by link onto the
/// one-shot fixpoint.  Everything measured here is deterministic (the
/// sequential governed engine has no timing-dependent counters), so the
/// row's `governed` counters and `resume_links` are regression-gated.
pub fn governed_row(name: impl Into<String>, program: &CExp, max_steps: usize) -> GovernedRow {
    let name = name.into();
    let start = Instant::now();
    let (direct, direct_stats) = analyse::direct::<KCfaShared<1>>(program, Gc::Off);
    let (unlimited, governed_stats) = analyse::governed::<KCfaShared<1>, _>(
        program,
        Gc::Off,
        None,
        &Budget::unlimited(),
        &mut NoopSink,
    );
    let parity =
        unlimited.is_complete() && *unlimited.value() == direct && governed_stats == direct_stats;

    let budget = Budget::unlimited().with_max_steps(max_steps);
    let (mut outcome, _) =
        analyse::governed::<KCfaShared<1>, _>(program, Gc::Off, None, &budget, &mut NoopSink);
    let exhaust_reason = outcome.exhaust_reason();
    let mut resume_links = 0usize;
    while let Outcome::Exhausted { resume_seed, .. } = outcome {
        resume_links += 1;
        assert!(
            resume_links <= MAX_RESUME_LINKS,
            "{name}: resume chain failed to converge"
        );
        outcome = analyse::governed::<KCfaShared<1>, _>(
            program,
            Gc::Off,
            Some(*resume_seed),
            &budget,
            &mut NoopSink,
        )
        .0;
    }
    let resumed = outcome.into_complete();
    let resumed_equal = resumed == direct;
    let certified = unlimited.is_complete() && certified(unlimited.value()) && certified(&resumed);

    GovernedRow {
        program: name,
        configurations: direct.len(),
        direct: direct_stats,
        governed: governed_stats,
        parity,
        max_steps,
        exhaust_reason,
        resume_links,
        resumed_equal,
        certified,
        wall: start.elapsed(),
    }
}

/// One row of the `--parallel-smoke` cancellation exercise: a governed
/// elastic solve with a token cancelled from a watchdog thread after
/// `cancel_after`.
#[derive(Debug, Clone)]
pub struct CancelLatencyRow {
    /// The workload name.
    pub program: String,
    /// Worker threads of the elastic solve.
    pub threads: usize,
    /// Epoch budget of the elastic solve.
    pub epochs: usize,
    /// How long the watchdog waited before cancelling.
    pub cancel_after: Duration,
    /// Total wall-clock until the solve returned.
    pub wall: Duration,
    /// Whether the solve returned `Exhausted(Cancelled)`.
    pub cancelled: bool,
    /// Whether the solve completed before the watchdog fired (a fast
    /// workload outrunning the timer is fine, not a failure).
    pub completed: bool,
    /// Rounds the solve ran before stopping.
    pub rounds: usize,
}

impl CancelLatencyRow {
    /// Whether the row describes a healthy governed solve: it either
    /// finished first or stopped *because* of the cancellation — anything
    /// else means the token was ignored.
    pub fn ok(&self) -> bool {
        self.completed || self.cancelled
    }

    /// The observed cancel latency: wall-clock past the watchdog's fire
    /// point (zero when the solve completed first).
    pub fn latency(&self) -> Duration {
        if self.completed {
            Duration::ZERO
        } else {
            self.wall.saturating_sub(self.cancel_after)
        }
    }

    /// Renders the row in the fixed-width format used by the report binary.
    pub fn render(&self) -> String {
        format!(
            "{:<18} threads={:<2} epochs={:<3} cancel_after={:<8.2?} wall={:<8.2?} \
             latency={:<8.2?} rounds={:<4} cancelled={} completed={}",
            self.program,
            self.threads,
            self.epochs,
            self.cancel_after,
            self.wall,
            self.latency(),
            self.rounds,
            self.cancelled,
            self.completed,
        )
    }
}

/// A program point of the E16 interval counting loop: `0` initialises the
/// counter cell, `1` is the loop head (exit or guarded increment), `2` is
/// the exit.  The loop head is the only reader of the cell, so it is the
/// only state the engines' widening-point selection can pick.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountState(pub u8);

impl mai_core::StateRoots for CountState {
    type Addr = u8;

    fn state_roots(&self) -> std::collections::BTreeSet<u8> {
        if self.0 == 1 {
            [0u8].into_iter().collect()
        } else {
            std::collections::BTreeSet::new()
        }
    }
}

/// The shared-store domain of the E16 workload: power-set of program
/// points over one interval store.
pub type WideningDomain =
    mai_core::SharedStoreDomain<CountState, u64, mai_core::store::IntervalStore<u8>>;

/// One non-deterministic branch of the E16 step: successor configuration
/// plus its result store.
pub type CountBranch = ((CountState, u64), mai_core::store::IntervalStore<u8>);

/// The E16 counting-loop step over the infinite-height interval domain:
/// `x := 0; while (cap: x < cap) { x := x + 1 }`.  Under plain join the
/// loop-head cell grows by one each round — `cap = None` is the latent
/// non-termination the governed engines' widening machinery repairs, and
/// `cap = Some(c)` is the chain-depth workload where join-only iteration
/// needs `Θ(c)` rounds while widening converges in `Θ(threshold)`.
pub fn counting_step(
    cap: Option<i64>,
) -> impl Fn(CountState, u64, mai_core::store::IntervalStore<u8>) -> Vec<CountBranch> + Sync {
    use mai_core::lattice::{Interval, Lattice, MeetLattice};
    use mai_core::store::StoreLike;
    move |ps, g, s| match ps.0 {
        0 => vec![((CountState(1), g), s.bind(0u8, Interval::singleton(0)))],
        1 => {
            let x = s.fetch(&0u8);
            let body = match cap {
                Some(c) => x.meet(Interval::at_most(c - 1)),
                None => x,
            };
            let mut branches = vec![((CountState(2), g), s.clone())];
            if !body.is_bottom() {
                let incremented = body + Interval::singleton(1);
                branches.push(((CountState(1), g), s.replace(0u8, incremented)));
            }
            branches
        }
        _ => vec![((ps, g), s)],
    }
}

/// The same loop on the `Rc`-closure carrier, desugared by
/// [`mai_core::monad::run_store_passing`] exactly as the language crates'
/// `mnext` is — the carrier-parity half of the E16 row.
fn m_counting_step(
    cap: Option<i64>,
) -> impl Fn(
    CountState,
) -> <StorePassing<u64, mai_core::store::IntervalStore<u8>> as mai_core::monad::MonadFamily>::M<
    CountState,
>{
    use mai_core::lattice::{Interval, Lattice, MeetLattice};
    use mai_core::monad::{MonadFamily, MonadPlus, MonadState, MonadTrans, StateT, VecM};
    use mai_core::store::StoreLike;
    type IS = mai_core::store::IntervalStore<u8>;
    type M = StorePassing<u64, IS>;
    move |ps| match ps.0 {
        0 => {
            let write = <M as MonadTrans>::lift(<StateT<IS, VecM> as MonadState<IS>>::modify(
                move |s: IS| s.bind(0u8, Interval::singleton(0)),
            ));
            M::bind(write, |_| M::pure(CountState(1)))
        }
        1 => {
            let fetched =
                <M as MonadTrans>::lift(<StateT<IS, VecM> as MonadState<IS>>::gets(|s: &IS| {
                    s.fetch(&0u8)
                }));
            M::bind(fetched, move |x: Interval| {
                let body = match cap {
                    Some(c) => x.meet(Interval::at_most(c - 1)),
                    None => x,
                };
                let exit = M::pure(CountState(2));
                if body.is_bottom() {
                    exit
                } else {
                    let incremented = body + Interval::singleton(1);
                    let write =
                        <M as MonadTrans>::lift(<StateT<IS, VecM> as MonadState<IS>>::modify(
                            move |s: IS| s.replace(0u8, incremented),
                        ));
                    M::mplus(exit, M::bind(write, |_| M::pure(CountState(1))))
                }
            })
        }
        _ => M::pure(ps),
    }
}

/// One row of the E16 comparison: the interval counting loop solved
/// join-only under a step budget (the unbounded variant must starve it),
/// then with engine widening points and the narrowing post-pass, on both
/// carriers plus the parallel and elastic drivers.
#[derive(Debug, Clone)]
pub struct WideningRow {
    /// The workload name.
    pub program: String,
    /// The loop guard (`None`: the counter is unbounded).
    pub cap: Option<i64>,
    /// `(state, guts)` pairs in the widened fixpoint.
    pub configurations: usize,
    /// Why the join-only budgeted solve stopped (`None`: the chain was
    /// shallow enough to complete within the budget).
    pub join_only_reason: Option<ExhaustReason>,
    /// Work statistics of the widened sequential governed solve.  Fully
    /// deterministic, so `states_stepped`, `store_joins_applied` and
    /// `widen_applied` are regression-gated.
    pub widened: EngineStats,
    /// The final loop-head counter bound (display form, e.g. `[0, +∞)`).
    pub bound: String,
    /// Addresses whose widened-then-narrowed image kept a finite bound —
    /// the precision the narrowing pass recovered (reported, not gated:
    /// more finite bounds is *better*).
    pub finite_bounds: usize,
    /// Whether the `Rc`-closure carrier produced the byte-identical
    /// outcome and work counters.
    pub carrier_parity: bool,
    /// Whether the barrier-parallel driver reproduced the fixpoint and
    /// every deterministic counter at `threads` workers.
    pub parallel_parity: bool,
    /// Whether the elastic driver reproduced the fixpoint (its widening
    /// counters are timing-dependent and deliberately unchecked).  On
    /// this single-cell workload the fixpoint itself is
    /// schedule-independent — see the derivation at the parity solve —
    /// which is what licenses asserting byte-equality for a driver whose
    /// widening points are otherwise timing-dependent.
    pub elastic_parity: bool,
    /// Worker threads of the parallel/elastic parity solves.
    pub threads: usize,
    /// Whether [`certify`] accepts the widened-and-narrowed sequential
    /// fixpoint as a post-fixpoint of the direct step.
    pub certified: bool,
    /// Wall-clock time of the whole row (reported, never gated).
    pub wall: Duration,
}

impl WideningRow {
    /// Renders the row in the fixed-width format used by the report binary.
    pub fn render(&self) -> String {
        format!(
            "{:<18} cap={:<6} join_only={:<11} widens={:<3} bound={:<9} carrier={:<5} \
             parallel={:<5} elastic={:<5} certified={}",
            self.program,
            self.cap.map_or("none".to_string(), |c| c.to_string()),
            self.join_only_reason
                .map_or("complete", ExhaustReason::as_str),
            self.widened.widen_applied,
            self.bound,
            self.carrier_parity,
            self.parallel_parity,
            self.elastic_parity,
            self.certified,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            [
                ("program", Json::Str(self.program.clone())),
                (
                    "cap",
                    self.cap
                        .map_or(Json::Str("none".to_string()), |c| Json::Int(c as u64)),
                ),
                ("configurations", Json::Int(self.configurations as u64)),
                (
                    "join_only_reason",
                    Json::Str(
                        self.join_only_reason
                            .map_or("complete", ExhaustReason::as_str)
                            .to_string(),
                    ),
                ),
                ("widened", engine_stats_json(&self.widened)),
                ("bound", Json::Str(self.bound.clone())),
                ("finite_bounds", Json::Int(self.finite_bounds as u64)),
                ("carrier_parity", Json::Bool(self.carrier_parity)),
                ("parallel_parity", Json::Bool(self.parallel_parity)),
                ("elastic_parity", Json::Bool(self.elastic_parity)),
                ("threads", Json::Int(self.threads as u64)),
                ("certified", Json::Bool(self.certified)),
            ]
            .into_iter()
            .chain(timing_fields(self.wall)),
        )
    }
}

/// Runs the E16 exercise for one counting-loop variant: a join-only solve
/// under `step_budget` (recording whether it starved), then the widened
/// solve (`WidenPolicy::after_growths(3)`, two narrowing passes) on the
/// direct carrier, the `Rc` carrier, the barrier-parallel driver and the
/// elastic driver.  Everything except the parity solves' wall-clock is
/// deterministic.
pub fn widening_row(
    name: impl Into<String>,
    cap: Option<i64>,
    step_budget: usize,
    threads: usize,
) -> WideningRow {
    use mai_core::engine::WidenPolicy;
    use mai_core::monad::run_store_passing;
    use mai_core::store::StoreLike;
    use mai_core::{DirectCollecting, ParallelCollecting, SolveFrom};
    type IS = mai_core::store::IntervalStore<u8>;
    let name = name.into();
    let start = Instant::now();
    let step = counting_step(cap);

    let fuel = Budget::unlimited().with_max_steps(step_budget);
    let (join_only, _) =
        <WideningDomain as DirectCollecting<CountState, u64, IS>>::explore_frontier_governed(
            &step,
            SolveFrom::Fresh(CountState(0)),
            &fuel,
        );
    let join_only_reason = join_only.exhaust_reason();

    let widened_budget = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
    let (outcome, widened_stats) =
        <WideningDomain as DirectCollecting<CountState, u64, IS>>::explore_frontier_governed(
            &step,
            SolveFrom::Fresh(CountState(0)),
            &widened_budget,
        );
    let fixpoint = outcome.into_complete();
    let bound = fixpoint.store().fetch(&0u8).to_string();
    let finite_bounds = fixpoint.store().finite_bound_count();
    let certified = certify(&fixpoint, &step).certified();

    let m_step = m_counting_step(cap);
    let rc_step = move |ps: CountState, g: u64, s: IS| run_store_passing(m_step(ps), g, s);
    let (rc_outcome, rc_stats) =
        <WideningDomain as DirectCollecting<CountState, u64, IS>>::explore_frontier_governed(
            &rc_step,
            SolveFrom::Fresh(CountState(0)),
            &widened_budget,
        );
    let carrier_parity =
        rc_outcome.is_complete() && *rc_outcome.value() == fixpoint && rc_stats == widened_stats;

    let (outcome, stats) = <WideningDomain as ParallelCollecting<CountState, u64, IS>>::
        explore_frontier_parallel_governed(
            &step,
            SolveFrom::Fresh(CountState(0)),
            ParallelConfig::barrier(threads),
            &widened_budget,
        );
    let parallel_parity = outcome.is_complete()
        && *outcome.value() == fixpoint
        && (
            stats.states_stepped,
            stats.store_joins_applied,
            stats.widen_applied,
        ) == (
            widened_stats.states_stepped,
            widened_stats.store_joins_applied,
            widened_stats.widen_applied,
        );

    // Byte-equality is deliberate here even though elastic widening-point
    // selection is timing-dependent: on this workload it is deterministic.
    // The loop has a single interval cell whose lower bound never grows
    // (every contribution is ⊒ [0, ..] once state 0's init lands) and
    // whose upper bound grows every merge until widened, so *any*
    // merge/point schedule drives the cell to exactly [0, +∞); the state
    // set {0, 1, 2} is schedule-independent; and the narrowing pass is a
    // pure function of that final pair.  A multi-cell workload would not
    // support this assertion — elastic runs there are only guaranteed a
    // sound post-fixpoint, not the sequential engines' bytes.
    let (outcome, _) = <WideningDomain as ParallelCollecting<CountState, u64, IS>>::
        explore_frontier_parallel_governed(
            &step,
            SolveFrom::Fresh(CountState(0)),
            ParallelConfig { threads, epochs: 2 },
            &widened_budget,
        );
    let elastic_parity = outcome.is_complete() && *outcome.value() == fixpoint;

    WideningRow {
        program: name,
        cap,
        configurations: fixpoint.len(),
        join_only_reason,
        widened: widened_stats,
        bound,
        finite_bounds,
        carrier_parity,
        parallel_parity,
        elastic_parity,
        threads,
        certified,
        wall: start.elapsed(),
    }
}

/// Runs one governed elastic solve with a watchdog thread cancelling the
/// budget's token after `cancel_after`.  The solve must either complete
/// first or stop with `Exhausted(Cancelled)` — the row's [`CancelLatencyRow::ok`]
/// is the `--parallel-smoke` gate.
pub fn cancel_latency_row(
    name: impl Into<String>,
    program: &CExp,
    threads: usize,
    epochs: usize,
    cancel_after: Duration,
) -> CancelLatencyRow {
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(token.clone());
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(cancel_after);
        token.cancel();
    });
    let start = Instant::now();
    let (outcome, stats) = analyse::parallel::<KCfaShared<1>, _>(
        program,
        Gc::Off,
        ParallelConfig { threads, epochs },
        &budget,
        &mut NoopSink,
    );
    let wall = start.elapsed();
    let _ = watchdog.join();
    CancelLatencyRow {
        program: name.into(),
        threads,
        epochs,
        cancel_after,
        wall,
        cancelled: outcome.exhaust_reason() == Some(ExhaustReason::Cancelled),
        completed: outcome.is_complete(),
        rounds: stats.iterations,
    }
}

/// One program family of the E17 scaling curve.  Each follows one
/// perfbench workload past its ladder, from the front end (source text
/// where the language has a parser) through the direct solve to a query
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingFamily {
    /// Identity nesting `((λ (y) y) ((λ (y) y) … (λ (x) x)))` under 0CFA,
    /// parsed from source text; `size` is the nesting depth.
    LambdaIdentity,
    /// The same identity nesting under 0CFA with abstract GC.
    LambdaIdentityGc,
    /// [`kcfa_worst_case_scaled`](mai_cps::programs::kcfa_worst_case_scaled)
    /// at depth [`E17_LANES_DEPTH`] under 1-CFA, rendered and re-parsed;
    /// `size` is the lane count.
    CpsLanes,
    /// FJ [`nested_cells`](mai_fj::programs::nested_cells) under 1-CFA with
    /// abstract GC, typechecked; `size` is the cell count.
    FjCells,
}

/// The depth of every E17 lanes program (perfbench's `cps-lanes` depth).
pub const E17_LANES_DEPTH: usize = 12;

impl ScalingFamily {
    /// Every family, in report order.
    pub const ALL: [ScalingFamily; 4] = [
        ScalingFamily::LambdaIdentity,
        ScalingFamily::LambdaIdentityGc,
        ScalingFamily::CpsLanes,
        ScalingFamily::FjCells,
    ];

    /// The family's name, the prefix of its rows' `program` keys.
    pub fn name(self) -> &'static str {
        match self {
            ScalingFamily::LambdaIdentity => "lambda-identity",
            ScalingFamily::LambdaIdentityGc => "lambda-identity-gc",
            ScalingFamily::CpsLanes => "cps-lanes",
            ScalingFamily::FjCells => "fj-cells",
        }
    }

    /// The family a row's `family` field names.
    pub fn by_name(name: &str) -> Option<ScalingFamily> {
        Self::ALL.into_iter().find(|family| family.name() == name)
    }

    /// Whether the family's rows are [`certify`]d: the GC-free ones.  On a
    /// GC'd fixpoint `certify` re-runs the full reachability sweep per
    /// branch, which is quadratic in program depth (the `with_state_gc`
    /// write filter is the engines' only).
    pub fn certifiable(self) -> bool {
        matches!(
            self,
            ScalingFamily::LambdaIdentity | ScalingFamily::CpsLanes
        )
    }

    /// The program sizes of the curve, smallest first.
    pub fn sizes(self) -> &'static [usize] {
        match self {
            ScalingFamily::LambdaIdentity | ScalingFamily::LambdaIdentityGc => {
                &[250, 500, 1_000, 2_000, 4_000, 8_000]
            }
            ScalingFamily::CpsLanes => &[25, 50, 100, 200],
            ScalingFamily::FjCells => &[40, 80, 160, 320, 640, 1_280],
        }
    }
}

/// One row of the E17 scaling curve: one program of a family, source to
/// answer.  The times are the best of the row's repeats, phase by phase.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// The family.
    pub family: ScalingFamily,
    /// The program size (see [`ScalingFamily`]).
    pub size: usize,
    /// `(state, guts)` pairs in the fixpoint.
    pub configurations: usize,
    /// The query answer: flow facts (plus result classes for FJ).
    pub flow_facts: usize,
    /// Work statistics of the direct solve.
    pub stats: EngineStats,
    /// The front end: parsing (λ, CPS) or typechecking (FJ).
    pub front: Duration,
    /// The direct solve.
    pub solve: Duration,
    /// The query over the fixpoint.
    pub query: Duration,
    /// The log-log slope of [`ScalingRow::total`] against configurations
    /// since the family's previous row; `None` on its first row.
    pub exponent: Option<f64>,
    /// Whether [`certify`] accepts the fixpoint, run once and untimed;
    /// `None` for the families that are not
    /// [certifiable](ScalingFamily::certifiable).
    pub certified: Option<bool>,
}

impl ScalingRow {
    /// The row's key in the report: family name and size.
    pub fn program(&self) -> String {
        format!("{}-{}", self.family.name(), self.size)
    }

    /// Front end, solve and query together.
    pub fn total(&self) -> Duration {
        self.front + self.solve + self.query
    }

    /// Renders the row in the fixed-width format used by the report binary.
    pub fn render(&self) -> String {
        let exponent = self
            .exponent
            .map_or_else(|| "-".to_string(), |e| format!("{e:.2}"));
        let certified = self
            .certified
            .map_or_else(|| "-".to_string(), |c| c.to_string());
        format!(
            "{:<23} configs={:<6} stepped={:<6} deps={:<7} folded={:<7} gc-visited={:<7} \
             front={:<10.2?} solve={:<10.2?} query={:<10.2?} exponent={:<5} certified={}",
            self.program(),
            self.configurations,
            self.stats.states_stepped,
            self.stats.dep_edges,
            self.stats.branches_folded,
            self.stats.gc_filter_visited,
            self.front,
            self.solve,
            self.query,
            exponent,
            certified,
        )
    }

    /// The JSON rendering of the row for `BENCH_report.json`.
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
        Json::obj(
            [
                ("program", Json::Str(self.program())),
                ("family", Json::Str(self.family.name().to_string())),
                ("size", Json::Int(self.size as u64)),
                ("configurations", Json::Int(self.configurations as u64)),
                ("flow_facts", Json::Int(self.flow_facts as u64)),
                ("engine", engine_stats_json(&self.stats)),
                ("front_ms", ms(self.front)),
                ("solve_ms", ms(self.solve)),
                ("query_ms", ms(self.query)),
                ("exponent", Json::Num(self.exponent.unwrap_or(f64::NAN))),
            ]
            .into_iter()
            .chain(self.certified.map(|c| ("certified", Json::Bool(c))))
            .chain(timing_fields(self.total())),
        )
    }
}

/// `f`'s result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// What one source-to-answer pass measured.
struct ScalingPass {
    configurations: usize,
    flow_facts: usize,
    stats: EngineStats,
    /// Front end, solve and query.
    times: [Duration; 3],
    /// The [`certify`] verdict, when the pass was asked for one.
    certified: Option<bool>,
}

/// One source-to-answer pass.  Building the input, [`certify`] (run when
/// `certify_fixpoint` is set and the family is
/// [certifiable](ScalingFamily::certifiable)) and dropping the program and
/// the fixpoint are not timed.
fn scaling_pass(family: ScalingFamily, size: usize, certify_fixpoint: bool) -> ScalingPass {
    let certify_fixpoint = certify_fixpoint && family.certifiable();
    match family {
        ScalingFamily::LambdaIdentity | ScalingFamily::LambdaIdentityGc => {
            let source = format!(
                "{}(λ (x) x){}",
                "((λ (y) y) ".repeat(size),
                ")".repeat(size)
            );
            let gc = if family == ScalingFamily::LambdaIdentityGc {
                Gc::On
            } else {
                Gc::Off
            };
            let (term, front) =
                timed(|| mai_lambda::parse_term(&source).expect("identity nesting parses"));
            let ((fp, stats), solve) =
                timed(|| analyse::direct::<mai_lambda::analysis::MonoCeskShared>(&term, gc));
            let (facts, query) = timed(|| {
                let flows = mai_lambda::flow_map_of_store(fp.store());
                mai_lambda::abstract_errors(fp.states().iter().map(|(ps, _)| ps));
                flows.values().map(BTreeSet::len).sum()
            });
            type Store = BasicStore<MonoAddr, Storable<MonoAddr>>;
            let certified = certify_fixpoint.then(|| {
                certify(&fp, &mai_lambda::direct::mnext_direct::<MonoCtx, Store>).certified()
            });
            ScalingPass {
                configurations: fp.len(),
                flow_facts: facts,
                stats,
                times: [front, solve, query],
                certified,
            }
        }
        ScalingFamily::CpsLanes => {
            let source =
                mai_cps::programs::kcfa_worst_case_scaled(E17_LANES_DEPTH, size).to_string();
            let (program, front) =
                timed(|| mai_cps::parse_program(&source).expect("rendered lanes parse"));
            let ((fp, stats), solve) =
                timed(|| analyse::direct::<KCfaShared<1>>(&program, Gc::Off));
            let (facts, query) = timed(|| {
                let flows = mai_cps::flow_map_of_store(fp.store());
                mai_cps::abstract_errors(fp.states().iter().map(|(ps, _)| ps));
                flows.values().map(BTreeSet::len).sum()
            });
            ScalingPass {
                configurations: fp.len(),
                flow_facts: facts,
                stats,
                times: [front, solve, query],
                certified: certify_fixpoint.then(|| certified(&fp)),
            }
        }
        ScalingFamily::FjCells => {
            let program = mai_fj::programs::nested_cells(size);
            let (_, front) =
                timed(|| mai_fj::check_program(&program).expect("nested cells typecheck"));
            let ((fp, stats), solve) =
                timed(|| analyse::direct::<mai_fj::analysis::KFjShared<1>>(&program, Gc::On));
            let (facts, query) = timed(|| {
                let results = mai_fj::result_classes(&fp);
                let flows = mai_fj::class_flow_map(fp.store());
                mai_fj::abstract_errors(fp.states().iter().map(|(ps, _)| ps));
                flows.values().map(BTreeSet::len).sum::<usize>() + results.len()
            });
            ScalingPass {
                configurations: fp.len(),
                flow_facts: facts,
                stats,
                times: [front, solve, query],
                certified: None,
            }
        }
    }
}

/// How long an E17 row keeps repeating: once its passes took this long it
/// stops, so the small rows, whose times are the noisiest, get the most
/// passes and the largest rows run once.
const E17_PASS_BUDGET: Duration = Duration::from_secs(1);

/// Runs one E17 row up to `repeats` times (at least once, and no more once
/// the passes took a second), keeping each phase's best time; the first
/// pass also [`certify`]s the fixpoint of a certifiable family, outside
/// the timed phases.  `previous` is the family's previous row, against
/// which the row fits its exponent.
pub fn scaling_row(
    family: ScalingFamily,
    size: usize,
    repeats: usize,
    previous: Option<&ScalingRow>,
) -> ScalingRow {
    let mut best = [Duration::MAX; 3];
    let mut measured: Option<ScalingPass> = None;
    let mut certified = None;
    let started = Instant::now();
    for _ in 0..repeats.max(1) {
        let pass = scaling_pass(family, size, measured.is_none());
        for (best, time) in best.iter_mut().zip(pass.times) {
            *best = (*best).min(time);
        }
        certified = certified.or(pass.certified);
        measured = Some(pass);
        if started.elapsed() >= E17_PASS_BUDGET {
            break;
        }
    }
    let ScalingPass {
        configurations,
        flow_facts,
        stats,
        ..
    } = measured.expect("at least one repeat");
    let [front, solve, query] = best;
    let mut row = ScalingRow {
        family,
        size,
        configurations,
        flow_facts,
        stats,
        front,
        solve,
        query,
        exponent: None,
        certified,
    };
    row.exponent = previous.map(|prev| {
        (row.total().as_secs_f64() / prev.total().as_secs_f64()).ln()
            / (row.configurations as f64 / prev.configurations as f64).ln()
    });
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governed_rows_hold_parity_and_resume_onto_the_fixpoint() {
        let program = mai_cps::programs::kcfa_worst_case(2);
        let row = governed_row("kcfa-worst-2", &program, 8);
        assert!(row.parity, "governed-off parity broke: {}", row.render());
        assert!(row.resumed_equal, "resume diverged: {}", row.render());
        // A budget of 8 steps genuinely bites on this workload.
        assert_eq!(row.exhaust_reason, Some(ExhaustReason::StepBudget));
        assert!(row.resume_links > 0);
        let json = row.to_json().render();
        assert!(json.contains("\"resume_links\""));
        assert!(json.contains("\"parity\""));
        // A generous budget completes in one link.
        let easy = governed_row("kcfa-worst-2", &program, usize::MAX);
        assert_eq!(easy.exhaust_reason, None);
        assert_eq!(easy.resume_links, 0);
    }

    #[test]
    fn widening_rows_certify_the_narrowed_fixpoint() {
        for cap in [None, Some(12)] {
            let row = widening_row("count", cap, 64, 2);
            assert!(row.certified, "uncertified: {}", row.render());
            assert!(matches!(
                row.to_json().get("certified"),
                Some(Json::Bool(true))
            ));
        }
    }

    #[test]
    fn cancel_rows_report_a_cancelled_or_completed_solve() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        // Zero delay: the token is cancelled effectively immediately, so
        // the solve is cut short (or, degenerately, wins the race).
        let row = cancel_latency_row("kcfa-worst-2w3", &program, 2, 4, Duration::ZERO);
        assert!(row.ok(), "cancel token ignored: {}", row.render());
        assert!(!row.render().is_empty());
    }

    #[test]
    fn elastic_rows_agree_and_record_epochs() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        for (threads, epochs) in [(1usize, 1usize), (2, 4)] {
            let row = elastic_row("kcfa-worst-2w3", &program, threads, epochs, 2);
            assert!(row.equal, "elastic/barrier/direct fixpoints differ");
            assert_eq!((row.threads, row.epochs), (threads, epochs));
            assert_eq!(row.configurations, row.elastic.distinct_states);
            if epochs > 1 {
                // The elastic machinery actually engaged: epochs ran and
                // the per-worker memo saw traffic.
                assert!(row.elastic.epochs_run >= row.elastic.sync_rounds);
                assert!(row.elastic.worker_cache_hits + row.elastic.worker_cache_misses > 0);
            } else {
                assert_eq!(row.elastic.epochs_run, 0, "epochs=1 delegates to barrier");
            }
            let json = row.to_json().render();
            assert!(json.contains("\"epochs\""));
            assert!(json.contains("\"median_wall_ms\""));
            assert!(json.contains("\"worker_cache_hit_rate\""));
            assert!(json.contains("\"speedup_vs_barrier\""));
            assert!(!row.render().is_empty());
        }
    }

    #[test]
    fn repeat_timed_reports_min_and_median() {
        let mut calls = 0usize;
        let (value, min, median) = repeat_timed(5, || {
            calls += 1;
            calls
        });
        assert_eq!(value, 5);
        assert_eq!(calls, 5);
        assert!(min <= median);
    }

    #[test]
    fn rows_render_and_cover_the_corpus() {
        for (name, program) in cps_corpus() {
            let rows = polyvariance_rows(name, &program);
            assert_eq!(rows.len(), 3);
            for row in &rows {
                assert!(!row.render().is_empty());
            }
        }
    }

    #[test]
    fn cloning_explores_at_least_as_many_configurations_as_sharing() {
        let program = mai_cps::programs::id_chain(4);
        let (cloned, shared) = cloning_vs_shared(&program);
        assert!(cloned >= 1);
        assert!(shared >= 1);
    }

    #[test]
    fn gc_rows_report_no_more_facts_than_plain_rows() {
        let program = mai_cps::programs::garbage_chain(4);
        let rows = gc_rows("garbage-chain-4", &program);
        assert!(rows[1].metrics.store_facts <= rows[0].metrics.store_facts);
    }

    #[test]
    fn interned_rows_agree_and_report_interning() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        let row = interned_row("kcfa-worst-2w3", &program, 2);
        assert!(row.equal, "interned and structural fixpoints differ");
        // Same frontier strategy, tighter read sets: the id-indexed engine
        // never steps or folds more than the structural engine.
        assert!(
            row.interned.states_stepped <= row.structural.states_stepped,
            "{}",
            row.render()
        );
        assert!(row.interned.store_joins <= row.structural.store_joins);
        // The id-indexed engine actually interned: every configuration got
        // an id, and repeat sightings were hits.
        assert_eq!(row.interned.distinct_states, row.configurations);
        assert!(row.interned.intern_hits > 0);
        assert!(row.interned.distinct_envs > 0);
        assert!(row.interned.distinct_envs <= row.configurations);
        // The structural baseline does not intern.
        assert_eq!(row.structural.intern_misses, 0);
        let json = row.to_json().render();
        assert!(json.contains("\"intern_hit_rate\""));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn direct_rows_agree_and_do_identical_work() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        let row = direct_row("kcfa-worst-2w3", &program, 2);
        assert!(row.equal, "direct and Rc-carrier fixpoints differ");
        // The solver is shared between the carriers, so every work counter
        // must agree bit-for-bit; only wall-clock may differ.
        assert_eq!(row.rc.states_stepped, row.direct.states_stepped);
        assert_eq!(row.rc.store_joins, row.direct.store_joins);
        assert_eq!(row.rc.spine_clones, row.direct.spine_clones);
        assert_eq!(row.rc.store_joins_applied, row.direct.store_joins_applied);
        assert_eq!(row.rc.widen_applied, row.direct.widen_applied);
        assert_eq!(row.rc.dep_edges, row.direct.dep_edges);
        // The persistent spine actually shares structure with the caches.
        assert!(row.direct.spine_clones > 0);
        assert!(row.direct.store_bytes_shared > 0);
        let json = row.to_json().render();
        assert!(json.contains("\"spine_clones\""));
        assert!(json.contains("\"store_bytes_shared\""));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn parallel_rows_agree_and_record_threads() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        for threads in [1usize, 2] {
            let row = parallel_row("kcfa-worst-2w3", &program, threads, 2);
            assert!(row.equal, "parallel and direct fixpoints differ");
            assert_eq!(row.threads, threads);
            // Deterministic work counters must match the direct oracle
            // (parallel_row itself asserts the core set; spot-check more).
            assert_eq!(row.parallel.cache_hits, row.direct.cache_hits);
            assert_eq!(row.parallel.reenqueued, row.direct.reenqueued);
            assert_eq!(row.parallel.intern_misses, row.direct.intern_misses);
            // The parallel driver syncs once per round; the sequential
            // engine never syncs.
            assert_eq!(row.parallel.sync_rounds, row.parallel.iterations);
            assert_eq!(row.direct.sync_rounds, 0);
            let json = row.to_json().render();
            assert!(json.contains("\"threads\""));
            assert!(json.contains("\"sync_rounds\""));
            assert!(json.contains("\"steal_events\""));
            assert!(json.contains("\"speedup\""));
        }
    }

    #[test]
    fn every_row_kind_reports_wall_ms_and_host_cpus() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        let jsons = vec![
            polyvariance_rows("kcfa-worst-2w3", &program)[0].to_json(),
            worklist_row("kcfa-worst-2w3", &program).to_json(),
            interned_row("kcfa-worst-2w3", &program, 1).to_json(),
            direct_row("kcfa-worst-2w3", &program, 1).to_json(),
            parallel_row("kcfa-worst-2w3", &program, 2, 1).to_json(),
            telemetry_row("kcfa-worst-2w3", &program, 2).to_json(),
        ];
        for json in jsons {
            assert!(
                json.get("wall_ms").and_then(Json::as_f64).is_some(),
                "row misses wall_ms: {}",
                json.render()
            );
            assert_eq!(
                json.get("host_cpus").and_then(Json::as_u64),
                Some(host_cpus() as u64),
                "row misses host_cpus: {}",
                json.render()
            );
        }
    }

    #[test]
    fn telemetry_rows_trace_without_perturbing_the_solve() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        // telemetry_row itself asserts EngineStats equality between the
        // traced and untraced solves; `equal` covers the fixpoint.
        let row = telemetry_row("kcfa-worst-2w3", &program, 2);
        assert!(row.equal, "traced fixpoint differs from untraced");
        assert_eq!(row.trace.rounds.len(), row.stats.iterations);
        // Every round stepped something and the worker spans cover every
        // round (two workers joined per sync round).
        assert!(row.trace.rounds.iter().all(|r| r.stepped > 0));
        assert!(!row.trace.workers.is_empty());
        let processed: usize = row.trace.workers.iter().map(|s| s.processed).sum();
        assert_eq!(processed, row.stats.states_stepped);
        // The trace attributes step cost and join traffic to real labels.
        assert!(!row.trace.top_states(4).is_empty());
        assert!(!row.trace.top_addresses(4).is_empty());
        let json = row.to_json().render();
        assert!(json.contains("\"phase_totals\""));
        assert!(json.contains("\"hot_states\""));
        // The Chrome export parses and carries all three phase categories.
        let chrome = Json::parse(&row.trace.chrome_trace_json()).expect("chrome trace parses");
        let events = chrome.get("traceEvents").expect("traceEvents").items();
        for cat in ["step", "join", "worker"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("cat").and_then(Json::as_str) == Some(cat)),
                "no {cat} slice in the Chrome export"
            );
        }
    }

    #[test]
    fn worklist_rows_agree_and_step_less() {
        let program = mai_cps::programs::kcfa_worst_case(2);
        let row = worklist_row("kcfa-worst-2", &program);
        assert!(row.equal, "worklist and Kleene fixpoints differ");
        assert!(
            row.stats.states_stepped < row.kleene_steps,
            "expected fewer worklist steps: {}",
            row.render()
        );
        assert!(!row.render().is_empty());
    }
}
