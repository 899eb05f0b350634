//! The three workloads: their program ladders, the timed source→answer
//! operation, and the checked, traced deep run of one program.

use std::collections::BTreeSet;
use std::time::Instant;

use mai_core::addr::HasInitial;
use mai_core::engine::{
    explore_worklist_direct_traced_stats, with_state_gc, Budget, ParallelConfig,
};
use mai_core::store::{BasicStore, StoreLike};
use mai_core::telemetry::TraceBuffer;
use mai_core::{EngineStats, KCallCtx, MonoAddr, MonoCtx};
use mai_fj::analysis::{KFjShared, KFjStore};
use mai_fj::Program;

use crate::inputs;
use crate::layers::{sweep, Spans, SweepCounts};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deep identity nesting under 0CFA: the read-set closure dominates.
    LambdaDeep,
    /// The k-CFA lanes family under 1-CFA: transition, delta, intern and
    /// fold dominate; read sets stay tiny.
    CpsLanes,
    /// Nested FJ cells under 1-CFA with abstract GC.
    FjGc,
}

/// Depth of every `cps-lanes` program; the ladder varies the lane count.
pub const CPS_DEPTH: usize = 12;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LambdaDeep, Workload::CpsLanes, Workload::FjGc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LambdaDeep => "lambda-deep",
            Workload::CpsLanes => "cps-lanes",
            Workload::FjGc => "fj-gc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The program sizes of the ladder, smallest first: nesting depth,
    /// lane count, or cell count.
    pub fn ladder(self) -> &'static [usize] {
        match self {
            Workload::LambdaDeep => &[150, 300, 600],
            Workload::CpsLanes => &[20, 40, 80],
            Workload::FjGc => &[40, 80, 160],
        }
    }

    /// The seeded input of one rung.
    pub fn generate(self, size: usize, seed: u64) -> Input {
        match self {
            Workload::LambdaDeep => Input::Text(inputs::lambda_deep_source(size, seed)),
            Workload::CpsLanes => Input::Text(inputs::cps_lanes_source(CPS_DEPTH, size, seed)),
            Workload::FjGc => Input::Fj(inputs::fj_nested_cells(size, seed)),
        }
    }

    /// One timed operation: source → front end → solve → query answer,
    /// with the program and fixpoint dropped before it returns.
    pub fn answer(self, input: &Input) -> Result<Answer, String> {
        match (self, input) {
            (Workload::LambdaDeep, Input::Text(src)) => {
                let term = mai_lambda::parse_term(src).map_err(|e| e.to_string())?;
                let (fp, _) = mai_lambda::analyse_mono_direct(&term);
                let flows = mai_lambda::flow_map_of_store(fp.store());
                let errors = mai_lambda::abstract_errors(fp.states().iter().map(|(ps, _)| ps));
                Ok(Answer {
                    configs: fp.len(),
                    flow_facts: flows.values().map(BTreeSet::len).sum(),
                    errors: errors.len(),
                })
            }
            (Workload::CpsLanes, Input::Text(src)) => {
                let program = mai_cps::parse_program(src).map_err(|e| e.to_string())?;
                let (fp, _) = mai_cps::analyse_kcfa_shared_direct::<1>(&program);
                let flows = mai_cps::flow_map_of_store(fp.store());
                let errors = mai_cps::abstract_errors(fp.states().iter().map(|(ps, _)| ps));
                Ok(Answer {
                    configs: fp.len(),
                    flow_facts: flows.values().map(BTreeSet::len).sum(),
                    errors: errors.len(),
                })
            }
            (Workload::FjGc, Input::Fj(program)) => {
                mai_fj::check_program(program).map_err(|e| e.to_string())?;
                let (fp, _) = mai_fj::analyse_kcfa_shared_gc_direct::<1>(program);
                let results = mai_fj::result_classes(&fp);
                let flows = mai_fj::class_flow_map(fp.store());
                let errors = mai_fj::abstract_errors(fp.states().iter().map(|(ps, _)| ps));
                Ok(Answer {
                    configs: fp.len(),
                    flow_facts: flows.values().map(BTreeSet::len).sum::<usize>() + results.len(),
                    errors: errors.len(),
                })
            }
            _ => Err(format!(
                "{} was handed another workload's input",
                self.name()
            )),
        }
    }

    /// The reference engine that records the expected counts of each
    /// rung: Kleene iteration where it finishes quickly, the structural-key
    /// worklist engine where that does, and on the largest lanes program
    /// (where both take many minutes) the id-indexed engine driven by the
    /// `Rc`-closure semantics `mnext` instead of the timed `mnext_direct`.
    pub fn reference_engines(self) -> &'static [Reference] {
        use Reference::{Kleene, RcWorklist, Structural};
        match self {
            Workload::LambdaDeep | Workload::FjGc => &[Kleene, Structural, Structural],
            Workload::CpsLanes => &[Kleene, Structural, RcWorklist],
        }
    }

    /// The answer computed by `engine`, which is never the timed one.
    pub fn reference_answer(self, input: &Input, engine: Reference) -> Answer {
        use Reference::{Kleene, RcWorklist, Structural};
        match (self, input) {
            (Workload::LambdaDeep, Input::Text(src)) => {
                type S = BasicStore<MonoAddr, mai_lambda::Storable<MonoAddr>>;
                let term = mai_lambda::parse_term(src).expect("generated source parses");
                let fp: mai_lambda::analysis::MonoCeskShared = match engine {
                    Kleene => mai_lambda::analyse_mono(&term),
                    Structural => mai_lambda::analyse_worklist_structural::<MonoCtx, S, _>(&term).0,
                    RcWorklist => mai_lambda::analyse_mono_worklist(&term).0,
                };
                let flows = mai_lambda::flow_map_of_store(fp.store());
                Answer {
                    configs: fp.len(),
                    flow_facts: flows.values().map(BTreeSet::len).sum(),
                    errors: mai_lambda::abstract_errors(fp.states().iter().map(|(ps, _)| ps)).len(),
                }
            }
            (Workload::CpsLanes, Input::Text(src)) => {
                let program = mai_cps::parse_program(src).expect("generated source parses");
                let fp = match engine {
                    Kleene => mai_cps::analyse_kcfa_shared::<1>(&program),
                    Structural => mai_cps::analyse_kcfa_shared_structural::<1>(&program).0,
                    RcWorklist => mai_cps::analyse_kcfa_shared_worklist::<1>(&program).0,
                };
                let flows = mai_cps::flow_map_of_store(fp.store());
                Answer {
                    configs: fp.len(),
                    flow_facts: flows.values().map(BTreeSet::len).sum(),
                    errors: mai_cps::abstract_errors(fp.states().iter().map(|(ps, _)| ps)).len(),
                }
            }
            (Workload::FjGc, Input::Fj(program)) => {
                let fp: KFjShared<1> = match engine {
                    Kleene => mai_fj::analyse_kcfa_shared_gc::<1>(program),
                    Structural => {
                        mai_fj::analyse_with_gc_worklist_structural::<KCallCtx<1>, KFjStore, _>(
                            program,
                        )
                        .0
                    }
                    RcWorklist => mai_fj::analyse_kcfa_shared_gc_worklist::<1>(program).0,
                };
                let results = mai_fj::result_classes(&fp);
                let flows = mai_fj::class_flow_map(fp.store());
                Answer {
                    configs: fp.len(),
                    flow_facts: flows.values().map(BTreeSet::len).sum::<usize>() + results.len(),
                    errors: mai_fj::abstract_errors(fp.states().iter().map(|(ps, _)| ps)).len(),
                }
            }
            _ => panic!("{} was handed another workload's input", self.name()),
        }
    }

    /// The checked deep run of one program: the untimed answer checks (the
    /// post-fixpoint certificate from the layer sweep, and soundness against
    /// the concrete interpreter), and with `traced` the traced solve and the
    /// parallel-decision rows (`parallel`).  Every layer call runs inside a
    /// span of `spans`.
    pub fn deep(
        self,
        input: &Input,
        traced: bool,
        parallel: bool,
        spans: &mut Spans,
    ) -> Result<Layers, String> {
        match (self, input) {
            (Workload::LambdaDeep, Input::Text(src)) => lambda_deep(src, traced, parallel, spans),
            (Workload::CpsLanes, Input::Text(src)) => cps_deep(src, traced, parallel, spans),
            (Workload::FjGc, Input::Fj(program)) => fj_deep(program, traced, parallel, spans),
            _ => Err(format!(
                "{} was handed another workload's input",
                self.name()
            )),
        }
    }
}

/// An engine that computes the expected counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Naive Kleene iteration (`explore_fp`) on the `Rc`-closure carrier.
    Kleene,
    /// The structural-key worklist engine on the `Rc`-closure carrier.
    Structural,
    /// The id-indexed worklist engine on the `Rc`-closure carrier.
    RcWorklist,
}

impl Reference {
    pub fn name(self) -> &'static str {
        match self {
            Reference::Kleene => "kleene",
            Reference::Structural => "structural",
            Reference::RcWorklist => "rc-worklist",
        }
    }
}

/// A generated program: source text, or an FJ program built by the
/// builder API (FJ has no textual front end).
#[derive(Debug, Clone)]
pub enum Input {
    Text(String),
    Fj(Program),
}

impl Input {
    /// The program as text: the source itself, or the FJ program's
    /// `Debug` rendering.
    #[cfg(test)]
    pub fn text(&self) -> String {
        match self {
            Input::Text(src) => src.clone(),
            Input::Fj(program) => format!("{program:?}"),
        }
    }
}

/// The query answer of one operation, reduced to the counts the benchmark
/// checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// `(state, context)` pairs of the fixpoint.
    pub configs: usize,
    /// Flow facts: Σ over variables of the values that flow there (plus,
    /// for FJ, the classes the program may return).
    pub flow_facts: usize,
    /// Distinct abstract errors.
    pub errors: usize,
}

/// What the deep run of one program measured.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub answer: Option<Answer>,
    pub sweep: SweepCounts,
    pub parse_bytes: usize,
    /// Nanoseconds of the untimed-path direct solve.
    pub solve_ns: u64,
    /// Traced run only.
    pub traced_solve_ns: u64,
    pub stats: EngineStats,
    pub step_phase_ns: u64,
    pub join_phase_ns: u64,
    pub hot_state_ns: u64,
    pub store_bindings: usize,
    /// Parallel-decision rows only.
    pub barrier_ns: u64,
    pub elastic_ns: u64,
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Times a solve in a span of its own, also returning its nanoseconds.
fn timed_solve<R>(spans: &mut Spans, name: &'static str, solve: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = spans.time(name, solve);
    (result, ns_since(start))
}

fn engine_layers(layers: &mut Layers, stats: EngineStats, trace: &TraceBuffer) {
    let phases = trace.phase_totals();
    layers.stats = stats;
    layers.step_phase_ns = phases.step_ns;
    layers.join_phase_ns = phases.join_ns;
    layers.hot_state_ns = trace.top_states(1).first().map_or(0, |s| s.total_ns);
}

fn certificate(counts: &SweepCounts) -> Result<(), String> {
    if counts.violation_count == 0 {
        Ok(())
    } else {
        Err(format!(
            "certificate failed {} times: {}",
            counts.violation_count,
            counts.violations.join("; ")
        ))
    }
}

fn parity<T: PartialEq>(row: &str, direct: &T, other: &T) -> Result<(), String> {
    if direct == other {
        Ok(())
    } else {
        Err(format!(
            "the {row} fixpoint differs from the direct engine's"
        ))
    }
}

/// Step budget of the concrete interpreters (the workloads all halt well
/// inside it).
const CONCRETE_STEPS: usize = 1_000_000;

fn lambda_deep(
    src: &str,
    traced: bool,
    parallel: bool,
    spans: &mut Spans,
) -> Result<Layers, String> {
    type S = BasicStore<MonoAddr, mai_lambda::Storable<MonoAddr>>;
    type Fp = mai_lambda::analysis::MonoCeskShared;
    let mut layers = Layers {
        parse_bytes: src.len(),
        ..Layers::default()
    };
    let term = spans
        .time("parse", || mai_lambda::parse_term(src))
        .map_err(|e| e.to_string())?;
    let ((fp, stats), solve_ns) =
        timed_solve(spans, "solve", || mai_lambda::analyse_mono_direct(&term));
    layers.solve_ns = solve_ns;
    layers.stats = stats;
    if traced {
        let mut trace = TraceBuffer::new();
        let ((fp_traced, stats), ns) = timed_solve(spans, "solve.traced", || {
            mai_lambda::analysis::analyse_worklist_direct_traced::<MonoCtx, S, Fp, _>(
                &term, &mut trace,
            )
        });
        parity("traced", &fp, &fp_traced)?;
        layers.traced_solve_ns = ns;
        engine_layers(&mut layers, stats, &trace);
    }
    let (flows, errors) = spans.time("query", || {
        (
            mai_lambda::flow_map_of_store(fp.store()),
            mai_lambda::abstract_errors(fp.states().iter().map(|(ps, _)| ps)),
        )
    });
    layers.answer = Some(Answer {
        configs: fp.len(),
        flow_facts: flows.values().map(BTreeSet::len).sum(),
        errors: errors.len(),
    });
    layers.store_bindings = fp.store().binding_count();

    spans.enter("certify");
    let initial = (mai_lambda::PState::inject(term.clone()), MonoCtx::initial());
    layers.sweep = sweep(
        fp.states(),
        &initial,
        fp.store(),
        &mai_lambda::mnext_direct::<MonoCtx, S>,
        false,
        spans,
    );
    spans.exit();
    certificate(&layers.sweep)?;

    if parallel {
        let ((barrier, _), ns) = timed_solve(spans, "solve.barrier", || {
            mai_lambda::analysis::analyse_mono_parallel(&term, 2)
        });
        parity("barrier", &fp, &barrier)?;
        layers.barrier_ns = ns;
        let ((elastic, _), ns) = timed_solve(spans, "solve.elastic", || {
            mai_lambda::analyse_mono_elastic(&term, ParallelConfig::elastic(2, 4))
        });
        parity("elastic", &fp, &elastic)?;
        layers.elastic_ns = ns;
    }

    let outcome = spans.time("concrete", || {
        mai_lambda::concrete::evaluate_governed(
            &term,
            &Budget::unlimited().with_max_steps(CONCRETE_STEPS),
        )
    });
    let value = outcome
        .value()
        .ok_or_else(|| "the concrete run did not halt".to_owned())?;
    let covered = fp
        .states()
        .iter()
        .filter_map(|(ps, _)| ps.result())
        .any(|abs| abs.param == value.param && abs.body == value.body);
    if !covered {
        return Err(format!(
            "the concrete result λ{} is not among the abstract results",
            value.param
        ));
    }
    spans.time("teardown", || drop((fp, term)));
    Ok(layers)
}

fn cps_deep(src: &str, traced: bool, parallel: bool, spans: &mut Spans) -> Result<Layers, String> {
    type S = mai_cps::analysis::KStore;
    let mut layers = Layers {
        parse_bytes: src.len(),
        ..Layers::default()
    };
    let program = spans
        .time("parse", || mai_cps::parse_program(src))
        .map_err(|e| e.to_string())?;
    let ((fp, stats), solve_ns) = timed_solve(spans, "solve", || {
        mai_cps::analyse_kcfa_shared_direct::<1>(&program)
    });
    layers.solve_ns = solve_ns;
    layers.stats = stats;
    if traced {
        let mut trace = TraceBuffer::new();
        let ((fp_traced, stats), ns) = timed_solve(spans, "solve.traced", || {
            mai_cps::analyse_kcfa_shared_direct_traced::<1, _>(&program, &mut trace)
        });
        parity("traced", &fp, &fp_traced)?;
        layers.traced_solve_ns = ns;
        engine_layers(&mut layers, stats, &trace);
    }
    let (flows, errors) = spans.time("query", || {
        (
            mai_cps::flow_map_of_store(fp.store()),
            mai_cps::abstract_errors(fp.states().iter().map(|(ps, _)| ps)),
        )
    });
    layers.answer = Some(Answer {
        configs: fp.len(),
        flow_facts: flows.values().map(BTreeSet::len).sum(),
        errors: errors.len(),
    });
    layers.store_bindings = fp.store().binding_count();

    spans.enter("certify");
    let initial = (
        mai_cps::PState::inject(program.clone()),
        KCallCtx::<1>::initial(),
    );
    layers.sweep = sweep(
        fp.states(),
        &initial,
        fp.store(),
        &mai_cps::mnext_direct::<KCallCtx<1>, S>,
        false,
        spans,
    );
    spans.exit();
    certificate(&layers.sweep)?;

    if parallel {
        let ((barrier, _), ns) = timed_solve(spans, "solve.barrier", || {
            mai_cps::analysis::analyse_kcfa_shared_parallel::<1>(&program, 2)
        });
        parity("barrier", &fp, &barrier)?;
        layers.barrier_ns = ns;
        let ((elastic, _), ns) = timed_solve(spans, "solve.elastic", || {
            mai_cps::analyse_kcfa_shared_elastic::<1>(&program, ParallelConfig::elastic(2, 4))
        });
        parity("elastic", &fp, &elastic)?;
        layers.elastic_ns = ns;
    }

    let outcome = spans.time("concrete", || {
        mai_cps::concrete::interpret_governed(
            &program,
            &Budget::unlimited().with_max_steps(CONCRETE_STEPS),
        )
    });
    if !outcome.halted() {
        return Err("the concrete run did not halt".to_owned());
    }
    if !fp.states().iter().any(|(ps, _)| ps.is_final()) {
        return Err("the analysis has no final state".to_owned());
    }
    // Every binding reachable from the concrete final environment must be
    // covered by the abstract flow map.
    let heap = outcome.heap();
    let mut pending: Vec<(mai_core::name::Name, mai_cps::HeapAddr)> = outcome
        .state()
        .env
        .iter()
        .map(|(v, a)| (v.clone(), a.clone()))
        .collect();
    let mut seen = BTreeSet::new();
    while let Some((var, addr)) = pending.pop() {
        if !seen.insert(addr.clone()) {
            continue;
        }
        let Some(val) = heap.read(&addr) else {
            return Err(format!("the concrete heap has no binding for {var}"));
        };
        if !flows
            .get(&var)
            .is_some_and(|lams| lams.contains(val.lambda()))
        {
            return Err(format!(
                "the concrete binding of {var} is not in the abstract flow map"
            ));
        }
        let mai_cps::Val::Clo { env, .. } = val;
        pending.extend(env.iter().map(|(v, a)| (v.clone(), a.clone())));
    }
    spans.time("teardown", || drop((fp, flows, program)));
    Ok(layers)
}

fn fj_deep(
    program: &Program,
    traced: bool,
    parallel: bool,
    spans: &mut Spans,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    spans
        .time("typecheck", || mai_fj::check_program(program))
        .map_err(|e| e.to_string())?;
    let ((fp, stats), solve_ns) = timed_solve(spans, "solve", || {
        mai_fj::analyse_kcfa_shared_gc_direct::<1>(program)
    });
    layers.solve_ns = solve_ns;
    layers.stats = stats;
    let table = program.table.clone();
    let raw_step =
        move |ps, ctx, store| mai_fj::mnext_direct::<KCallCtx<1>, KFjStore>(&table, ps, ctx, store);
    if traced {
        let mut trace = TraceBuffer::new();
        let ((fp_traced, stats), ns) = timed_solve(spans, "solve.traced", || {
            explore_worklist_direct_traced_stats::<_, _, _, KFjShared<1>, _, _>(
                with_state_gc(&raw_step),
                mai_fj::PState::inject(program.main.clone()),
                &mut trace,
            )
        });
        parity("traced", &fp, &fp_traced)?;
        layers.traced_solve_ns = ns;
        engine_layers(&mut layers, stats, &trace);
    }
    let (results, flows, errors) = spans.time("query", || {
        (
            mai_fj::result_classes(&fp),
            mai_fj::class_flow_map(fp.store()),
            mai_fj::abstract_errors(fp.states().iter().map(|(ps, _)| ps)),
        )
    });
    layers.answer = Some(Answer {
        configs: fp.len(),
        flow_facts: flows.values().map(BTreeSet::len).sum::<usize>() + results.len(),
        errors: errors.len(),
    });
    layers.store_bindings = fp.store().binding_count();

    spans.enter("certify");
    let initial = (
        mai_fj::PState::inject(program.main.clone()),
        KCallCtx::<1>::initial(),
    );
    layers.sweep = sweep(fp.states(), &initial, fp.store(), &raw_step, true, spans);
    spans.exit();
    certificate(&layers.sweep)?;

    if parallel {
        let ((barrier, _), ns) = timed_solve(spans, "solve.barrier", || {
            mai_fj::analysis::analyse_with_gc_parallel::<KCallCtx<1>, KFjStore, KFjShared<1>>(
                program, 2,
            )
        });
        parity("barrier", &fp, &barrier)?;
        layers.barrier_ns = ns;
        let ((elastic, _), ns) = timed_solve(spans, "solve.elastic", || {
            mai_fj::analyse_kcfa_shared_gc_elastic::<1>(program, ParallelConfig::elastic(2, 4))
        });
        parity("elastic", &fp, &elastic)?;
        layers.elastic_ns = ns;
    }

    let outcome = spans.time("concrete", || {
        mai_fj::concrete::run_governed(program, &Budget::unlimited().with_max_steps(CONCRETE_STEPS))
    });
    let class = outcome
        .result_class()
        .ok_or_else(|| "the concrete run did not halt".to_owned())?;
    if !results.contains(&class) {
        return Err(format!(
            "the concrete result class {class} is not among the abstract results"
        ));
    }
    spans.time("teardown", || drop(fp));
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed only renames and reorders: one seed gives byte-identical
    /// source text, another seed gives different text with the same
    /// recorded counts.
    #[test]
    fn inputs_are_reproducible_and_counts_seed_independent() {
        for workload in Workload::ALL {
            let size = workload.ladder()[0];
            let first = workload.generate(size, 11);
            assert_eq!(
                first.text(),
                workload.generate(size, 11).text(),
                "{}",
                workload.name()
            );
            let other = workload.generate(size, 12);
            assert_ne!(first.text(), other.text(), "{}", workload.name());
            let answer = workload.answer(&first).expect("the smallest rung solves");
            assert_eq!(
                answer,
                workload.answer(&other).expect("the smallest rung solves")
            );
            assert_eq!(
                Some(answer),
                crate::expected(workload, size),
                "{}",
                workload.name()
            );
        }
    }

    /// The deep run certifies the fixpoint and checks the concrete result.
    #[test]
    fn deep_runs_pass_their_checks() {
        for workload in Workload::ALL {
            let size = workload.ladder()[0];
            let layers = workload
                .deep(
                    &workload.generate(size, 3),
                    true,
                    true,
                    &mut Spans::default(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(layers.sweep.states > 0 && layers.barrier_ns > 0 && layers.elastic_ns > 0);
        }
    }
}
