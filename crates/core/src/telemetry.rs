//! Structured engine telemetry: per-round traces, per-worker spans and
//! hot-spot attribution for the fixpoint ladder.
//!
//! `EngineStats` answers *how much* work a solve performed; this module
//! answers *where the wall-clock went*.  The engines thread a
//! [`TraceSink`] through their `_traced` entry points and report, per
//! solver round, the frontier size, the states stepped, the contribution
//! joins, the per-address delta width and the wall-clock split into a
//! *step* phase (transition functions running), a *join* phase (deltas
//! folded into the accumulated store) and — for the sharded parallel
//! driver — a *sync* phase (barrier/coordination overhead, the gap
//! between the slowest worker's busy time and the phase wall).  The
//! parallel driver additionally reports one [`WorkerSpan`] per worker per
//! round (shard occupancy, steal count, busy and barrier-wait time) and
//! one [`StealTrace`] per stolen chunk.
//!
//! ## Zero cost when off
//!
//! [`TraceSink`] is a monomorphized trait whose methods all have empty
//! default bodies, and every untraced engine entry point passes
//! [`NoopSink`] — so the compiler sees statically that the sink does
//! nothing and the event plumbing folds away.  Wall-clock sampling is
//! gated on [`TraceSink::enabled`] (via [`Stopwatch`]), so the untraced
//! path performs no `Instant::now` calls either.  Crucially, **no
//! deterministic work counter ever branches on the sink**: the
//! differential suite asserts byte-identical fixpoints and identical
//! [`EngineStats`](crate::engine::EngineStats) with tracing on and off.
//!
//! ## Lock-free worker buffers
//!
//! Parallel workers never share a sink.  Each worker records its span
//! into a private [`WorkerBuffer`] it owns exclusively for the duration
//! of a step phase (part of its per-phase outcome), and the coordinator
//! drains the buffers into the single sink at the join-on-sync barrier —
//! the same moment it installs the workers' step results, so tracing adds
//! no synchronisation whatsoever to the phase itself.
//!
//! ## Exporters
//!
//! [`TraceBuffer`] is the reference sink: it aggregates rounds, spans,
//! steals, per-state step cost and per-address join traffic, and renders
//!
//! * [`TraceBuffer::chrome_trace_json`] — Chrome trace-event JSON.  The
//!   timeline is reconstructed by *stacking* round phase durations (round
//!   `r+1` starts where round `r` ended), which keeps the export free of
//!   cross-thread clock synchronisation; load the file in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * [`TraceBuffer::rounds_csv`] — a compact per-round CSV.
//! * [`TraceBuffer::profile_summary`] — the human-readable summary behind
//!   `mai-bench --profile`.

use std::fmt::Debug;
use std::fmt::Write as _;
use std::time::Instant;

use crate::engine::governor::{ExhaustReason, LadderRung};
use crate::hash::FxHashMap;
use crate::intern::StateId;

/// One solver round, with its wall-clock decomposed into phases.
///
/// Sequential engines report `sync_ns = 0`; the parallel driver reports
/// `step_ns` as the slowest worker's busy time and `sync_ns` as the rest
/// of the phase wall (barrier wake-up, shard publication, outcome
/// collection), so `step + join + sync` is the round's wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// 1-based round number.
    pub round: usize,
    /// States on the round's frontier (for the per-state engine: the BFS
    /// generation size; for Kleene iteration: the states re-stepped).
    pub frontier: usize,
    /// States actually stepped this round (differs from `frontier` on
    /// rebuild rounds, which re-step every known state).
    pub stepped: usize,
    /// Contribution joins folded this round.
    pub joins: usize,
    /// Addresses whose accumulated binding grew this round.
    pub delta_width: usize,
    /// Whether this was a non-monotone *rebuild* round.
    pub rebuild: bool,
    /// Nanoseconds spent running transition functions.
    pub step_ns: u64,
    /// Nanoseconds spent folding deltas into the accumulator.
    pub join_ns: u64,
    /// Nanoseconds of parallel coordination overhead (0 when sequential).
    pub sync_ns: u64,
}

impl RoundTrace {
    /// The round's total wall-clock in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.step_ns + self.join_ns + self.sync_ns
    }
}

/// One worker's activity within one parallel step phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSpan {
    /// The solver round the span belongs to.
    pub round: usize,
    /// Worker index (0-based).
    pub worker: usize,
    /// Pairs this worker stepped (own shard plus stolen chunks).
    pub processed: usize,
    /// Chunks this worker stole from other shards.
    pub steals: usize,
    /// Nanoseconds spent inside the phase body (stepping + claiming).
    pub busy_ns: u64,
    /// Nanoseconds the worker idled while the phase was still open —
    /// the barrier-wait share of the phase wall.
    pub wait_ns: u64,
}

/// One work-stealing event: `thief` claimed a chunk of `victim`'s shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealTrace {
    /// The solver round the steal happened in.
    pub round: usize,
    /// The worker that ran out of its own shard.
    pub thief: usize,
    /// The shard the chunk was taken from.
    pub victim: usize,
}

/// One worker epoch of the **elastic** parallel driver: between two
/// barriers a worker advances its private sub-frontier for up to `E`
/// epochs, and each one is reported as a span nested inside the worker's
/// busy window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTrace {
    /// The solver (super-)round the epoch belongs to.
    pub round: usize,
    /// Worker index (0-based).
    pub worker: usize,
    /// 1-based epoch number within the round.
    pub epoch: usize,
    /// States stepped during this epoch.
    pub stepped: usize,
    /// Fresh states this epoch minted into the worker's next sub-frontier.
    pub fresh: usize,
    /// Whether the epoch detected a stale read (another shard published a
    /// newer epoch for an address this worker read) and forced the merge.
    pub stale_exit: bool,
    /// Nanoseconds spent inside the epoch body.
    pub busy_ns: u64,
}

/// One lazy merge of the elastic driver: the barrier at which per-shard
/// deltas accumulated over the round's epochs are folded into the global
/// store and the dependency index is re-seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeTrace {
    /// The solver (super-)round the merge ended.
    pub round: usize,
    /// Entries installed at this merge (one per state stepped this round).
    pub entries: usize,
    /// Addresses whose accumulated binding grew at this merge.
    pub changed: usize,
    /// Whether any worker forced this merge through a stale read (as
    /// opposed to frontier drain or epoch-budget exhaustion).
    pub stale: bool,
    /// Nanoseconds the coordinator spent folding the deltas.
    pub merge_ns: u64,
}

/// A governance event of a governed solve: the budget fired, or a
/// degradation-ladder rung faulted.
///
/// The cancel-latency tests are built on these records: the `round`
/// of an [`GovernorTraceKind::Exhausted`] event is the number of
/// *completed* rounds when the budget was observed, so the distance
/// between the cancel request and the event bounds the observation
/// latency in rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorTrace {
    /// Rounds completed when the event was observed (sequential and
    /// barrier engines observe at round boundaries; for ladder events,
    /// the rung's rounds completed before it faulted is unknown, so 0).
    pub round: usize,
    /// What was observed.
    pub kind: GovernorTraceKind,
}

/// What a [`GovernorTrace`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorTraceKind {
    /// The budget fired with this reason; the solve returned a partial.
    Exhausted(ExhaustReason),
    /// This degradation-ladder rung faulted (a worker panicked) and the
    /// solve fell to the next rung.
    RungFaulted(LadderRung),
}

/// A structured trace consumer, threaded through the engines' `_traced`
/// entry points.
///
/// Every method has an empty default body and the whole trait is
/// monomorphized, so the [`NoopSink`] the untraced entry points pass
/// compiles to nothing.  Implementations that record must override
/// [`TraceSink::enabled`] to return `true` — the engines use it to gate
/// clock sampling and label formatting (never counter updates).
pub trait TraceSink {
    /// Whether events will actually be recorded.  Engines skip
    /// `Instant::now` and `Debug`-label formatting when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// One solver round completed.
    fn round(&mut self, _event: RoundTrace) {}

    /// One worker's span within a parallel step phase.
    fn worker(&mut self, _span: WorkerSpan) {}

    /// One work-stealing event.
    fn steal(&mut self, _event: StealTrace) {}

    /// One worker epoch of the elastic driver.
    fn epoch(&mut self, _event: EpochTrace) {}

    /// One lazy merge of the elastic driver.
    fn merge(&mut self, _event: MergeTrace) {}

    /// One governance event: budget exhaustion observed, or a ladder
    /// rung faulted.
    fn governor(&mut self, _event: GovernorTrace) {}

    /// `ns` nanoseconds were spent stepping the state labelled `label`
    /// (cumulative attribution: called once per step of that state).
    fn state_cost(&mut self, _label: &str, _ns: u64) {}

    /// A folded delta touched the address labelled `label`; `grew` is
    /// whether the accumulated binding actually grew.
    fn join_traffic(&mut self, _label: &str, _grew: bool) {}
}

/// The do-nothing sink behind every untraced engine entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// A nanosecond stopwatch that touches the clock only when armed —
/// the engines' way of keeping the tracing-off path free of
/// `Instant::now` calls.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the stopwatch if `armed`, else returns an inert one.
    pub fn start(armed: bool) -> Self {
        Stopwatch(armed.then(Instant::now))
    }

    /// Nanoseconds since the start (or last lap); restarts the lap.
    /// 0 when inert.
    pub fn lap_ns(&mut self) -> u64 {
        match self.0 {
            Some(since) => {
                let now = Instant::now();
                let ns = now.duration_since(since).as_nanos() as u64;
                self.0 = Some(now);
                ns
            }
            None => 0,
        }
    }
}

/// A lock-free per-worker trace buffer: each parallel worker owns one
/// exclusively during a step phase (no sharing, no locks — it travels
/// with the worker's phase outcome) and the coordinator drains it into
/// the one sink at the join-on-sync barrier via
/// [`WorkerBuffer::drain_into`].
#[derive(Debug, Default)]
pub struct WorkerBuffer {
    /// Nanoseconds this worker spent inside the phase body.
    pub busy_ns: u64,
    /// Shard indices this worker stole a chunk from, one per steal.
    pub victims: Vec<usize>,
    /// Per-step cost records `(state id, ns)`.
    pub costs: Vec<(StateId, u64)>,
    /// Elastic-driver epochs this worker ran within the phase
    /// (`(epoch, stepped, fresh, stale_exit, busy_ns)`); empty for the
    /// barrier driver.
    pub epochs: Vec<(usize, usize, usize, bool, u64)>,
}

impl WorkerBuffer {
    /// Drains the buffer into `sink` as one [`WorkerSpan`] plus its
    /// [`StealTrace`]s and state-cost records, resolving ids to labels
    /// through `label` (only called here, after the phase, so workers
    /// never format).  `wall_ns` is the coordinator-observed phase wall;
    /// the span's wait time is `wall_ns − busy_ns`.
    pub fn drain_into<T: TraceSink>(
        self,
        round: usize,
        worker: usize,
        processed: usize,
        wall_ns: u64,
        sink: &mut T,
        mut label: impl FnMut(StateId) -> String,
    ) {
        sink.worker(WorkerSpan {
            round,
            worker,
            processed,
            steals: self.victims.len(),
            busy_ns: self.busy_ns,
            wait_ns: wall_ns.saturating_sub(self.busy_ns),
        });
        for victim in self.victims {
            sink.steal(StealTrace {
                round,
                thief: worker,
                victim,
            });
        }
        for (epoch, stepped, fresh, stale_exit, busy_ns) in self.epochs {
            sink.epoch(EpochTrace {
                round,
                worker,
                epoch,
                stepped,
                fresh,
                stale_exit,
                busy_ns,
            });
        }
        for (id, ns) in self.costs {
            sink.state_cost(&label(id), ns);
        }
    }
}

/// Renders a `Debug` value as a single-line label truncated to roughly
/// `max` characters — hot-spot attribution keys, not pretty-printing.
pub fn label_of<V: Debug>(value: &V, max: usize) -> String {
    let mut label = format!("{value:?}");
    if let Some((cut, _)) = label.char_indices().nth(max) {
        label.truncate(cut);
        label.push('…');
    }
    label
}

/// Cumulative step cost of one state across the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotState {
    /// The state's (truncated `Debug`) label.
    pub label: String,
    /// How many times the state was stepped.
    pub steps: usize,
    /// Total nanoseconds spent stepping it.
    pub total_ns: u64,
}

/// Cumulative join traffic of one address across the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotAddr {
    /// The address's (`Debug`) label.
    pub label: String,
    /// How many folded deltas bound the address.
    pub joins: usize,
    /// How many of those joins actually grew the accumulated binding (join
    /// growth, whether the fold used `⊔` or `▽`).
    pub grew: usize,
}

/// Wall-clock totals across all recorded rounds, by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotals {
    /// Total nanoseconds in step phases.
    pub step_ns: u64,
    /// Total nanoseconds in join (fold) phases.
    pub join_ns: u64,
    /// Total nanoseconds of parallel coordination overhead.
    pub sync_ns: u64,
}

impl PhaseTotals {
    /// The summed wall-clock of all rounds, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.step_ns + self.join_ns + self.sync_ns
    }
}

/// The reference [`TraceSink`]: records every event and aggregates the
/// hot-spot attribution, then exports Chrome trace JSON, per-round CSV
/// or a human-readable profile summary.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    /// Every recorded round, in order.
    pub rounds: Vec<RoundTrace>,
    /// Every recorded worker span, in arrival order.
    pub workers: Vec<WorkerSpan>,
    /// Every recorded steal event, in arrival order.
    pub steals: Vec<StealTrace>,
    /// Every recorded elastic worker epoch, in arrival order.
    pub epochs: Vec<EpochTrace>,
    /// Every recorded elastic merge, in arrival order.
    pub merges: Vec<MergeTrace>,
    /// Every recorded governance event, in arrival order.
    pub governor_events: Vec<GovernorTrace>,
    state_costs: FxHashMap<String, (usize, u64)>,
    join_counts: FxHashMap<String, (usize, usize)>,
}

impl TraceSink for TraceBuffer {
    fn enabled(&self) -> bool {
        true
    }

    fn round(&mut self, event: RoundTrace) {
        self.rounds.push(event);
    }

    fn worker(&mut self, span: WorkerSpan) {
        self.workers.push(span);
    }

    fn steal(&mut self, event: StealTrace) {
        self.steals.push(event);
    }

    fn epoch(&mut self, event: EpochTrace) {
        self.epochs.push(event);
    }

    fn merge(&mut self, event: MergeTrace) {
        self.merges.push(event);
    }

    fn governor(&mut self, event: GovernorTrace) {
        self.governor_events.push(event);
    }

    fn state_cost(&mut self, label: &str, ns: u64) {
        let (steps, total) = self.state_costs.entry(label.to_owned()).or_default();
        *steps += 1;
        *total += ns;
    }

    fn join_traffic(&mut self, label: &str, grew: bool) {
        let (joins, grown) = self.join_counts.entry(label.to_owned()).or_default();
        *joins += 1;
        *grown += usize::from(grew);
    }
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock totals across all recorded rounds, by phase.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for r in &self.rounds {
            totals.step_ns += r.step_ns;
            totals.join_ns += r.join_ns;
            totals.sync_ns += r.sync_ns;
        }
        totals
    }

    /// The `k` states with the largest cumulative step cost, descending
    /// (ties broken by label, so the order is deterministic).
    pub fn top_states(&self, k: usize) -> Vec<HotState> {
        let mut all: Vec<HotState> = self
            .state_costs
            .iter()
            .map(|(label, &(steps, total_ns))| HotState {
                label: label.clone(),
                steps,
                total_ns,
            })
            .collect();
        all.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| a.label.cmp(&b.label))
        });
        all.truncate(k);
        all
    }

    /// The `k` addresses with the most join traffic, descending (ties
    /// broken by growth, then label).
    pub fn top_addresses(&self, k: usize) -> Vec<HotAddr> {
        let mut all: Vec<HotAddr> = self
            .join_counts
            .iter()
            .map(|(label, &(joins, grew))| HotAddr {
                label: label.clone(),
                joins,
                grew,
            })
            .collect();
        all.sort_by(|a, b| {
            b.joins
                .cmp(&a.joins)
                .then_with(|| b.grew.cmp(&a.grew))
                .then_with(|| a.label.cmp(&b.label))
        });
        all.truncate(k);
        all
    }

    /// Per-worker totals across all rounds: `(worker, processed, steals,
    /// busy_ns, wait_ns)`, sorted by worker index.
    pub fn worker_totals(&self) -> Vec<(usize, usize, usize, u64, u64)> {
        let mut by_worker: FxHashMap<usize, (usize, usize, u64, u64)> = FxHashMap::default();
        for span in &self.workers {
            let slot = by_worker.entry(span.worker).or_default();
            slot.0 += span.processed;
            slot.1 += span.steals;
            slot.2 += span.busy_ns;
            slot.3 += span.wait_ns;
        }
        let mut totals: Vec<_> = by_worker
            .into_iter()
            .map(|(w, (processed, steals, busy, wait))| (w, processed, steals, busy, wait))
            .collect();
        totals.sort_unstable();
        totals
    }

    /// Chrome trace-event JSON (the `traceEvents` object form) — open it
    /// in Perfetto or `chrome://tracing`.
    ///
    /// The timeline stacks round durations: round `r+1`'s step phase
    /// starts where round `r`'s sync phase ended, so no cross-thread
    /// clock synchronisation is needed.  Thread 0 is the driver (one
    /// `X` slice per phase per round); threads `w+1` carry worker `w`'s
    /// busy/wait slices inside the round's step window; steals are `i`
    /// instants on the thief's thread.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, event: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&event);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"mai fixpoint engine\"}}"
                .to_owned(),
        );
        push(
            &mut out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"driver\"}}"
                .to_owned(),
        );
        let worker_ids: std::collections::BTreeSet<usize> =
            self.workers.iter().map(|s| s.worker).collect();
        for &w in &worker_ids {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"worker {}\"}}}}",
                    w + 1,
                    w
                ),
            );
        }
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1000.0);
        let mut cursor_ns: u64 = 0;
        for r in &self.rounds {
            let step_start = cursor_ns;
            push(
                &mut out,
                format!(
                    "{{\"name\":\"round {} step\",\"cat\":\"step\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\
                     \"round\":{},\"frontier\":{},\"stepped\":{},\"rebuild\":{}}}}}",
                    r.round,
                    us(step_start),
                    us(r.step_ns),
                    r.round,
                    r.frontier,
                    r.stepped,
                    r.rebuild
                ),
            );
            for span in self.workers.iter().filter(|s| s.round == r.round) {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"busy\",\"cat\":\"worker\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\
                         \"processed\":{},\"steals\":{}}}}}",
                        us(step_start),
                        us(span.busy_ns),
                        span.worker + 1,
                        span.processed,
                        span.steals
                    ),
                );
                if span.wait_ns > 0 {
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"barrier wait\",\"cat\":\"barrier\",\"ph\":\"X\",\
                             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{}}}}",
                            us(step_start + span.busy_ns),
                            us(span.wait_ns),
                            span.worker + 1
                        ),
                    );
                }
                // Elastic epochs nest inside the worker's busy slice,
                // stacked in epoch order.
                let mut epoch_cursor = step_start;
                for e in self
                    .epochs
                    .iter()
                    .filter(|e| e.round == r.round && e.worker == span.worker)
                {
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"epoch {}\",\"cat\":\"epoch\",\"ph\":\"X\",\
                             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\
                             \"stepped\":{},\"fresh\":{},\"stale_exit\":{}}}}}",
                            e.epoch,
                            us(epoch_cursor),
                            us(e.busy_ns),
                            e.worker + 1,
                            e.stepped,
                            e.fresh,
                            e.stale_exit
                        ),
                    );
                    epoch_cursor += e.busy_ns;
                }
            }
            for steal in self.steals.iter().filter(|s| s.round == r.round) {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"steal\",\"cat\":\"steal\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"victim\":{}}}}}",
                        us(step_start),
                        steal.thief + 1,
                        steal.victim
                    ),
                );
            }
            cursor_ns += r.step_ns;
            push(
                &mut out,
                format!(
                    "{{\"name\":\"round {} join\",\"cat\":\"join\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\
                     \"joins\":{},\"delta_width\":{}}}}}",
                    r.round,
                    us(cursor_ns),
                    us(r.join_ns),
                    r.joins,
                    r.delta_width
                ),
            );
            // Elastic lazy merges nest inside the round's join slice.
            for m in self.merges.iter().filter(|m| m.round == r.round) {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"round {} merge\",\"cat\":\"merge\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\
                         \"entries\":{},\"changed\":{},\"stale\":{}}}}}",
                        m.round,
                        us(cursor_ns),
                        us(m.merge_ns),
                        m.entries,
                        m.changed,
                        m.stale
                    ),
                );
            }
            cursor_ns += r.join_ns;
            if r.sync_ns > 0 {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"round {} sync\",\"cat\":\"sync\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{}}}}",
                        r.round,
                        us(cursor_ns),
                        us(r.sync_ns)
                    ),
                );
                cursor_ns += r.sync_ns;
            }
        }
        // Governance events land as global instants at the end of the
        // reconstructed timeline (their round is in the args).
        for g in &self.governor_events {
            let (name, detail) = match g.kind {
                GovernorTraceKind::Exhausted(reason) => ("budget exhausted", reason.as_str()),
                GovernorTraceKind::RungFaulted(rung) => ("ladder fallback", rung.as_str()),
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"governor\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"round\":{},\"detail\":\"{detail}\"}}}}",
                    us(cursor_ns),
                    g.round,
                ),
            );
        }
        out.push_str("]}");
        out
    }

    /// A compact per-round CSV (microsecond durations).
    pub fn rounds_csv(&self) -> String {
        let mut out = String::from(
            "round,frontier,stepped,joins,delta_width,rebuild,step_us,join_us,sync_us\n",
        );
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.3},{:.3},{:.3}",
                r.round,
                r.frontier,
                r.stepped,
                r.joins,
                r.delta_width,
                r.rebuild,
                r.step_ns as f64 / 1000.0,
                r.join_ns as f64 / 1000.0,
                r.sync_ns as f64 / 1000.0
            );
        }
        out
    }

    /// A human-readable profile: phase split, the costliest rounds, the
    /// per-worker totals and the top-`k` hot states and addresses.
    pub fn profile_summary(&self, k: usize) -> String {
        let totals = self.phase_totals();
        let wall = totals.wall_ns().max(1);
        let pct = |ns: u64| ns as f64 * 100.0 / wall as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let rebuilds = self.rounds.iter().filter(|r| r.rebuild).count();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rounds={} (rebuilds={})  wall={:.3}ms  step={:.3}ms ({:.1}%)  join={:.3}ms ({:.1}%)  sync={:.3}ms ({:.1}%)",
            self.rounds.len(),
            rebuilds,
            ms(wall),
            ms(totals.step_ns),
            pct(totals.step_ns),
            ms(totals.join_ns),
            pct(totals.join_ns),
            ms(totals.sync_ns),
            pct(totals.sync_ns),
        );
        let mut costly: Vec<&RoundTrace> = self.rounds.iter().collect();
        costly.sort_by_key(|r| std::cmp::Reverse(r.wall_ns()));
        costly.truncate(k);
        if !costly.is_empty() {
            let _ = writeln!(out, "costliest rounds:");
            for r in costly {
                let _ = writeln!(
                    out,
                    "  round {:>4}: frontier={:<6} stepped={:<6} joins={:<6} delta={:<5} {}step={:.3}ms join={:.3}ms sync={:.3}ms",
                    r.round,
                    r.frontier,
                    r.stepped,
                    r.joins,
                    r.delta_width,
                    if r.rebuild { "REBUILD " } else { "" },
                    ms(r.step_ns),
                    ms(r.join_ns),
                    ms(r.sync_ns),
                );
            }
        }
        let workers = self.worker_totals();
        if !workers.is_empty() {
            let _ = writeln!(out, "workers:");
            for (w, processed, steals, busy, wait) in workers {
                let _ = writeln!(
                    out,
                    "  worker {w}: processed={processed:<6} steals={steals:<4} busy={:.3}ms wait={:.3}ms",
                    ms(busy),
                    ms(wait),
                );
            }
        }
        if !self.epochs.is_empty() {
            let stale = self.epochs.iter().filter(|e| e.stale_exit).count();
            let max_epoch = self.epochs.iter().map(|e| e.epoch).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "elastic: {} worker-epochs (deepest {max_epoch}, {stale} stale exits) over {} merges",
                self.epochs.len(),
                self.merges.len(),
            );
        }
        if !self.governor_events.is_empty() {
            let _ = writeln!(out, "governance:");
            for g in &self.governor_events {
                let what = match g.kind {
                    GovernorTraceKind::Exhausted(reason) => {
                        format!("budget exhausted ({reason})")
                    }
                    GovernorTraceKind::RungFaulted(rung) => {
                        format!("ladder rung faulted ({rung})")
                    }
                };
                let _ = writeln!(out, "  after round {}: {what}", g.round);
            }
        }
        let hot_states = self.top_states(k);
        if !hot_states.is_empty() {
            let _ = writeln!(out, "hot states (by cumulative step cost):");
            for h in hot_states {
                let _ = writeln!(
                    out,
                    "  {:.3}ms over {:>4} steps  {}",
                    ms(h.total_ns),
                    h.steps,
                    h.label
                );
            }
        }
        let hot_addrs = self.top_addresses(k);
        if !hot_addrs.is_empty() {
            let _ = writeln!(out, "hot addresses (by join traffic):");
            for h in hot_addrs {
                let _ = writeln!(
                    out,
                    "  {:>5} joins ({:>4} grew)  {}",
                    h.joins, h.grew, h.label
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::InternKey;

    fn sample_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        buf.round(RoundTrace {
            round: 1,
            frontier: 1,
            stepped: 1,
            joins: 1,
            delta_width: 2,
            rebuild: false,
            step_ns: 1_000,
            join_ns: 500,
            sync_ns: 250,
        });
        buf.round(RoundTrace {
            round: 2,
            frontier: 3,
            stepped: 4,
            joins: 4,
            delta_width: 1,
            rebuild: true,
            step_ns: 2_000,
            join_ns: 1_000,
            sync_ns: 0,
        });
        buf.worker(WorkerSpan {
            round: 1,
            worker: 0,
            processed: 1,
            steals: 0,
            busy_ns: 900,
            wait_ns: 100,
        });
        buf.worker(WorkerSpan {
            round: 2,
            worker: 1,
            processed: 4,
            steals: 1,
            busy_ns: 1_800,
            wait_ns: 200,
        });
        buf.steal(StealTrace {
            round: 2,
            thief: 1,
            victim: 0,
        });
        buf.state_cost("St(1)", 700);
        buf.state_cost("St(1)", 300);
        buf.state_cost("St(2)", 400);
        buf.join_traffic("a0", true);
        buf.join_traffic("a0", false);
        buf.join_traffic("a1", true);
        buf
    }

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.round(RoundTrace::default());
        sink.worker(WorkerSpan::default());
        sink.state_cost("x", 1);
        sink.join_traffic("a", true);
    }

    #[test]
    fn stopwatch_is_inert_when_unarmed() {
        let mut inert = Stopwatch::start(false);
        assert_eq!(inert.lap_ns(), 0);
        let mut armed = Stopwatch::start(true);
        std::hint::black_box(0u64);
        let first = armed.lap_ns();
        let second = armed.lap_ns();
        // Laps restart: the second lap does not include the first.
        assert!(first + second >= second);
    }

    #[test]
    fn buffer_aggregates_costs_and_traffic() {
        let buf = sample_buffer();
        let totals = buf.phase_totals();
        assert_eq!(totals.step_ns, 3_000);
        assert_eq!(totals.join_ns, 1_500);
        assert_eq!(totals.sync_ns, 250);
        assert_eq!(totals.wall_ns(), 4_750);

        let hot = buf.top_states(10);
        assert_eq!(hot[0].label, "St(1)");
        assert_eq!(hot[0].steps, 2);
        assert_eq!(hot[0].total_ns, 1_000);
        assert_eq!(buf.top_states(1).len(), 1);

        let addrs = buf.top_addresses(10);
        assert_eq!(addrs[0].label, "a0");
        assert_eq!(addrs[0].joins, 2);
        assert_eq!(addrs[0].grew, 1);

        let workers = buf.worker_totals();
        assert_eq!(workers, vec![(0, 1, 0, 900, 100), (1, 4, 1, 1_800, 200)]);
    }

    #[test]
    fn chrome_trace_contains_all_phases_and_spans() {
        let json = buf_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cat\":\"step\""));
        assert!(json.contains("\"cat\":\"join\""));
        assert!(json.contains("\"cat\":\"sync\""));
        assert!(json.contains("\"cat\":\"worker\""));
        assert!(json.contains("\"cat\":\"steal\""));
        assert!(json.contains("\"name\":\"worker 1\""));
    }

    fn buf_json() -> String {
        sample_buffer().chrome_trace_json()
    }

    #[test]
    fn csv_has_one_line_per_round() {
        let csv = sample_buffer().rounds_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("round,frontier"));
        assert!(lines[1].starts_with("1,1,1,1,2,false,"));
        assert!(lines[2].starts_with("2,3,4,4,1,true,"));
    }

    #[test]
    fn profile_summary_mentions_every_section() {
        let summary = sample_buffer().profile_summary(5);
        assert!(summary.contains("rounds=2 (rebuilds=1)"));
        assert!(summary.contains("costliest rounds"));
        assert!(summary.contains("workers:"));
        assert!(summary.contains("hot states"));
        assert!(summary.contains("hot addresses"));
        assert!(summary.contains("St(1)"));
    }

    #[test]
    fn labels_truncate_on_char_boundaries() {
        assert_eq!(label_of(&7u32, 16), "7");
        let long = label_of(&"αβγδεζηθικλμ", 4);
        assert!(long.ends_with('…'));
        assert!(long.chars().count() <= 5);
    }

    #[test]
    fn worker_buffer_drains_spans_steals_and_costs() {
        let buffer = WorkerBuffer {
            busy_ns: 800,
            victims: vec![2],
            costs: vec![(StateId::from_index(0), 500)],
            epochs: Vec::new(),
        };
        let mut sink = TraceBuffer::new();
        buffer.drain_into(3, 1, 5, 1_000, &mut sink, |id| format!("id{}", id.index()));
        assert_eq!(
            sink.workers,
            vec![WorkerSpan {
                round: 3,
                worker: 1,
                processed: 5,
                steals: 1,
                busy_ns: 800,
                wait_ns: 200,
            }]
        );
        assert_eq!(
            sink.steals,
            vec![StealTrace {
                round: 3,
                thief: 1,
                victim: 2,
            }]
        );
        assert_eq!(sink.top_states(1)[0].label, "id0");
    }

    #[test]
    fn elastic_epochs_and_merges_flow_through_buffer_and_exports() {
        let mut buf = sample_buffer();
        let worker_buf = WorkerBuffer {
            busy_ns: 900,
            victims: vec![],
            costs: vec![],
            epochs: vec![(1, 3, 2, false, 600), (2, 2, 0, true, 300)],
        };
        worker_buf.drain_into(1, 0, 5, 1_000, &mut buf, |_| String::new());
        buf.merge(MergeTrace {
            round: 1,
            entries: 5,
            changed: 2,
            stale: true,
            merge_ns: 400,
        });
        assert_eq!(buf.epochs.len(), 2);
        assert_eq!(
            buf.epochs[1],
            EpochTrace {
                round: 1,
                worker: 0,
                epoch: 2,
                stepped: 2,
                fresh: 0,
                stale_exit: true,
                busy_ns: 300,
            }
        );
        let json = buf.chrome_trace_json();
        assert!(json.contains("\"cat\":\"epoch\""));
        assert!(json.contains("\"cat\":\"merge\""));
        assert!(json.contains("\"stale_exit\":true"));
        let summary = buf.profile_summary(5);
        assert!(
            summary.contains("elastic: 2 worker-epochs (deepest 2, 1 stale exits) over 1 merges")
        );
    }
}
