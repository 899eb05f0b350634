//! Engine governance: budgets, cooperative cancellation, clean worker
//! failure, and (behind the `fault-inject` feature) deterministic fault
//! injection for the parallel drivers.
//!
//! Every engine in the ladder is *governed* (the structural-key
//! baseline, which only differential tests and benchmarks run, is not):
//! the solver loop consults a [`Budget`] at each round boundary
//! (sequential engines) or barrier/epoch boundary (parallel drivers) and,
//! instead of running open-loop until the fixpoint, returns an
//! [`Outcome`] that is either `Complete` or `Exhausted` with a *resumable
//! partial*.  The ungoverned
//! entry points are thin wrappers passing [`Budget::unlimited`], whose
//! checks cost one branch and one relaxed atomic load per round and
//! never touch the clock — so governed-off runs are byte-identical to
//! the pre-governor engines in both fixpoints and work counters (the
//! differential suite enforces this).
//!
//! ## Resumption
//!
//! An `Exhausted` outcome carries a [`ResumeSeed`]: the full state set
//! and accumulated store of the partial.  Re-seeding a fresh run from it
//! re-steps every known state once — rebuilding the dependency index the
//! partial run discarded — and then proceeds normally.  Because the
//! collecting semantics only ever *grows* (states accumulate, stores
//! join monotonically), the resumed run reaches exactly the least
//! fixpoint a one-shot run reaches; only wall-clock and work counters
//! differ.
//!
//! ## Worker panics
//!
//! Parallel workers run each phase under `catch_unwind`.  A panicking
//! worker parks its payload, still reaches the phase barrier (so the
//! pool never deadlocks), and the coordinator shuts the pool down
//! cleanly and reports [`EngineError::WorkerPanicked`].  The governed
//! parallel entry points surface that as an `Err`; the classic entry
//! points re-raise the original payload to preserve panic-propagation
//! semantics.  [`explore_frontier_ladder_traced`] degrades
//! elastic → barrier → sequential-direct, so a faulted parallel solve
//! still returns the byte-identical fixpoint.
//!
//! [`explore_frontier_ladder_traced`]: crate::engine::explore_frontier_ladder_traced

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cooperative cancellation flag.
///
/// Cancellation is *requested* with [`CancelToken::cancel`] (from any
/// thread) and *observed* by the engines at round boundaries and by
/// parallel workers between claims/epochs — latency is bounded by one
/// round (sequential) or one epoch (elastic), which the traced
/// cancellation tests assert from the telemetry slices.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.  Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a governed solve stopped short of the fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The budget's [`CancelToken`] was cancelled.
    Cancelled,
    /// The budget's deadline passed.
    DeadlineExpired,
    /// The solver ran `max_rounds` rounds without converging.
    RoundBudget,
    /// The solver performed `max_steps` state steps without converging.
    StepBudget,
}

impl ExhaustReason {
    /// A stable lower-case identifier (used in bench reports and traces).
    pub fn as_str(self) -> &'static str {
        match self {
            ExhaustReason::Cancelled => "cancelled",
            ExhaustReason::DeadlineExpired => "deadline",
            ExhaustReason::RoundBudget => "rounds",
            ExhaustReason::StepBudget => "steps",
        }
    }
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The widening policy of a governed solve: when (if ever) an engine
/// switches an address's store accumulation from join `⊔` to widening
/// `▽`, and how many narrowing passes follow stabilisation.
///
/// Widening lives on the [`Budget`] because both answer the same
/// question — "how do we keep this solve finite?" — but they stay
/// *distinguishable* in the outcome: a budget that runs out yields
/// [`Outcome::Exhausted`] with an [`ExhaustReason`] (a truncated
/// under-approximation), while widening-forced convergence yields
/// [`Outcome::Complete`] (a sound over-approximation, with
/// [`EngineStats::widen_applied`](crate::engine::EngineStats::widen_applied)
/// recording that widening fired).
///
/// The default is [`WidenPolicy::off`]: every engine behaves
/// byte-identically to its pre-widening self.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WidenPolicy {
    /// Whether widening is enabled at all.
    pub enabled: bool,
    /// How many times an address's binding may *grow* under plain join
    /// before the address becomes a widening point (the classic
    /// "widening delay": small values terminate faster, larger values
    /// keep more precision on chains that would have stabilised anyway).
    pub growth_threshold: usize,
    /// How many descending (narrowing) passes to run after the widened
    /// ascent stabilises.  Narrowing is an engine-independent post-pass
    /// over the final accumulator, so it cannot break cross-engine
    /// byte-identity.  The pass honours the budget's wall-clock bounds
    /// ([`Budget::interrupted`]): a deadline or cancellation stops the
    /// refinement between state re-steps, returning the (sound, merely
    /// less precise) store narrowed so far — the outcome stays
    /// `Complete`, because the widened ascent already converged.
    pub narrow_passes: usize,
}

impl WidenPolicy {
    /// No widening: infinite-height domains may diverge (pair with a
    /// step/round budget to get a clean [`ExhaustReason`] instead).
    pub fn off() -> Self {
        WidenPolicy {
            enabled: false,
            growth_threshold: 0,
            narrow_passes: 0,
        }
    }

    /// Widen an address once its binding has grown `growth_threshold`
    /// times, with two narrowing passes after stabilisation.
    pub fn after_growths(growth_threshold: usize) -> Self {
        WidenPolicy {
            enabled: true,
            growth_threshold,
            narrow_passes: 2,
        }
    }

    /// Overrides the number of post-stabilisation narrowing passes.
    pub fn with_narrow_passes(mut self, narrow_passes: usize) -> Self {
        self.narrow_passes = narrow_passes;
        self
    }
}

impl Default for WidenPolicy {
    fn default() -> Self {
        WidenPolicy::off()
    }
}

/// Resource bounds for a governed solve.
///
/// All limits default to *unlimited*; [`Budget::exhausted`] is the one
/// round-boundary check every engine performs.  The check order is
/// cancel → deadline → rounds → steps, so a cancelled-and-over-budget
/// run deterministically reports [`ExhaustReason::Cancelled`].  The
/// clock is only consulted when a deadline is actually set, keeping the
/// unlimited path free of `Instant::now` calls.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Stop after this many state steps (checked at round boundaries,
    /// so a round may overshoot by its frontier size).
    pub max_steps: Option<usize>,
    /// Stop after this many solver rounds.
    pub max_rounds: Option<usize>,
    /// Stop once `Instant::now()` passes this point.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Widening policy for infinite-height store co-domains.
    pub widen: WidenPolicy,
}

impl Budget {
    /// A budget with no limits: the governed engines behave exactly like
    /// their classic open-loop counterparts.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bounds the number of state steps.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Bounds the number of solver rounds.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token (keep a clone to cancel with).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets the widening policy.
    pub fn with_widening(mut self, widen: WidenPolicy) -> Self {
        self.widen = widen;
        self
    }

    /// Whether no limit is set and the token is still un-cancelled
    /// clean, i.e. `exhausted` can only ever return `None`.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none()
            && self.max_rounds.is_none()
            && self.deadline.is_none()
            && !self.cancel.is_cancelled()
    }

    /// The wall-clock half of [`Budget::exhausted`]: cancellation and
    /// deadline only, independent of the work counters.
    ///
    /// This is the check the narrowing post-pass polls between state
    /// re-steps, so a governed solve with a deadline or a
    /// [`CancelToken`] cannot overrun its bound inside the refinement
    /// sweep.  The round/step budgets deliberately do *not* gate the
    /// pass: the widened store is already a sound `Complete` result, the
    /// pass's steps are not counted in
    /// [`EngineStats`](crate::engine::EngineStats) (they are refinement,
    /// not solve work), and a count-gated pass would truncate differently
    /// across engines whose step counts legitimately differ (elastic vs.
    /// sequential), breaking the cross-engine byte-identity of the
    /// narrowed store.
    #[inline]
    pub fn interrupted(&self) -> Option<ExhaustReason> {
        if self.cancel.is_cancelled() {
            return Some(ExhaustReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(ExhaustReason::DeadlineExpired);
            }
        }
        None
    }

    /// The round-boundary check: given the rounds completed and state
    /// steps performed so far, should the solve stop, and why?
    #[inline]
    pub fn exhausted(&self, rounds: usize, steps: usize) -> Option<ExhaustReason> {
        if let Some(reason) = self.interrupted() {
            return Some(reason);
        }
        if let Some(max_rounds) = self.max_rounds {
            if rounds >= max_rounds {
                return Some(ExhaustReason::RoundBudget);
            }
        }
        if let Some(max_steps) = self.max_steps {
            if steps >= max_steps {
                return Some(ExhaustReason::StepBudget);
            }
        }
        None
    }
}

/// What a partial solve needs to continue: the states discovered so far
/// and the accumulated store.  Re-seeding steps every carried state once
/// (rebuilding the dependency index) and then converges normally onto
/// the same least fixpoint as a one-shot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeSeed<K, S> {
    /// Every state the partial run discovered, in discovery order.
    pub states: Vec<K>,
    /// The accumulated (partial) store.
    pub store: S,
}

/// Where a governed solve starts: fresh from an initial state, or
/// continued from the [`ResumeSeed`] of a prior `Exhausted` outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveFrom<Ps, Seed> {
    /// Start a fresh solve from this initial state.
    Fresh(Ps),
    /// Continue from a prior partial's resume seed.
    Resume(Seed),
}

/// The result of a governed solve: the fixpoint, or a resumable partial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<Fp, Seed> {
    /// The solve converged; the value is the least fixpoint.
    Complete(Fp),
    /// The budget ran out first.  `partial` under-approximates the
    /// fixpoint; `resume_seed` continues the solve.
    Exhausted {
        /// The sound-so-far partial result.
        partial: Fp,
        /// Which limit fired.
        reason: ExhaustReason,
        /// Seed for a continuation run.
        resume_seed: Box<Seed>,
    },
}

impl<Fp, Seed> Outcome<Fp, Seed> {
    /// Whether the solve converged.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The (possibly partial) result value.
    pub fn value(&self) -> &Fp {
        match self {
            Outcome::Complete(value) => value,
            Outcome::Exhausted { partial, .. } => partial,
        }
    }

    /// Consumes the outcome, returning the (possibly partial) value.
    pub fn into_value(self) -> Fp {
        match self {
            Outcome::Complete(value) => value,
            Outcome::Exhausted { partial, .. } => partial,
        }
    }

    /// Unwraps a `Complete` outcome.
    ///
    /// # Panics
    /// If the solve exhausted its budget — only call this when the
    /// budget is [`Budget::unlimited`].
    #[track_caller]
    pub fn into_complete(self) -> Fp {
        match self {
            Outcome::Complete(value) => value,
            Outcome::Exhausted { reason, .. } => {
                panic!("solve exhausted its budget ({reason}) where completion was guaranteed")
            }
        }
    }

    /// The exhaustion reason, if the budget fired.
    pub fn exhaust_reason(&self) -> Option<ExhaustReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Exhausted { reason, .. } => Some(*reason),
        }
    }

    /// Maps the result value, preserving the outcome shape.
    pub fn map<Fp2>(self, f: impl FnOnce(Fp) -> Fp2) -> Outcome<Fp2, Seed> {
        match self {
            Outcome::Complete(value) => Outcome::Complete(f(value)),
            Outcome::Exhausted {
                partial,
                reason,
                resume_seed,
            } => Outcome::Exhausted {
                partial: f(partial),
                reason,
                resume_seed,
            },
        }
    }
}

/// A clean engine failure: the machinery (not the analysis) went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A parallel worker panicked mid-phase.  The pool was drained and
    /// shut down cleanly; no fixpoint was produced.
    WorkerPanicked {
        /// The panic message, when it was a string payload.
        message: String,
    },
}

impl EngineError {
    /// Builds a `WorkerPanicked` from a caught panic payload, extracting
    /// the message when the payload is a `&str` or `String`.
    pub fn worker_panicked(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_owned()
        };
        EngineError::WorkerPanicked { message }
    }

    /// The human-readable failure message.
    pub fn message(&self) -> &str {
        match self {
            EngineError::WorkerPanicked { message } => message,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanicked { message } => {
                write!(f, "parallel worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Which rung of the degradation ladder produced the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// The barrier-elastic parallel driver succeeded.
    Elastic,
    /// Elastic faulted; the plain barrier driver succeeded.
    Barrier,
    /// Both parallel drivers faulted; the sequential direct engine
    /// (which never consults the fault plan) produced the result.
    SequentialDirect,
}

impl LadderRung {
    /// A stable lower-case identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            LadderRung::Elastic => "elastic",
            LadderRung::Barrier => "barrier",
            LadderRung::SequentialDirect => "sequential-direct",
        }
    }
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a degradation-ladder solve went: which rung answered and what
/// the faulted rungs reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderReport {
    /// The rung that produced the returned outcome.
    pub rung: LadderRung,
    /// Errors from the rungs that faulted, in descent order.
    pub faults: Vec<(LadderRung, EngineError)>,
}

impl LadderReport {
    /// Whether any rung faulted before one answered.
    pub fn degraded(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Deterministic fault injection for the parallel drivers.
///
/// A `FaultPlan` maps `(worker, nth-step)` points to actions: each
/// worker counts the states it steps (its own deterministic counter),
/// and when worker `w` is about to perform its `n`-th step and the plan
/// holds a fault at `(w, n)`, the action fires — a forced panic
/// (exercising containment and the ladder) or a delay (exercising
/// slow-worker interleavings).  Counting is per *worker index*, not per
/// state, so plans stay meaningful across programs.
///
/// Plans only take effect under the `fault-inject` feature via
/// `FaultPlan::install` (only compiled with the feature, hence no
/// intra-doc link); without the feature the hook the workers call
/// is an empty inline function and the plan is inert data.  The
/// coordinator's inline singleton path acts as worker 0, so worker-0
/// faults fire there too — still contained by the solve-level
/// `catch_unwind`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault points, in no particular order.
    pub faults: Vec<FaultSpec>,
}

/// One fault point of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Worker index the fault targets.
    pub worker: usize,
    /// Fires just before the worker's `nth_step`-th step (0-based).
    pub nth_step: usize,
    /// What happens at the fault point.
    pub action: FaultAction,
}

/// The action at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a deterministic message.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a forced panic just before `worker`'s `nth_step`-th step.
    pub fn panic_at(mut self, worker: usize, nth_step: usize) -> Self {
        self.faults.push(FaultSpec {
            worker,
            nth_step,
            action: FaultAction::Panic,
        });
        self
    }

    /// Adds a delay of `millis` just before `worker`'s `nth_step`-th step.
    pub fn delay_at(mut self, worker: usize, nth_step: usize, millis: u64) -> Self {
        self.faults.push(FaultSpec {
            worker,
            nth_step,
            action: FaultAction::Delay(Duration::from_millis(millis)),
        });
        self
    }
}

#[cfg(feature = "fault-inject")]
mod injection {
    use super::{FaultAction, FaultPlan};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

    /// Serializes concurrently-installing tests: only one plan can be
    /// active at a time, and `install` blocks until the previous
    /// [`FaultGuard`] drops.
    static SERIAL: Mutex<()> = Mutex::new(());
    static INSTALLED: RwLock<Option<Installed>> = RwLock::new(None);

    struct Installed {
        faults: Vec<super::FaultSpec>,
        /// One deterministic step counter per worker index the plan
        /// mentions (workers beyond the plan are not counted).
        counters: Vec<AtomicUsize>,
    }

    /// Keeps a [`FaultPlan`] active; dropping it uninstalls the plan.
    pub struct FaultGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *INSTALLED.write().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    impl FaultPlan {
        /// Installs the plan globally for the parallel drivers.  Blocks
        /// until any previously-installed plan's guard drops (plans are
        /// process-global, so concurrent tests serialize here).
        pub fn install(self) -> FaultGuard {
            let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
            let workers = self.faults.iter().map(|f| f.worker + 1).max().unwrap_or(0);
            let counters = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            *INSTALLED.write().unwrap_or_else(PoisonError::into_inner) = Some(Installed {
                faults: self.faults,
                counters,
            });
            FaultGuard { _serial: serial }
        }
    }

    /// The worker-side hook: counts `worker`'s step and fires any fault
    /// registered at this `(worker, nth-step)` point.
    pub(crate) fn fault_point(worker: usize) {
        let installed = INSTALLED.read().unwrap_or_else(PoisonError::into_inner);
        let Some(plan) = installed.as_ref() else {
            return;
        };
        let Some(counter) = plan.counters.get(worker) else {
            return;
        };
        let nth = counter.fetch_add(1, Ordering::Relaxed);
        for fault in &plan.faults {
            if fault.worker == worker && fault.nth_step == nth {
                match fault.action {
                    FaultAction::Panic => {
                        panic!("injected fault: worker {worker} panicked at step {nth}")
                    }
                    FaultAction::Delay(duration) => std::thread::sleep(duration),
                }
            }
        }
    }
}

#[cfg(feature = "fault-inject")]
pub use injection::FaultGuard;

#[cfg(feature = "fault-inject")]
pub(crate) use injection::fault_point;

/// The worker-side fault hook compiles to nothing without the
/// `fault-inject` feature.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn fault_point(_worker: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert_eq!(budget.exhausted(usize::MAX, usize::MAX), None);
    }

    #[test]
    fn round_and_step_limits_fire_at_their_boundaries() {
        let rounds = Budget::unlimited().with_max_rounds(3);
        assert_eq!(rounds.exhausted(2, 1_000_000), None);
        assert_eq!(rounds.exhausted(3, 0), Some(ExhaustReason::RoundBudget));
        let steps = Budget::unlimited().with_max_steps(10);
        assert_eq!(steps.exhausted(1_000_000, 9), None);
        assert_eq!(steps.exhausted(0, 10), Some(ExhaustReason::StepBudget));
    }

    #[test]
    fn cancellation_wins_over_other_limits() {
        let token = CancelToken::new();
        let budget = Budget::unlimited()
            .with_max_rounds(0)
            .with_cancel(token.clone());
        assert_eq!(budget.exhausted(5, 5), Some(ExhaustReason::RoundBudget));
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(budget.exhausted(5, 5), Some(ExhaustReason::Cancelled));
        assert!(!budget.is_unlimited());
    }

    #[test]
    fn expired_deadline_fires() {
        let budget = Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(budget.exhausted(0, 0), Some(ExhaustReason::DeadlineExpired));
    }

    #[test]
    fn outcome_accessors_and_map() {
        let complete: Outcome<u32, ()> = Outcome::Complete(7);
        assert!(complete.is_complete());
        assert_eq!(*complete.value(), 7);
        assert_eq!(complete.clone().into_complete(), 7);
        assert_eq!(complete.map(|v| v + 1).into_value(), 8);

        let exhausted: Outcome<u32, &'static str> = Outcome::Exhausted {
            partial: 3,
            reason: ExhaustReason::StepBudget,
            resume_seed: Box::new("seed"),
        };
        assert!(!exhausted.is_complete());
        assert_eq!(exhausted.exhaust_reason(), Some(ExhaustReason::StepBudget));
        assert_eq!(exhausted.into_value(), 3);
    }

    #[test]
    #[should_panic(expected = "exhausted its budget (steps)")]
    fn into_complete_panics_on_exhaustion() {
        let exhausted: Outcome<u32, ()> = Outcome::Exhausted {
            partial: 0,
            reason: ExhaustReason::StepBudget,
            resume_seed: Box::new(()),
        };
        let _ = exhausted.into_complete();
    }

    #[test]
    fn engine_error_extracts_panic_messages() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("boom");
        let err = EngineError::worker_panicked(boxed.as_ref());
        assert_eq!(err.message(), "boom");
        assert!(err.to_string().contains("worker panicked: boom"));
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("kaput"));
        assert_eq!(
            EngineError::worker_panicked(boxed.as_ref()).message(),
            "kaput"
        );
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u8);
        assert_eq!(
            EngineError::worker_panicked(boxed.as_ref()).message(),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn fault_plan_builders_accumulate_specs() {
        let plan = FaultPlan::new().panic_at(1, 3).delay_at(0, 2, 5);
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(
            plan.faults[0],
            FaultSpec {
                worker: 1,
                nth_step: 3,
                action: FaultAction::Panic
            }
        );
        assert_eq!(
            plan.faults[1],
            FaultSpec {
                worker: 0,
                nth_step: 2,
                action: FaultAction::Delay(Duration::from_millis(5))
            }
        );
    }
}
