//! Engine governance: budgets, cooperative cancellation and resumable
//! partials.
//!
//! Every engine is *governed* (the structural-key baseline, which only
//! differential tests and benchmarks run, is not):
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
//! ## Panics
//!
//! A governed solve stops in one way, with an [`Outcome`], and fails in
//! one way: a panicking step function propagates out of the solve with
//! its original payload, from every engine.  Parallel workers run each
//! phase under `catch_unwind` only so that a panicking worker still
//! reaches the phase barrier; the pool drains and shuts down before the
//! payload is re-raised on the caller's thread.

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
}
