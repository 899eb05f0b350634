//! Recovering a concrete interpreter from the monadic semantics (paper §4).
//!
//! The paper demonstrates that the *same* `mnext` that drives every static
//! analysis also yields an ordinary interpreter once the monad is chosen to
//! be "the real world": Haskell's `IO` monad with `IORef`s as addresses.
//! In Rust we play the same trick with a deterministic [`StateM`] monad
//! threading an explicit, unboundedly growing heap — every allocation is
//! fresh, lookups are exact, updates are strong, and `tick` is a no-op
//! ("in the real world, time advances without our help").

use std::collections::BTreeMap;
use std::fmt;

use mai_core::engine::Budget;
use mai_core::monad::{run_state, MonadFamily, MonadState, StateM};
use mai_core::name::Name;

use crate::semantics::{mnext, CpsInterface, Env, PState, Val};
use crate::syntax::{AExp, CExp, Var};

/// A concrete heap address: a variable name paired with a globally fresh
/// allocation index (the moral equivalent of an `IORef`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapAddr {
    /// The variable this cell was allocated for (for readability only).
    pub name: Name,
    /// The globally unique allocation index.
    pub index: u64,
}

impl fmt::Debug for HeapAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}#{}", self.name, self.index)
    }
}

/// The concrete heap: a map from addresses to values plus a fresh-address
/// counter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Heap {
    next: u64,
    cells: BTreeMap<HeapAddr, Val<HeapAddr>>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// The number of cells ever allocated.
    pub fn allocation_count(&self) -> u64 {
        self.next
    }

    /// Reads a cell, if it has been written.
    pub fn read(&self, addr: &HeapAddr) -> Option<&Val<HeapAddr>> {
        self.cells.get(addr)
    }

    /// How many cells were allocated for the given variable name — used by
    /// the Church-numeral decoder of [`crate::convert`] and by adequacy
    /// tests.
    pub fn allocations_for(&self, name: &Name) -> usize {
        self.cells.keys().filter(|a| &a.name == name).count()
    }
}

/// The concrete-interpreter instance of the CPS semantic interface: the
/// monad is a deterministic state monad over the [`Heap`].
///
/// # Panics
///
/// The unbound-variable and read-before-write panics are defensive
/// invariants: `mnext`'s pure stuck checks turn unbound references into
/// [`CExp::Error`] states before `fun`/`arg` run, and fresh allocation
/// writes every address before it can be read.
impl CpsInterface<HeapAddr> for StateM<Heap> {
    fn fun(env: &Env<HeapAddr>, e: &AExp, (): ()) -> Self::M<Val<HeapAddr>> {
        match e {
            AExp::Lam(lam) => <Self as MonadFamily>::pure(Val::closure(lam.clone(), env.clone())),
            AExp::Ref(v) => {
                let addr = env
                    .get(v)
                    .cloned()
                    .unwrap_or_else(|| panic!("unbound variable `{}` in concrete execution", v));
                <Self as MonadState<Heap>>::gets(move |heap| {
                    heap.read(&addr)
                        .cloned()
                        .unwrap_or_else(|| panic!("address {:?} read before being written", addr))
                })
            }
        }
    }

    fn arg(env: &Env<HeapAddr>, e: &AExp, cx: ()) -> Self::M<Val<HeapAddr>> {
        Self::fun(env, e, cx)
    }

    fn write(addr: HeapAddr, val: Val<HeapAddr>, (): ()) -> Self::M<()> {
        <Self as MonadState<Heap>>::modify(move |mut heap| {
            heap.cells.insert(addr.clone(), val.clone());
            heap
        })
    }

    fn alloc(var: &Var, (): ()) -> Self::M<HeapAddr> {
        let var = var.clone();
        // Read and bump the counter in place: binding the whole heap with
        // `get` would clone it on every allocation.
        let next = <Self as MonadState<Heap>>::gets(|heap: &Heap| heap.next);
        <Self as MonadFamily>::bind(next, move |index| {
            let addr = HeapAddr {
                name: var.clone(),
                index,
            };
            <Self as MonadFamily>::then(
                <Self as MonadState<Heap>>::modify(|mut heap: Heap| {
                    heap.next += 1;
                    heap
                }),
                <Self as MonadFamily>::pure(addr),
            )
        })
    }

    fn tick(_proc: &Val<HeapAddr>, _ps: &PState<HeapAddr>, (): ()) -> Self::M<()> {
        // In the real world, time advances without our help.
        <Self as MonadFamily>::pure(())
    }
}

/// The outcome of running the concrete interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program reached `exit`; the final state and heap are returned.
    Halted {
        /// The final machine state.
        state: PState<HeapAddr>,
        /// The final heap.
        heap: Heap,
        /// How many transitions were taken.
        steps: usize,
    },
    /// The step budget was exhausted before reaching `exit`.
    OutOfFuel {
        /// The state reached when the budget ran out.
        state: PState<HeapAddr>,
        /// The heap at that point.
        heap: Heap,
    },
    /// The program got stuck (e.g. on an unbound variable or an arity
    /// mismatch) — the concrete counterpart of the abstract error layer:
    /// `mnext` produced an error state instead of panicking, so
    /// stuckness is an outcome, not a crash.
    Stuck {
        /// The stuck (error) machine state.
        state: PState<HeapAddr>,
        /// The heap at that point.
        heap: Heap,
        /// How many transitions were taken.
        steps: usize,
    },
}

impl Outcome {
    /// Whether the program halted normally.
    pub fn halted(&self) -> bool {
        matches!(self, Outcome::Halted { .. })
    }

    /// The final (or last) state.
    pub fn state(&self) -> &PState<HeapAddr> {
        match self {
            Outcome::Halted { state, .. }
            | Outcome::OutOfFuel { state, .. }
            | Outcome::Stuck { state, .. } => state,
        }
    }

    /// The error message, if the run got stuck.
    pub fn stuck_message(&self) -> Option<&str> {
        match self {
            Outcome::Stuck { state, .. } => state.error(),
            _ => None,
        }
    }

    /// The final (or last) heap.
    pub fn heap(&self) -> &Heap {
        match self {
            Outcome::Halted { heap, .. }
            | Outcome::OutOfFuel { heap, .. }
            | Outcome::Stuck { heap, .. } => heap,
        }
    }
}

/// Runs a CPS program with the concrete interpreter — the paper's
/// `interpret` driver loop of §4 — with a step budget so that divergent
/// programs return [`Outcome::OutOfFuel`] instead of looping forever.
/// Stuck programs (unbound variable, arity mismatch) return
/// [`Outcome::Stuck`].
pub fn interpret_with_limit(program: &CExp, max_steps: usize) -> Outcome {
    interpret_governed(program, &Budget::unlimited().with_max_steps(max_steps))
}

/// Runs a CPS program under a [`Budget`]: the governor is consulted before
/// every machine transition, so step limits, deadlines and cancellation
/// all land within one transition.  A concrete run has no rounds, so the
/// budget's round count advances in lockstep with its step count.  Stuck
/// programs return [`Outcome::Stuck`].
pub fn interpret_governed(program: &CExp, budget: &Budget) -> Outcome {
    let mut state = PState::inject(program.clone());
    let mut heap = Heap::new();
    let mut steps = 0usize;
    loop {
        if state.is_final() {
            return Outcome::Halted { state, heap, steps };
        }
        // Error states self-loop (they are final for `mnext`), so the
        // driver surfaces them as an outcome instead of spinning.
        if state.is_error() {
            return Outcome::Stuck { state, heap, steps };
        }
        if budget.exhausted(steps, steps).is_some() {
            return Outcome::OutOfFuel { state, heap };
        }
        let computation = mnext::<StateM<Heap>, HeapAddr>(state, ());
        let (next_state, next_heap) = run_state(computation, heap);
        state = next_state;
        heap = next_heap;
        steps += 1;
    }
}

/// Runs a CPS program to completion with a generous default step budget.
/// Stuck programs return [`Outcome::Stuck`]; divergent programs are
/// reported as [`Outcome::OutOfFuel`] after 1 000 000 steps.
pub fn interpret(program: &CExp) -> Outcome {
    interpret_with_limit(program, 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn identity_application_halts() {
        let p = parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap();
        let out = interpret(&p);
        assert!(out.halted());
        assert!(out.state().is_final());
        assert!(out.heap().allocation_count() >= 3);
    }

    #[test]
    fn trivial_exit_takes_zero_steps() {
        let out = interpret(&CExp::Exit);
        match out {
            Outcome::Halted { steps, .. } => assert_eq!(steps, 0),
            Outcome::OutOfFuel { .. } | Outcome::Stuck { .. } => panic!("exit must halt"),
        }
    }

    #[test]
    fn omega_runs_out_of_fuel() {
        // ((λ (f) (f f)) (λ (g) (g g))) — the classic divergent term.
        let p = parse_program("((λ (f) (f f)) (λ (g) (g g)))").unwrap();
        let out = interpret_with_limit(&p, 500);
        assert!(!out.halted());
    }

    #[test]
    fn every_step_allocates_fresh_addresses() {
        // Each call of the identity allocates new cells; addresses never
        // collide, so the heap grows monotonically.
        let p = parse_program(
            "((λ (id k) (id id (λ (id2) (id2 id2 k))))
              (λ (x j) (j x))
              (λ (r) exit))",
        )
        .unwrap();
        let out = interpret(&p);
        assert!(out.halted());
        assert!(out.heap().allocation_count() >= 6);
    }

    #[test]
    fn final_environment_binds_the_result() {
        // The final continuation binds `r` before exiting, so the heap holds
        // a closure for `r`'s address.
        let p = parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap();
        let out = interpret(&p);
        let r_addr = out.state().env.get(&Name::from("r")).cloned().unwrap();
        let bound = out.heap().read(&r_addr).unwrap();
        assert_eq!(bound.lambda().params()[0], Name::from("y"));
    }

    #[test]
    fn open_programs_get_stuck() {
        let p = CExp::call(mai_core::name::Label::new(1), AExp::var("free"), vec![]);
        let out = interpret(&p);
        assert!(!out.halted());
        let message = out.stuck_message().expect("open program must get stuck");
        assert!(
            message.contains("unbound variable `free`"),
            "unexpected stuck message: {message}"
        );
    }

    #[test]
    fn arity_mismatches_get_stuck() {
        // ((λ (x k) (k x)) (λ (y) exit)) — a two-parameter callee applied
        // to one argument.
        let p = parse_program("((λ (x k) (k x)) (λ (y) exit))").unwrap();
        let out = interpret(&p);
        let message = out.stuck_message().expect("arity mismatch must get stuck");
        assert!(
            message.contains("arity mismatch"),
            "unexpected stuck message: {message}"
        );
    }
}
