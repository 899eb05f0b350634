//! The concrete CESK interpreter, recovered from the monadic machine by
//! choosing a deterministic state monad over a real heap (the analogue of
//! paper §4 for the direct-style λ-calculus).

use std::collections::BTreeMap;
use std::fmt;

use mai_core::engine::Budget;
use mai_core::monad::{run_state, MonadFamily, MonadState, StateM};
use mai_core::name::{Label, Name};

use crate::machine::{kont_name, mnext, CeskInterface, Closure, Env, Kont, KontKind, PState};
use crate::syntax::{Term, Var};

/// A concrete heap address: a name (variable or synthetic continuation
/// name) paired with a globally fresh index.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapAddr {
    /// The name the cell was allocated for.
    pub name: Name,
    /// The globally unique allocation index.
    pub index: u64,
}

impl fmt::Debug for HeapAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}#{}", self.name, self.index)
    }
}

/// The concrete CESK heap: separate value and continuation cells plus a
/// fresh-address counter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Heap {
    next: u64,
    values: BTreeMap<HeapAddr, Closure<HeapAddr>>,
    konts: BTreeMap<HeapAddr, Kont<HeapAddr>>,
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

    /// How many cells were allocated for the given variable name.
    pub fn allocations_for(&self, name: &Name) -> usize {
        self.values.keys().filter(|a| &a.name == name).count()
    }
}

impl CeskInterface<HeapAddr> for StateM<Heap> {
    fn lookup(env: &Env<HeapAddr>, var: &Var, (): ()) -> Self::M<Closure<HeapAddr>> {
        let addr = env
            .get(var)
            .cloned()
            .unwrap_or_else(|| panic!("unbound variable `{}` in concrete execution", var));
        <Self as MonadState<Heap>>::gets(move |heap| {
            heap.values
                .get(&addr)
                .cloned()
                .unwrap_or_else(|| panic!("value address {:?} read before write", addr))
        })
    }

    fn kont_at(addr: &HeapAddr, (): ()) -> Self::M<Kont<HeapAddr>> {
        let addr = addr.clone();
        <Self as MonadState<Heap>>::gets(move |heap| {
            heap.konts
                .get(&addr)
                .cloned()
                .unwrap_or_else(|| panic!("continuation address {:?} read before write", addr))
        })
    }

    fn bind_val(addr: HeapAddr, val: Closure<HeapAddr>, (): ()) -> Self::M<()> {
        <Self as MonadState<Heap>>::modify(move |mut heap| {
            heap.values.insert(addr.clone(), val.clone());
            heap
        })
    }

    fn bind_kont(addr: HeapAddr, kont: Kont<HeapAddr>, (): ()) -> Self::M<()> {
        <Self as MonadState<Heap>>::modify(move |mut heap| {
            heap.konts.insert(addr.clone(), kont.clone());
            heap
        })
    }

    fn alloc_val(var: &Var, (): ()) -> Self::M<HeapAddr> {
        fresh(var.clone())
    }

    fn alloc_kont(site: Label, kind: KontKind, (): ()) -> Self::M<HeapAddr> {
        fresh(kont_name(site, kind))
    }

    fn tick(_site: Label, (): ()) -> Self::M<()> {
        <Self as MonadFamily>::pure(())
    }
}

fn fresh(name: Name) -> <StateM<Heap> as MonadFamily>::M<HeapAddr> {
    // Read and bump the counter in place: binding the whole heap with
    // `get` would clone it on every allocation.
    let next = <StateM<Heap> as MonadState<Heap>>::gets(|heap: &Heap| heap.next);
    <StateM<Heap> as MonadFamily>::bind(next, move |index| {
        let addr = HeapAddr {
            name: name.clone(),
            index,
        };
        <StateM<Heap> as MonadFamily>::then(
            <StateM<Heap> as MonadState<Heap>>::modify(|mut heap: Heap| {
                heap.next += 1;
                heap
            }),
            <StateM<Heap> as MonadFamily>::pure(addr),
        )
    })
}

/// The outcome of a concrete CESK run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program evaluated to a closure.
    Halted {
        /// The result value.
        value: Closure<HeapAddr>,
        /// The final heap.
        heap: Heap,
        /// How many machine transitions were taken.
        steps: usize,
    },
    /// The step budget ran out first.
    OutOfFuel {
        /// The last state reached.
        state: PState<HeapAddr>,
        /// The heap at that point.
        heap: Heap,
    },
    /// The machine got stuck (e.g. on an unbound variable) — the concrete
    /// counterpart of the abstract error layer: `mnext` produced an error
    /// state instead of panicking, so stuckness is an outcome, not a
    /// crash.
    Stuck {
        /// The error message carried by the stuck state.
        message: String,
        /// The heap at that point.
        heap: Heap,
        /// How many machine transitions were taken.
        steps: usize,
    },
}

impl Outcome {
    /// Whether evaluation finished.
    pub fn halted(&self) -> bool {
        matches!(self, Outcome::Halted { .. })
    }

    /// The result closure, if evaluation finished.
    pub fn value(&self) -> Option<&Closure<HeapAddr>> {
        match self {
            Outcome::Halted { value, .. } => Some(value),
            Outcome::OutOfFuel { .. } | Outcome::Stuck { .. } => None,
        }
    }

    /// The error message, if the run got stuck.
    pub fn stuck_message(&self) -> Option<&str> {
        match self {
            Outcome::Stuck { message, .. } => Some(message),
            _ => None,
        }
    }

    /// The heap at the end of the run.
    pub fn heap(&self) -> &Heap {
        match self {
            Outcome::Halted { heap, .. }
            | Outcome::OutOfFuel { heap, .. }
            | Outcome::Stuck { heap, .. } => heap,
        }
    }
}

/// Evaluates a closed term with the concrete CESK machine.  A term that
/// gets stuck (references an unbound variable) returns
/// [`Outcome::Stuck`].
pub fn evaluate_with_limit(term: &Term, max_steps: usize) -> Outcome {
    evaluate_governed(term, &Budget::unlimited().with_max_steps(max_steps))
}

/// Evaluates a closed term under a [`Budget`]: the governor is consulted
/// before every machine transition, so step limits, deadlines and
/// cancellation all land within one transition.  A concrete run has no
/// rounds, so the budget's round count advances in lockstep with its step
/// count.  A stuck term returns [`Outcome::Stuck`].
pub fn evaluate_governed(term: &Term, budget: &Budget) -> Outcome {
    let mut state = PState::inject(term.clone());
    let mut heap = Heap::new();
    let mut steps = 0usize;
    loop {
        if let Some(value) = state.result() {
            return Outcome::Halted {
                value: value.clone(),
                heap,
                steps,
            };
        }
        // Error states self-loop (they are final for `mnext`), so the
        // driver surfaces them as an outcome instead of spinning.
        if let Some(message) = state.error() {
            return Outcome::Stuck {
                message: message.to_owned(),
                heap,
                steps,
            };
        }
        if budget.exhausted(steps, steps).is_some() {
            return Outcome::OutOfFuel { state, heap };
        }
        let (next_state, next_heap) = run_state(mnext::<StateM<Heap>, HeapAddr>(state, ()), heap);
        state = next_state;
        heap = next_heap;
        steps += 1;
    }
}

/// Evaluates a closed term with a generous default step budget.  A stuck
/// term returns [`Outcome::Stuck`].
pub fn evaluate(term: &Term) -> Outcome {
    evaluate_with_limit(term, 1_000_000)
}

/// Decodes a Church numeral by applying it to a counting function: the
/// result is the number of times the numeral's `f` argument was invoked.
///
/// # Panics
///
/// Panics if `numeral` is not a closed term evaluating to a Church numeral.
pub fn decode_church_numeral(numeral: &Term) -> usize {
    // (numeral (λ cf. cf) (λ cx. cx)) — every application of the numeral's
    // `f` argument allocates a fresh binding of `cf`, so counting the
    // allocations of `cf` decodes the numeral.  Labels are irrelevant to
    // concrete evaluation, so a fresh builder is fine here.
    let mut builder = crate::syntax::TermBuilder::new();
    let applied = builder.apps(
        numeral.clone(),
        vec![
            Term::lam("cf", Term::var("cf")),
            Term::lam("cx", Term::var("cx")),
        ],
    );
    let outcome = evaluate(&applied);
    assert!(outcome.halted(), "church numeral decoding diverged");
    outcome.heap().allocations_for(&Name::from("cf"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{church_add, church_exp, church_mul, church_numeral, TermBuilder};

    #[test]
    fn identity_application_evaluates_to_the_argument() {
        let mut b = TermBuilder::new();
        let t = b.app(
            Term::lam("x", Term::var("x")),
            Term::lam("y", Term::var("y")),
        );
        let out = evaluate(&t);
        assert!(out.halted());
        assert_eq!(out.value().unwrap().param, Name::from("y"));
    }

    #[test]
    fn let_binds_and_returns_the_body() {
        let mut b = TermBuilder::new();
        let body = b.app(Term::var("f"), Term::lam("z", Term::var("z")));
        let t = b.let_in("f", Term::lam("x", Term::var("x")), body);
        let out = evaluate(&t);
        assert_eq!(out.value().unwrap().param, Name::from("z"));
    }

    #[test]
    fn omega_runs_out_of_fuel() {
        let mut b = TermBuilder::new();
        let ff = b.app(Term::var("f"), Term::var("f"));
        let gg = b.app(Term::var("g"), Term::var("g"));
        let omega = b.app(Term::lam("f", ff), Term::lam("g", gg));
        let out = evaluate_with_limit(&omega, 300);
        assert!(!out.halted());
    }

    #[test]
    fn church_numerals_decode_to_themselves() {
        let mut b = TermBuilder::new();
        for n in 0..5 {
            let numeral = church_numeral(&mut b, n);
            assert_eq!(decode_church_numeral(&numeral), n);
        }
    }

    #[test]
    fn church_arithmetic_is_correct() {
        let mut b = TermBuilder::new();
        let two = church_numeral(&mut b, 2);
        let three = church_numeral(&mut b, 3);

        let add = church_add(&mut b);
        let five = b.apps(add, vec![two.clone(), three.clone()]);
        assert_eq!(decode_church_numeral(&five), 5);

        let mul = church_mul(&mut b);
        let six = b.apps(mul, vec![two.clone(), three.clone()]);
        assert_eq!(decode_church_numeral(&six), 6);

        let exp = church_exp(&mut b);
        let eight = b.apps(exp, vec![two.clone(), three.clone()]);
        assert_eq!(decode_church_numeral(&eight), 8);

        let exp = church_exp(&mut b);
        let nine = b.apps(exp, vec![three, two]);
        assert_eq!(decode_church_numeral(&nine), 9);
    }

    #[test]
    fn open_terms_get_stuck() {
        let out = evaluate(&Term::var("free"));
        assert!(!out.halted());
        let message = out.stuck_message().expect("open term must get stuck");
        assert!(
            message.contains("unbound variable `free`"),
            "unexpected stuck message: {message}"
        );
    }
}
