//! The concrete Featherweight Java interpreter, recovered from the monadic
//! machine with a deterministic state monad over a real heap.

use std::collections::BTreeMap;
use std::fmt;

use mai_core::engine::Budget;
use mai_core::monad::{run_state, MonadFamily, MonadState, StateM};
use mai_core::name::{Label, Name};

use crate::machine::{kont_name, mnext, Env, FjInterface, Kont, KontKind, Obj, PState};
use crate::syntax::{ClassName, Program, VarName};

/// A concrete heap address.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapAddr {
    /// The name the cell was allocated for (variable, field or synthetic
    /// continuation name).
    pub name: Name,
    /// The globally unique allocation index.
    pub index: u64,
}

impl fmt::Debug for HeapAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}#{}", self.name, self.index)
    }
}

/// The concrete heap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Heap {
    next: u64,
    values: BTreeMap<HeapAddr, Obj<HeapAddr>>,
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

    /// Reads an object cell.
    pub fn read(&self, addr: &HeapAddr) -> Option<&Obj<HeapAddr>> {
        self.values.get(addr)
    }
}

impl FjInterface<HeapAddr> for StateM<Heap> {
    fn lookup(env: &Env<HeapAddr>, var: &VarName, cx: ()) -> Self::M<Obj<HeapAddr>> {
        let addr = env
            .get(var)
            .cloned()
            .unwrap_or_else(|| panic!("unbound variable `{}` in concrete execution", var));
        Self::fetch(&addr, cx)
    }

    fn fetch(addr: &HeapAddr, (): ()) -> Self::M<Obj<HeapAddr>> {
        let addr = addr.clone();
        <Self as MonadState<Heap>>::gets(move |heap| {
            heap.values
                .get(&addr)
                .cloned()
                .unwrap_or_else(|| panic!("object address {:?} read before write", addr))
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

    fn bind_val(addr: HeapAddr, val: Obj<HeapAddr>, (): ()) -> Self::M<()> {
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

    fn alloc(name: &Name, (): ()) -> Self::M<HeapAddr> {
        fresh(name.clone())
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

/// The outcome of a concrete FJ run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program evaluated to an object of this class.
    Halted {
        /// The result object.
        value: Obj<HeapAddr>,
        /// The final heap.
        heap: Heap,
        /// How many transitions were taken.
        steps: usize,
    },
    /// The machine got stuck (failed downcast, missing method, …).
    Stuck {
        /// Why the machine got stuck.
        reason: String,
    },
    /// The step budget ran out.
    OutOfFuel {
        /// The last state reached.
        state: PState<HeapAddr>,
    },
}

impl Outcome {
    /// Whether evaluation finished normally.
    pub fn halted(&self) -> bool {
        matches!(self, Outcome::Halted { .. })
    }

    /// The class of the result, if evaluation finished.
    pub fn result_class(&self) -> Option<ClassName> {
        match self {
            Outcome::Halted { value, .. } => Some(value.class.clone()),
            _ => None,
        }
    }
}

/// Runs a Featherweight Java program concretely.
///
/// # Panics
///
/// Panics if the program references unbound variables (which
/// [`crate::typecheck::check_program`] rules out).
pub fn run_with_limit(program: &Program, max_steps: usize) -> Outcome {
    run_governed(program, &Budget::unlimited().with_max_steps(max_steps))
}

/// Runs a Featherweight Java program under a [`Budget`]: the governor is
/// consulted before every machine transition, so step limits, deadlines
/// and cancellation all land within one transition.  A concrete run has no
/// rounds, so the budget's round count advances in lockstep with its step
/// count.
///
/// # Panics
///
/// Panics if the program references unbound variables (which
/// [`crate::typecheck::check_program`] rules out).
pub fn run_governed(program: &Program, budget: &Budget) -> Outcome {
    let mut state = PState::inject(program.main.clone());
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
        if let crate::machine::Control::Stuck(reason) = &state.control {
            return Outcome::Stuck {
                reason: reason.clone(),
            };
        }
        if budget.exhausted(steps, steps).is_some() {
            return Outcome::OutOfFuel { state };
        }
        let (next_state, next_heap) = run_state(
            mnext::<StateM<Heap>, HeapAddr>(&program.table, state, ()),
            heap,
        );
        state = next_state;
        heap = next_heap;
        steps += 1;
    }
}

/// Runs a Featherweight Java program with a generous default step budget.
///
/// # Panics
///
/// Panics if the program references unbound variables.
pub fn run(program: &Program) -> Outcome {
    run_with_limit(program, 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn pair_fst_evaluates_to_an_a() {
        let out = run(&programs::pair_fst());
        assert!(out.halted());
        assert_eq!(out.result_class(), Some(Name::from("A")));
    }

    #[test]
    fn setter_builds_a_new_pair() {
        let out = run(&programs::pair_swap_first());
        assert!(out.halted());
        assert_eq!(out.result_class(), Some(Name::from("B")));
    }

    #[test]
    fn two_cells_returns_the_first_content() {
        let out = run(&programs::two_cells());
        assert_eq!(out.result_class(), Some(Name::from("A")));
    }

    #[test]
    fn good_downcast_succeeds_and_bad_downcast_sticks() {
        let ok = run(&programs::good_downcast());
        assert_eq!(ok.result_class(), Some(Name::from("B")));
        let bad = run(&programs::bad_downcast());
        assert!(matches!(bad, Outcome::Stuck { .. }));
    }

    #[test]
    fn visitor_dispatch_selects_the_overriding_method() {
        let out = run(&programs::shape_dispatch());
        assert!(out.halted());
        assert_eq!(out.result_class(), Some(Name::from("Circle")));
    }

    #[test]
    fn heaps_grow_with_every_allocation() {
        let out = run(&programs::pair_fst());
        if let Outcome::Halted { heap, steps, .. } = out {
            assert!(heap.allocation_count() > 0);
            assert!(steps > 0);
            assert!(heap
                .read(&HeapAddr {
                    name: Name::from("does-not-exist"),
                    index: 999,
                })
                .is_none());
        } else {
            panic!("expected halt");
        }
    }
}
