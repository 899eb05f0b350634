//! Kleene iteration: computing least fixed points by ascending iteration
//! from `⊥` (paper §5.2, equation (1)).

use super::{Lattice, WidenLattice};

/// Computes the least fixed point of a monotone function by Kleene
/// iteration, as the paper's `kleeneIt`:
///
/// ```text
/// kleeneIt f = loop ⊥  where loop c = let c' = f c in if c' ⊑ c then c else loop c'
/// ```
///
/// The iterate is maintained as a *running accumulator*: each round joins
/// `f(current)` into `current` with the change-tracking
/// [`Lattice::join_in_place`], and the iteration stops as soon as a round
/// reports no growth (`f(current) ⊑ current` — the same stopping condition
/// as the paper's, detected by the change flag instead of a whole-domain
/// comparison per round).  For a monotone `f` the Kleene sequence from `⊥`
/// is ascending, so accumulation computes exactly the paper's iterates and
/// the same least fixed point; for a non-monotone `f` it computes the least
/// fixed point of the inflationary closure `λx. x ⊔ f(x)`.
///
/// # Termination
///
/// Terminates when the iterates stabilise; over a finite-height lattice (the
/// abstract domains of the framework) this always happens.  For domains of
/// unbounded height widen ([`kleene_it_widened`]), or bound the rounds of a
/// collecting semantics with
/// [`explore_fp_governed`](crate::collect::explore_fp_governed).
///
/// ```rust
/// use std::collections::BTreeSet;
/// use mai_core::lattice::kleene_it;
///
/// // Reachability in a tiny graph: 0 -> 1 -> 2.
/// let fixed: BTreeSet<u8> = kleene_it(|s: &BTreeSet<u8>| {
///     let mut next = s.clone();
///     next.insert(0);
///     next.extend(s.iter().filter(|&&n| n < 2).map(|&n| n + 1));
///     next
/// });
/// assert_eq!(fixed, [0u8, 1, 2].into_iter().collect());
/// ```
pub fn kleene_it<L, F>(f: F) -> L
where
    L: Lattice,
    F: Fn(&L) -> L,
{
    let mut current = L::bottom();
    loop {
        let next = f(&current);
        if !current.join_in_place(next) {
            return current;
        }
    }
}

/// Widened Kleene iteration: ascends by plain join for `delay` rounds
/// (the standard *widening delay*, buying precision while the iterates are
/// still informative), then switches the accumulation point to
/// [`WidenLattice::widen_in_place`] so the chain provably stabilises even
/// over an infinite-height domain such as
/// [`Interval`](crate::lattice::Interval).
///
/// The result is a *post-fixpoint* of `λx. x ⊔ f(x)` (widening covers the
/// join), i.e. a sound over-approximation of the least fixed point; run
/// [`narrow_it`] afterwards to walk precision back.
///
/// ```rust
/// use mai_core::lattice::{kleene_it_widened, Interval, Lattice};
///
/// // A counting loop: x ↦ [0,0] ⊔ (x + [1,1]) — diverges under kleene_it.
/// let post = kleene_it_widened(
///     |x: &Interval| Interval::singleton(0).join(*x + Interval::singleton(1)),
///     3,
/// );
/// assert_eq!(post, Interval::at_least(0));
/// ```
pub fn kleene_it_widened<L, F>(f: F, delay: usize) -> L
where
    L: WidenLattice,
    F: Fn(&L) -> L,
{
    let mut current = L::bottom();
    let mut rounds = 0usize;
    loop {
        let next = f(&current);
        let changed = if rounds < delay {
            current.join_in_place(next)
        } else {
            current.widen_in_place(next)
        };
        if !changed {
            return current;
        }
        rounds += 1;
    }
}

/// Descending (narrowing) iteration from a post-fixpoint: computes
/// `x_{n+1} = x_n △ f(x_n)` for at most `max_passes` rounds, stopping as
/// soon as a pass refines nothing.
///
/// Starting from any post-fixpoint `x ⊒ f(x)` of a monotone `f`, every
/// narrowed iterate is still a post-fixpoint above the least fixed point
/// (`lfp ⊑ f(x) ⊑ x △ f(x) ⊑ x`), so the pass is sound whenever it
/// stops; the explicit `max_passes` bound makes it *total* even for
/// narrowings that oscillate.
pub fn narrow_it<L, F>(start: L, f: F, max_passes: usize) -> L
where
    L: WidenLattice,
    F: Fn(&L) -> L,
{
    let mut current = start;
    for _ in 0..max_passes {
        let image = f(&current);
        if !current.narrow_in_place(image) {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn kleene_reaches_closure_of_monotone_function() {
        let lfp: BTreeSet<u32> = kleene_it(|s: &BTreeSet<u32>| {
            let mut next = s.clone();
            next.insert(1);
            next.extend(s.iter().filter(|&&x| x < 64).map(|&x| x * 2));
            next
        });
        assert_eq!(lfp, [1u32, 2, 4, 8, 16, 32, 64].into_iter().collect());
    }

    #[test]
    fn kleene_of_constant_function_is_that_constant() {
        let constant: BTreeSet<u8> = [7u8].into_iter().collect();
        let expected = constant.clone();
        let lfp: BTreeSet<u8> = kleene_it(move |_| constant.clone());
        assert_eq!(lfp, expected);
    }

    #[test]
    fn widened_iteration_terminates_where_plain_kleene_diverges() {
        use crate::lattice::Interval;
        // The counting functional ascends forever under join…
        let f = |x: &Interval| Interval::singleton(0).join(*x + Interval::singleton(1));
        let mut plain = Interval::bottom();
        for round in 0..50 {
            let next = f(&plain);
            assert!(
                plain.join_in_place(next),
                "join stabilised in round {round}"
            );
        }
        assert_eq!(plain, Interval::range(0, 49));
        // …and stabilises at [0, +∞) once the accumulation point widens.
        for delay in [0usize, 1, 3, 10] {
            assert_eq!(kleene_it_widened(f, delay), Interval::at_least(0));
        }
    }

    #[test]
    fn narrowing_recovers_a_bounded_loop_counter() {
        use crate::lattice::{Interval, MeetLattice};
        // x ↦ [0,0] ⊔ ((x + 1) ⊓ (-∞, 10]): a loop counting up to 10.
        let f = |x: &Interval| {
            Interval::singleton(0).join((*x + Interval::singleton(1)).meet(Interval::at_most(10)))
        };
        let post = kleene_it_widened(f, 2);
        assert_eq!(post, Interval::at_least(0));
        // One descending pass replaces the widened +∞ with the true bound.
        let refined = narrow_it(post, f, 4);
        assert_eq!(refined, Interval::range(0, 10));
    }
}
