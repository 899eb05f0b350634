//! Shared corpus machinery for the root integration suites.
//!
//! The committed seeds and the deterministic λ-term generator they drive
//! are used by both `tests/differential.rs` (the engine pentagon) and
//! `tests/governance.rs` (budgets, resume, panics), so the corpus the two
//! suites exercise is literally the same set of programs.  Each seed
//! drives a deterministic xorshift generator from which a λ-term is
//! drawn; the corpus they induce is fixed until this list (or the
//! generator) changes, so the list is part of the reviewable surface.

#![allow(dead_code)]

use mai_lambda::syntax::TermBuilder;
use mai_lambda::Term;
use proptest::prelude::*;
use proptest::test_runner::Rng;

/// The committed seeds driving the full-matrix replays.
pub const COMMITTED_SEEDS: [u64; 10] = [
    0x0000_0000_DEAD_BEEF,
    0x0123_4567_89AB_CDEF,
    0x1BAD_B002_CAFE_F00D,
    0x2C3A_4D5E_6F70_8192,
    0x3141_5926_5358_9793,
    0x4242_4242_4242_4242,
    0x5A5A_5A5A_A5A5_A5A5,
    0x6B8B_4567_327B_23C6,
    0x7FFF_FFFF_FFFF_FFF1,
    0x8000_0000_0000_0001,
];

/// The thread counts every parallel differential run is replayed at.
pub const PARALLEL_THREADS: [usize; 3] = [1, 2, 4];

/// The label-free shape of a generated term; conversion assigns labels
/// through a `TermBuilder` in a deterministic traversal order.
#[derive(Debug, Clone)]
pub enum Shape {
    /// A variable reference from the 3-name pool (may be unbound — the
    /// machines treat unbound lookups as stuck, which the engines must
    /// agree on too).
    Var(u8),
    /// λ-abstraction over a pool name.
    Lam(u8, Box<Shape>),
    /// Application.
    App(Box<Shape>, Box<Shape>),
    /// `let` binding of a pool name.
    Let(u8, Box<Shape>, Box<Shape>),
}

pub fn shape_strategy() -> BoxedStrategy<Shape> {
    let leaf = prop_oneof![
        (0u8..3).prop_map(Shape::Var),
        ((0u8..3), (0u8..3)).prop_map(|(p, v)| Shape::Lam(p, Box::new(Shape::Var(v)))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            ((0u8..3), inner.clone()).prop_map(|(p, b)| Shape::Lam(p, Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(f, a)| Shape::App(Box::new(f), Box::new(a))),
            ((0u8..3), inner.clone(), inner.clone()).prop_map(|(n, r, b)| Shape::Let(
                n,
                Box::new(r),
                Box::new(b)
            )),
        ]
    })
}

fn pool_name(i: u8) -> String {
    format!("v{}", i % 3)
}

pub fn to_term(shape: &Shape, b: &mut TermBuilder) -> Term {
    match shape {
        Shape::Var(i) => Term::var(pool_name(*i)),
        Shape::Lam(p, body) => {
            let body = to_term(body, b);
            Term::lam(pool_name(*p), body)
        }
        Shape::App(f, a) => {
            let f = to_term(f, b);
            let a = to_term(a, b);
            b.app(f, a)
        }
        Shape::Let(n, rhs, body) => {
            let rhs = to_term(rhs, b);
            let body = to_term(body, b);
            b.let_in(&pool_name(*n), rhs, body)
        }
    }
}

/// Draws one λ-term from a seeded deterministic generator.
pub fn term_from_seed(seed: u64) -> Term {
    let mut rng = Rng::new(seed);
    let shape = shape_strategy().generate(&mut rng);
    to_term(&shape, &mut TermBuilder::new())
}
