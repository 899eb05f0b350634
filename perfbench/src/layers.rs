//! Spans around the benchmark's calls into each layer, and the layer sweep
//! that doubles as the post-fixpoint certificate.
//!
//! Spans are recorded from this file and `workloads.rs` only — the crates
//! under test are not instrumented.  They are kept in memory and summed
//! when the run ends; a span's self time is its duration minus the time
//! its child spans cover.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;
use std::hint::black_box;
use std::time::Instant;

use mai_core::gc::{reachable, Touches};
use mai_core::intern::{Interner, StateId};
use mai_core::monad::Value;
use mai_core::store::{StoreDelta, StoreLike};
use mai_core::telemetry::label_of;
use mai_core::{StateRoots, StepFn};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder: a stack of open spans plus every closed one.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Per-name totals of every closed span.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(child);
        }
        totals
    }
}

/// What the layer sweep counted.
#[derive(Debug, Clone, Default)]
pub struct SweepCounts {
    /// `(state, context)` pairs re-stepped.
    pub states: usize,
    /// Branches their transitions produced.
    pub branches: usize,
    /// Σ over states of the pre-state read-set closure size.
    pub readset_addrs: usize,
    /// Bindings of the branch stores before abstract GC (GC sweeps only).
    pub gc_bindings: usize,
    /// Bindings abstract GC dropped from them.
    pub gc_dropped: usize,
    /// How many certificate checks failed.
    pub violation_count: usize,
    /// The first few failures, described.
    pub violations: Vec<String>,
}

impl SweepCounts {
    fn violation(&mut self, what: &str, state: &impl std::fmt::Debug) {
        self.violation_count += 1;
        if self.violations.len() < 4 {
            self.violations
                .push(format!("{what} (stepping {})", label_of(state, 96)));
        }
    }
}

/// Re-steps every `(state, context)` pair of a shared-store fixpoint once
/// against its final store, replaying the sequence of the engine's step
/// from outside and timing each layer call in its own span: the read-set
/// closure, the transition, abstract GC (when `gc`), delta extraction,
/// interning and the folds.
///
/// It is also the post-fixpoint certificate `F(x) ⊑ x`: every successor must
/// be in the state set, every branch store must be ⊑ the final store, and
/// the initial pair must be in the state set.  Both checks use only the
/// lattice order and set membership, not the engines' caches.
pub fn sweep<Ps, G, S, F>(
    states: &BTreeSet<(Ps, G)>,
    initial: &(Ps, G),
    store: &S,
    step: &F,
    gc: bool,
    spans: &mut Spans,
) -> SweepCounts
where
    Ps: Value + Ord + Hash + StateRoots + std::fmt::Debug,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    let mut counts = SweepCounts::default();
    if !states.contains(initial) {
        counts.violation("the initial state is missing", &initial.0);
    }
    let mut interner: Interner<(Ps, G), StateId> = Interner::new();
    for key in states {
        interner.intern(key.clone());
    }
    for (ps, guts) in states {
        counts.states += 1;
        spans.enter("readset");
        let mut deps = reachable(ps.state_roots(), store);
        spans.exit();
        counts.readset_addrs += deps.len();

        spans.enter("transition");
        let branches = step.step(ps.clone(), guts.clone(), store.clone());
        spans.exit();

        let mut delta = S::bottom();
        for ((ps2, g2), s2) in branches {
            counts.branches += 1;
            let s2 = if gc {
                spans.enter("gc");
                let before = s2.binding_count();
                let live = reachable(ps2.state_roots(), &s2);
                let kept = s2.filter_store(|a| live.contains(a));
                spans.exit();
                counts.gc_bindings += before;
                counts.gc_dropped += before - kept.binding_count();
                kept
            } else {
                s2
            };

            spans.enter("delta");
            let changed = s2.changed_addresses(store);
            let mut dropped = false;
            for a in &changed {
                if s2.contains(a) {
                    deps.insert(a.clone());
                } else {
                    dropped = true;
                }
            }
            let restricted = s2.clone().restrict_to(&changed);
            spans.exit();
            if dropped {
                spans.enter("readset");
                deps.extend(reachable(ps2.state_roots(), &s2));
                spans.exit();
            }

            spans.enter("fold");
            delta.join_in_place(restricted);
            spans.exit();

            spans.enter("check");
            let store_ok = s2.leq(store);
            let key = (ps2, g2);
            let successor_ok = states.contains(&key);
            spans.exit();
            if !store_ok {
                counts.violation("a branch store is not below the fixpoint store", ps);
            }
            if !successor_ok {
                counts.violation("a successor is missing from the state set", ps);
            }

            spans.enter("intern");
            black_box(interner.intern(key));
            spans.exit();
        }

        spans.enter("fold");
        let mut folded = store.clone();
        let grew = folded.join_in_place_delta(delta);
        spans.exit();
        if !grew.is_empty() {
            counts.violation("folding the step grew the fixpoint store", ps);
        }
        black_box(deps.len());
    }
    counts
}
