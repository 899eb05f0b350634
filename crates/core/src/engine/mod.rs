//! The frontier-driven worklist fixpoint engine.
//!
//! The paper's `Collecting` interface (§5.2) deliberately decouples the
//! monadic transition function `mnext` from the *global* fixed-point
//! strategy that drives it — but the only strategy the paper (and the
//! [`explore_fp`](crate::collect::explore_fp) driver) provides is naive
//! Kleene iteration: every pass re-steps **every** state accumulated so
//! far, making the overall analysis quadratic in the number of discovered
//! states even though each state's successors almost never change.
//!
//! This module exploits the same decoupling in the other direction, the way
//! *Abstracting Definitional Interpreters* (Darais et al.) exploits its
//! caching fixpoint: a domain that implements [`FrontierCollecting`] (or,
//! from a desugared step function, [`DirectCollecting`]) is solved by a
//! frontier-driven engine that only re-steps states whose inputs may
//! actually have changed.
//!
//! Two solving strategies are provided, one per analysis domain:
//!
//! * **Per-state stores** ([`PerStateDomain`](crate::collect::PerStateDomain),
//!   §5.3.3): a `((state, guts), store)` triple is a *closed* unit — its
//!   successors depend on nothing else — so the engine is plain frontier
//!   reachability over triples: a seen-set plus a FIFO worklist, each triple
//!   stepped exactly once.
//! * **Shared (widened) store**
//!   ([`SharedStoreDomain`](crate::collect::SharedStoreDomain), §6.5): a
//!   `(state, guts)` pair reads the single global store, so a pair's
//!   successors can change when the store is widened.  The engine is an
//!   **incremental accumulator**: it maintains one running domain, steps
//!   only the frontier (new pairs, plus pairs invalidated through a reverse
//!   dependency index over the addresses their last step read — recorded by
//!   the store itself in a read journal
//!   ([`StoreDelta::arm_read_journal`](crate::store::StoreDelta::arm_read_journal))),
//!   and folds only those re-stepped contributions back in with the
//!   change-tracking in-place joins of the lattice layer.  Per-address
//!   store deltas fall out of the fold
//!   ([`StoreDelta::join_in_place_delta`](crate::store::StoreDelta)), so a
//!   round costs O(|frontier| × store-join), not the O(|states| ×
//!   store-join) of re-joining every cached contribution.
//!
//! All strategies compute *exactly* the fixpoint
//! [`explore_fp`](crate::collect::explore_fp) computes — see the
//! shared-store solver's module docs for why folding only the frontier is
//! exact — so the Kleene driver remains usable as a reference oracle (and
//! is asserted equal across the test corpus).  The engines additionally report
//! [`EngineStats`] so experiment harnesses can quantify the work saved.
//! [`certify`] checks a shared-store fixpoint without trusting any of the
//! engines' machinery — cache, dependency index, read journal or interner —
//! by re-stepping every state once against the final store.
//!
//! ## Choosing a driver
//!
//! Use the domain's [`DirectCollecting`] or [`FrontierCollecting`] methods
//! (or [`analyse::direct`](crate::analyse::direct) /
//! [`analyse::worklist`](crate::analyse::worklist) over a language's
//! machine) whenever the analysis is the bottleneck: on worklist-hard
//! workloads such as `kcfa_worst_case` the engine steps a small fraction of
//! the states Kleene iteration re-steps.  Use
//! [`explore_fp`](crate::collect::explore_fp) when you want the paper's
//! literal algorithm, a second opinion in a differential test, or a domain
//! that implements only [`Collecting`].

mod certificate;
pub mod governor;
pub mod parallel;
mod per_state;
mod shared;

pub use certificate::{certify, CertReport};

pub use governor::{
    Budget, CancelToken, ExhaustReason, Outcome, ResumeSeed, SolveFrom, WidenPolicy,
};
pub use parallel::ParallelConfig;
pub use shared::SharedResumeSeed;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::addr::Address;
use crate::collect::Collecting;
use crate::gc::{reachable, reachable_unless_found, Touches};
use crate::lattice::WidenLattice;
use crate::monad::{MonadFamily, Value};
use crate::store::StoreLike;
use crate::telemetry::{NoopSink, TraceSink};

/// Instrumentation gathered by a worklist run (for the experiment harness
/// and for asserting that the engine does strictly less work than Kleene
/// iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Worklist pops (per-state engine) or solver rounds (shared-store
    /// engine).
    pub iterations: usize,
    /// How many times the monadic step function was actually executed.
    pub states_stepped: usize,
    /// Steps whose cached contribution was reused instead of being
    /// re-executed: per round, the states *not* on the frontier.  The
    /// shared-store engines do not even visit them on fast-path rounds
    /// (rebuild rounds re-execute everything, so they contribute no hits).
    pub cache_hits: usize,
    /// Previously-stepped states that were re-enqueued because an address
    /// they read was widened (shared-store engine only).
    pub reenqueued: usize,
    /// Address-level store-growth events: how many `(round, address)`
    /// pairs saw the global store change under the accumulating fold
    /// (shared-store engine only).  Counts *join* growth — see
    /// [`EngineStats::widen_applied`] for true widening applications; the
    /// two were one counter (`store_widenings`) before real widening
    /// existed, and conflating them would make the taxonomy lie.
    pub store_joins_applied: usize,
    /// True widening applications: how many `(round, address)` pairs were
    /// accumulated with the co-domain's `▽` instead of `⊔` because the
    /// address had been designated a widening point by the budget's
    /// [`WidenPolicy`].  0 whenever
    /// widening is off (the default).  Deterministic for the sequential
    /// engines; timing-dependent for the elastic driver (which widens at
    /// lazy-merge boundaries), so `--check-regress` gates it only for
    /// sequential engines.
    pub widen_applied: usize,
    /// Contribution joins folded into the running (or rebuilt) domain: the
    /// per-round cost the incremental engine drops from O(|states|) to
    /// O(|frontier|).  For the per-state engine, successful domain inserts.
    pub store_joins: usize,
    /// Rounds of the incremental shared-store engine that re-stepped and
    /// re-folded *every* cached pair because a re-stepped contribution
    /// shrank — evidence of a non-monotone step function.  0 for every
    /// configuration of this framework (including abstract GC, whose
    /// contributions stay monotone across rounds); a hand-written
    /// non-monotone semantics triggers it.
    pub rebuild_rounds: usize,
    /// The largest observed frontier: for the per-state engine, the peak
    /// worklist (queue) length; for the round-based shared-store engine,
    /// the largest number of states actually stepped in a single round
    /// (cached states are not part of a round's frontier).
    pub peak_frontier: usize,
    /// Intern-table lookups that found an existing id (id-indexed engines
    /// only): how often a step produced an already-known state, i.e. how
    /// much deep hashing/cloning the hash-consing layer amortised away.
    pub intern_hits: usize,
    /// Intern-table lookups that allocated a fresh id (id-indexed engines
    /// only).  Always equals [`EngineStats::distinct_states`].
    pub intern_misses: usize,
    /// Distinct interned states: `(state, guts)` pairs for the shared-store
    /// engine, `((state, guts), store)` triples for the per-state engine.
    pub distinct_states: usize,
    /// Distinct environments among the fixpoint's states.  The engines are
    /// language-generic and cannot see environments, so this is filled in
    /// at the language boundary (CPS's `distinct_env_count`, used by the
    /// E10 experiment rows); 0 when nothing filled it.
    pub distinct_envs: usize,
    /// Whole-store spine clones the solver performed: one per step (the
    /// pre-store handed to the transition function) plus one per cached
    /// contribution folded into the accumulator.  With the persistent
    /// [`PMap`](crate::pmap) spine each clone is an `Arc` bump, but the
    /// *count* is a deterministic work measure — a growing count means the
    /// engine started re-stepping or re-folding work it had stopped doing,
    /// so `mai-bench --check-regress` gates on it like on steps and joins.
    pub spine_clones: usize,
    /// The peak, over solver rounds, of the approximate bytes of spine
    /// that one round's fold adopted by reference: the nominal size of
    /// every node of a cached delta that the accumulated store now holds
    /// instead of a copy, as the persistent spine's join reports it
    /// ([`StoreDelta::widen_in_place_delta`](crate::store::StoreDelta::widen_in_place_delta)).
    /// Counted where the fold creates the sharing, so it costs O(delta)
    /// per round, not a walk of the whole store.  0 for stores without a
    /// persistent spine and for the per-state engine (which has no single
    /// accumulated store).  Deterministic for a deterministic run;
    /// `--check-regress` treats a *drop* as a structural-sharing
    /// regression.
    pub store_bytes_shared: usize,
    /// Join-on-sync barriers the sharded parallel engine crossed: one per
    /// solver round (the step phase of a round ends at the barrier where
    /// per-shard deltas are joined into the global accumulator).  Equals
    /// [`EngineStats::iterations`] for a parallel run and 0 for every
    /// sequential engine; deterministic, so `mai-bench --check-regress`
    /// gates on it like on the other work counters.
    pub sync_rounds: usize,
    /// Frontier chunks a parallel worker claimed from *another* worker's
    /// shard after draining its own.  A load-balance observability gauge:
    /// genuinely timing-dependent (two runs of the same workload may steal
    /// differently), so it is reported but **not** gated by
    /// `--check-regress`.
    pub steal_events: usize,
    /// The peak, over sync rounds, of the spread (max − min) of states
    /// actually processed per worker within one round — how unbalanced the
    /// shards were *after* stealing.  Timing-dependent like
    /// [`EngineStats::steal_events`]; reported, not gated.
    pub shard_imbalance: usize,
    /// Worker-epochs the **elastic** parallel engine ran: each worker
    /// counts one per epoch it started between two barriers (so a barrier
    /// run reports 0 and an elastic run reports ≥ its stepped-shard
    /// count).  Timing-dependent (workers cut epochs short when another
    /// shard requests a merge); reported, never gated.
    pub epochs_run: usize,
    /// Merges the elastic engine forced because a step read an address
    /// whose owning shard had published a newer epoch — the *staleness*
    /// detections of the lazy-merge protocol.  Timing-dependent; reported,
    /// never gated.
    pub stale_merges: usize,
    /// Lookups (either direction) served by a worker-private
    /// [`WorkerInternCache`](crate::intern::WorkerInternCache) without
    /// touching the shared interner.  Timing-dependent in elastic runs;
    /// reported, never gated.
    pub worker_cache_hits: usize,
    /// Worker-cache lookups that fell through to the shared
    /// [`ShardedInterner`](crate::intern::ShardedInterner).
    /// Timing-dependent; reported, never gated.
    pub worker_cache_misses: usize,
    /// Hot-path stripe-mutex acquisitions on the shared interner
    /// ([`ShardedInterner::stripe_acquisitions`](crate::intern::ShardedInterner::stripe_acquisitions))
    /// — the contention gauge the worker cache drives down.  0 for sequential
    /// engines; reported, never gated (traced runs resolve extra labels).
    pub stripe_acquisitions: usize,
    /// Read-set size summed over every executed step: Σ |read set|, the
    /// edges each step installs in the reverse dependency index.  The
    /// id-indexed engines read it off the store's read journal (plus the
    /// write targets a step still binds, and the GC sweep's visits on a
    /// branch where abstract GC dropped a write), the structural baseline
    /// off the [`StateRoots`] closure; a growing count means steps read, or
    /// are believed to read, more of the store.  Deterministic work, summed
    /// by [`EngineStats::merge`].
    pub dep_edges: usize,
    /// Branches the id-indexed shared-store engine interned, restricted
    /// and folded: every branch of a full step, and only the fresh
    /// branches of a semi-naive re-step (the old ones replay cached
    /// branches and are dropped).  Under full re-steps it would equal the
    /// branches produced.  Deterministic work, 0 for the other engines.
    pub branches_folded: usize,
    /// Addresses the abstract-GC write filter's searches discovered
    /// ([`StepFn::filter_writes`]), summed over every branch the
    /// id-indexed shared-store engine folded.  A search that finds a
    /// branch's writes next to the successor's roots costs a couple of
    /// addresses; one that drops a write costs the whole closure.
    /// Deterministic work, summed by [`EngineStats::merge`]; 0 without GC
    /// and for the other engines, which sweep in full.
    pub gc_filter_visited: usize,
}

/// Declares the one list of timing gauges: generates both
/// [`EngineStats::GAUGES`] and [`EngineStats::work`] from it, so the names
/// and the zeroing cannot drift apart.
macro_rules! timing_gauges {
    ($($field:ident),* $(,)?) => {
        /// The timing gauges: counters that depend on thread scheduling,
        /// so two runs of the same solve may report different values.
        /// They are reported, never compared by tests and never gated;
        /// every other counter is deterministic work.
        pub const GAUGES: &'static [&'static str] = &[$(stringify!($field)),*];

        /// A copy with the timing gauges ([`EngineStats::GAUGES`]) zeroed:
        /// the deterministic work of the run, which any two runs of the
        /// same solve must agree on.
        pub fn work(&self) -> EngineStats {
            EngineStats {
                $($field: 0,)*
                ..*self
            }
        }
    };
}

impl EngineStats {
    timing_gauges! {
        steal_events,
        shard_imbalance,
        epochs_run,
        stale_merges,
        worker_cache_hits,
        worker_cache_misses,
        stripe_acquisitions,
    }

    /// Joins two stat records: additive *work* counters (steps, joins,
    /// hits, re-enqueues, widenings, spine clones, intern traffic, rounds,
    /// dependency edges, steal events) are summed; *gauge* counters
    /// (peaks: frontier, shared bytes, shard imbalance; totals: distinct
    /// states/envs) take the maximum.  This is how the round loop folds
    /// each step phase's record (its workers' steals, epochs, memo traffic
    /// and shard imbalance) into the run's; `merge` is associative and
    /// commutative, so the result is independent of worker order.
    pub fn merge(&mut self, other: &EngineStats) {
        self.iterations += other.iterations;
        self.states_stepped += other.states_stepped;
        self.cache_hits += other.cache_hits;
        self.reenqueued += other.reenqueued;
        self.store_joins_applied += other.store_joins_applied;
        self.widen_applied += other.widen_applied;
        self.store_joins += other.store_joins;
        self.rebuild_rounds += other.rebuild_rounds;
        self.peak_frontier = self.peak_frontier.max(other.peak_frontier);
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.distinct_states = self.distinct_states.max(other.distinct_states);
        self.distinct_envs = self.distinct_envs.max(other.distinct_envs);
        self.spine_clones += other.spine_clones;
        self.store_bytes_shared = self.store_bytes_shared.max(other.store_bytes_shared);
        self.sync_rounds += other.sync_rounds;
        self.steal_events += other.steal_events;
        self.shard_imbalance = self.shard_imbalance.max(other.shard_imbalance);
        self.epochs_run += other.epochs_run;
        self.stale_merges += other.stale_merges;
        self.worker_cache_hits += other.worker_cache_hits;
        self.worker_cache_misses += other.worker_cache_misses;
        self.stripe_acquisitions += other.stripe_acquisitions;
        self.dep_edges += other.dep_edges;
        self.branches_folded += other.branches_folded;
        self.gc_filter_visited += other.gc_filter_visited;
    }

    /// Average contribution joins per solver round: O(|frontier|) for the
    /// shared-store engines, against the O(|states|) of any solver that
    /// re-joins every cached contribution each round (naive Kleene
    /// iteration does).
    pub fn joins_per_round(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.store_joins as f64 / self.iterations as f64
        }
    }

    /// Fraction of intern lookups served by an existing id — the E10
    /// headline metric for the hash-consing layer (how much state identity
    /// work became O(1)).  0 when the run did not intern (structural
    /// engines).
    pub fn intern_hit_rate(&self) -> f64 {
        let total = self.intern_hits + self.intern_misses;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 / total as f64
        }
    }

    /// Fraction of worker-cache lookups served without a stripe lock —
    /// the E14 headline metric for the per-worker intern memo.  0 when no
    /// worker cache ran (sequential and barrier engines).
    pub fn worker_cache_hit_rate(&self) -> f64 {
        let total = self.worker_cache_hits + self.worker_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.worker_cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iters={} stepped={} hits={} reenq={} addr-joins={} widened={} joins={} rebuilds={} \
             peak={} intern={}/{} distinct={} clones={} shared-bytes={} syncs={} steals={} \
             imbalance={} epochs={} stale={} memo={}/{} stripe-locks={} dep-edges={} \
             branches-folded={} gc-visited={}",
            self.iterations,
            self.states_stepped,
            self.cache_hits,
            self.reenqueued,
            self.store_joins_applied,
            self.widen_applied,
            self.store_joins,
            self.rebuild_rounds,
            self.peak_frontier,
            self.intern_hits,
            self.intern_misses,
            self.distinct_states,
            self.spine_clones,
            self.store_bytes_shared,
            self.sync_rounds,
            self.steal_events,
            self.shard_imbalance,
            self.epochs_run,
            self.stale_merges,
            self.worker_cache_hits,
            self.worker_cache_misses,
            self.stripe_acquisitions,
            self.dep_edges,
            self.branches_folded,
            self.gc_filter_visited
        )
    }
}

/// States that can report the addresses their next transition may read,
/// as a set of *roots* to be closed over the store.
///
/// This is the engine-facing view of the language crates'
/// [`Touches`] instances: the address type becomes an
/// associated type so that the shared-store engines can name it without
/// an unconstrained type parameter.  The contract is the one abstract
/// garbage collection (§6.4) relies on: a transition from `self` may only
/// fetch addresses inside `reachable(self.state_roots(), store)`.
///
/// Two things close the roots over the store: abstract GC
/// ([`with_state_gc`], [`ReachableGc`](crate::gc::ReachableGc)) and the
/// structural baseline engine
/// ([`FrontierCollecting::explore_frontier_structural`]), whose read sets
/// are that closure.  GC runs the full sweep wherever a step runs through
/// [`StepFn::step`]: in the per-state engine, the structural baseline,
/// [`certify`], the narrowing post-pass and the closure carrier.  The
/// id-indexed shared-store engine does not close the roots for its read
/// sets, which come from the store's read journal (the closure only bounds
/// them).  Under GC it searches from the roots only until it has
/// discovered a branch's writes ([`StepFn::filter_writes`]), testing each
/// root before it fetches anything, so a GC'd step calls `state_roots`
/// once per branch.  Implementations should therefore cost what the roots
/// cost, not what the rest of the program costs: the language crates read
/// the free variables behind their roots from caches built once per
/// program, not from a walk of the expression.
pub trait StateRoots {
    /// The address type this state touches.
    type Addr: Address;

    /// The root addresses of the state (typically its `touches()` set).
    fn state_roots(&self) -> BTreeSet<Self::Addr>;
}

/// The engines' carrier-neutral view of a transition function: the
/// desugared `g -> s -> [((state, g), s)]` shape of the `StorePassing`
/// monad (paper §5.3.1), as a plain function.
///
/// Each language's `mnext` is written once, against
/// [`StepMonad`](crate::monad::StepMonad), and reaches this shape through
/// either of its abstract instances:
///
/// * `run_store_passing ∘ mnext` — the **closure carrier** (`mnext` on
///   [`StorePassing`](crate::monad::StorePassing), the oracle; every
///   `Fn(Ps, G, S) -> Vec<((Ps, G), S)>` closure implements this trait, so
///   wrapping it is one line);
/// * the language crates' `mnext_direct` — `mnext` on the **direct
///   carrier** ([`Direct`](crate::monad::Direct)), whose `bind` is plain
///   function composition over the explicit `(guts, store)` context, with
///   no `Rc<dyn Fn>` allocation per bind.
///
/// The solvers are written once against this trait and therefore compute
/// identical fixpoints (and identical work counters) on either carrier;
/// only the per-step constant factor differs.
///
/// Two provided methods, [`StepFn::step_before_gc`] and
/// [`StepFn::filter_writes`], let the id-indexed shared-store engine run
/// abstract GC as a filter on each branch's writes instead of a sweep of
/// each branch's store.  Their defaults mean "no GC" and cost nothing; only
/// [`with_state_gc`]'s [`StateGc`] overrides them.  Every other consumer
/// calls [`StepFn::step`], which runs the full sweep.
///
/// Step functions are `Sync`: the sharded parallel engine
/// ([`parallel`]) shares one step function across all of its workers, and
/// every producer in the tree (plain `fn`s, the `with_state_gc` wrapper,
/// the `run_store_passing` desugaring closure) is stateless, so the bound
/// costs nothing and keeps the solver carrier- *and* strategy-neutral.
pub trait StepFn<Ps, G, S>: Sync {
    /// Steps one `(state, guts, store)` configuration to its successor
    /// branches.
    fn step(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)>;

    /// The branches of [`StepFn::step`] before abstract GC restricts their
    /// stores.  The id-indexed shared-store engine steps through this and
    /// applies GC itself, as [`StepFn::filter_writes`] on each branch.  The
    /// default is [`StepFn::step`]: a step without GC.
    fn step_before_gc(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)> {
        self.step(ps, guts, store)
    }

    /// Abstract GC as a filter on one branch of [`StepFn::step_before_gc`].
    /// `writes` holds the addresses the branch changed; this removes each
    /// one GC would drop from the branch store `branch`, and adds to
    /// `reads` the addresses that decision depends on.  Returns how many
    /// addresses the decision visited
    /// ([`EngineStats::gc_filter_visited`]).  The default keeps every write,
    /// reads nothing and visits nothing: a step without GC.
    fn filter_writes(
        &self,
        _successor: &Ps,
        _branch: &S,
        _writes: &mut BTreeSet<Ps::Addr>,
        _reads: &mut Vec<Ps::Addr>,
    ) -> usize
    where
        Ps: StateRoots,
    {
        0
    }
}

impl<F, Ps, G, S> StepFn<Ps, G, S> for F
where
    F: Fn(Ps, G, S) -> Vec<((Ps, G), S)> + Sync,
{
    fn step(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)> {
        self(ps, guts, store)
    }
}

/// Wraps a direct-style step function so that every produced branch is
/// followed by abstract garbage collection: the branch's store is
/// restricted to the addresses reachable from the successor state's roots
/// (the paper's `STEP-GC` rule of §6.4, on the direct carrier).
///
/// This is the direct-style counterpart of
/// [`with_gc`](crate::collect::with_gc) specialised to the one strategy
/// every language crate uses — restrict-to-reachable from the stepped
/// state's [`StateRoots`] — so [`analyse::direct`](crate::analyse::direct)
/// and [`analyse::parallel`](crate::analyse::parallel) with
/// [`Gc::On`](crate::analyse::Gc::On) need no per-language GC plumbing.
/// They hand the returned step to the engine as it is: wrapped in another
/// closure it would hide the two methods below.
///
/// The result's [`StepFn::step`] runs the full sweep on every branch.
/// Every consumer that calls `step` keeps that sweep: the per-state engine
/// (whose store is part of the state), the structural baseline,
/// [`certify`] and the narrowing post-pass.  The id-indexed shared-store
/// engine, on every step phase (sequential, barrier, elastic), calls
/// [`StepFn::step_before_gc`] and [`StepFn::filter_writes`] instead: GC
/// only decides which of a branch's own writes survive, and a search that
/// stops once it has discovered them all decides that (see the
/// shared-store module docs for why that is exact).  The search tests each
/// address on discovery, roots included, so a write bound next to the
/// successor's roots is found after a couple of addresses
/// ([`EngineStats::gc_filter_visited`] counts them).
pub fn with_state_gc<F>(step: F) -> StateGc<F> {
    StateGc(step)
}

/// A step function followed by abstract GC on every branch: what
/// [`with_state_gc`] returns.
#[derive(Debug, Clone, Copy)]
pub struct StateGc<F>(F);

impl<Ps, G, S, F> StepFn<Ps, G, S> for StateGc<F>
where
    Ps: StateRoots,
    S: StoreLike<Ps::Addr>,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    fn step(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)> {
        self.0
            .step(ps, guts, store)
            .into_iter()
            .map(|((ps2, g2), s2)| {
                let live = reachable(ps2.state_roots(), &s2);
                let s2 = s2.filter_store(|a| live.contains(a));
                ((ps2, g2), s2)
            })
            .collect()
    }

    fn step_before_gc(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)> {
        self.0.step(ps, guts, store)
    }

    fn filter_writes(
        &self,
        successor: &Ps,
        branch: &S,
        writes: &mut BTreeSet<Ps::Addr>,
        reads: &mut Vec<Ps::Addr>,
    ) -> usize {
        let mut visited = 0;
        let roots = successor.state_roots();
        if let Some(live) = reachable_unless_found(roots, branch, writes, &mut visited) {
            writes.retain(|a| live.contains(a));
            reads.extend(live);
        }
        visited
    }
}

/// Per-address growth bookkeeping behind the budget's [`WidenPolicy`]:
/// decides, round by round, **where** the shared-store engines accumulate
/// with the co-domain's widening `▽` instead of plain join `⊔`.
///
/// The policy is the classical delayed-widening discipline, made
/// address-local: every address starts as a join point; each fold that
/// grows it counts one growth; once an address has grown strictly more
/// than [`WidenPolicy::growth_threshold`] times it is designated a
/// *widening point* and every later fold widens it
/// ([`StoreDelta::widen_in_place_delta`](crate::store::StoreDelta)).
/// Termination: each address joins at most `threshold + 1` times before
/// switching to `▽`, and the co-domain guarantees every `▽`-chain
/// stabilises in finitely many steps, so the per-address chain — and with
/// it the store half of the fixpoint iteration — is finite.
///
/// A tracker built from a disabled policy never designates a point, and
/// [`StoreDelta::widen_in_place_delta`](crate::store::StoreDelta) with an
/// empty point set *is* `join_in_place_delta`, so engines call the widened
/// fold unconditionally and stay byte-identical to the pre-widening
/// engines whenever widening is off (the default).
pub(crate) struct WidenTracker<A: Address> {
    enabled: bool,
    threshold: usize,
    growths: BTreeMap<A, usize>,
    points: BTreeSet<A>,
}

impl<A: Address> WidenTracker<A> {
    pub(crate) fn new(policy: &WidenPolicy) -> Self {
        WidenTracker {
            enabled: policy.enabled,
            threshold: policy.growth_threshold,
            growths: BTreeMap::new(),
            points: BTreeSet::new(),
        }
    }

    /// The current widening points (always empty when widening is off).
    pub(crate) fn points(&self) -> &BTreeSet<A> {
        &self.points
    }

    /// Splits a fold's changed-address set into `(joined, widened)` counts
    /// against the points that were in force *during* that fold — call
    /// before [`WidenTracker::record`].
    pub(crate) fn classify(&self, changed: &BTreeSet<A>) -> (usize, usize) {
        if self.points.is_empty() {
            return (changed.len(), 0);
        }
        let widened = changed.iter().filter(|a| self.points.contains(*a)).count();
        (changed.len() - widened, widened)
    }

    /// Records one growth for every changed address; addresses past the
    /// threshold become widening points for all subsequent folds.
    pub(crate) fn record(&mut self, changed: &BTreeSet<A>) {
        if !self.enabled {
            return;
        }
        for a in changed {
            let n = self.growths.entry(a.clone()).or_insert(0);
            *n += 1;
            if *n > self.threshold {
                self.points.insert(a.clone());
            }
        }
    }
}

/// The decreasing half of the widening/narrowing pair, run as an
/// engine-independent post-pass once a widened solve has stabilised:
/// `σ_{k+1} = σ_k △ F(σ_k)`, where `F(σ)` is the join of every discovered
/// state's step image over `σ` — each pass can only tighten bounds the
/// widening over-shot (`▽` loses a bound to ±∞; if the semantics actually
/// caps the value, one image sweep recovers the cap), and the pass stops
/// as soon as an iterate refines nothing, or after `passes` sweeps.
///
/// The image is assembled from what each branch actually **wrote**: the
/// pre-store handed to a re-stepped state is armed for write journaling
/// ([`StoreDelta::arm_write_journal`](crate::store::StoreDelta)), and each
/// result branch's journal — exactly the addresses it bound or replaced,
/// with the written values — is joined into the image.  This meets the
/// contract the store-level narrow needs: `image(a)`, when present, is an
/// upper bound of *every* producer's contribution at `a`, and a silent
/// address is one **no producer wrote**, so leaving it untouched is sound.
/// A value-level diff against the accumulator cannot provide this — a
/// branch that writes exactly the current binding (say `x := y` with
/// `y = [0,+∞)`) diffs as unchanged, and dropping it from the image would
/// let another branch's tighter write (`x := [0,5]`) narrow the address
/// below values that genuinely flow there.  A store that does not journal
/// falls back to contributing its whole branch store — inflationary (a
/// store-passing branch threads the accumulator through, so nothing
/// tightens), but sound; only journaling stores recover precision.
///
/// The pass is a pure function of the *final* `(states, store)` pair and
/// the step function — no engine round structure enters it — so every
/// engine that converged to the same widened fixpoint narrows to the same
/// store, preserving the cross-engine byte-identity contract.  Its step
/// executions are deliberately **not** counted in [`EngineStats`]: the
/// work-counter invariants (`store_joins == states_stepped` on fast-path
/// runs, parallel-vs-sequential counter equality) describe the solve, and
/// the refinement sweep is not part of the solve.  For the same reason the
/// budget's round/step limits do not gate the sweep — but its *wall-clock*
/// bounds do: [`Budget::interrupted`] is polled between state re-steps,
/// and a deadline or cancellation abandons the refinement early.  That is
/// safe — the widened store is already a sound `Complete` result, and
/// every completed `σ_{k+1} = σ_k △ F(σ_k)` iterate (the only thing an
/// abort can skip) only refines it further.
pub(crate) fn narrow_store_post_pass<Ps, G, S, F>(
    states: &BTreeSet<(Ps, G)>,
    store: &mut S,
    step: &F,
    passes: usize,
    budget: &Budget,
) where
    Ps: Value + Ord + StateRoots,
    G: Value + Ord,
    S: crate::store::StoreDelta<Ps::Addr> + WidenLattice,
    F: StepFn<Ps, G, S>,
{
    for _ in 0..passes {
        let mut image = S::bottom();
        for (ps, g) in states.iter() {
            if budget.interrupted().is_some() {
                return;
            }
            let mut pre = store.clone();
            pre.arm_write_journal();
            for ((_, _), mut s2) in step.step(ps.clone(), g.clone(), pre) {
                match s2.take_write_journal() {
                    Some(written) => image.join_in_place(written),
                    None => image.join_in_place(s2),
                };
            }
        }
        if !store.narrow_in_place(image) {
            break;
        }
    }
}

/// Analysis domains solvable directly from a desugared [`StepFn`] — the
/// carrier-selecting face of the engines.  [`FrontierCollecting`] methods
/// wrap their `Rc`-closure step into a [`StepFn`] and delegate here, so
/// both carriers run byte-identical solver code.
///
/// The *governed* solver is the one implementation: the classic
/// `explore_frontier_direct*` entry points are default wrappers passing
/// [`Budget::unlimited`] and unwrapping the guaranteed-`Complete`
/// outcome, so governed-off runs are byte-identical (fixpoint *and*
/// work counters) to the pre-governor engines by construction.
pub trait DirectCollecting<Ps, G, S>: Sized {
    /// What an `Exhausted` partial carries to continue the solve — see
    /// [`ResumeSeed`].
    type Seed;

    /// The governed frontier-driven solve: starts fresh or from a resume
    /// seed, consults `budget` at every round boundary, and reports
    /// either the fixpoint or a resumable partial.
    fn explore_frontier_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        budget: &Budget,
        sink: &mut T,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: fmt::Debug;

    /// [`Self::explore_frontier_governed_traced`] without a sink.
    fn explore_frontier_governed<F>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        budget: &Budget,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        Ps: fmt::Debug,
    {
        Self::explore_frontier_governed_traced(step, from, budget, &mut NoopSink)
    }

    /// Solves `lfp (λX. inject(initial) ⊔ applyStep(step, X))` with the
    /// default frontier-driven engine, from a direct-style step function.
    fn explore_frontier_direct<F>(step: &F, initial: Ps) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        Ps: fmt::Debug,
    {
        Self::explore_frontier_direct_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier_direct`] with a
    /// [`TraceSink`] observing the solve:
    /// one [`RoundTrace`](crate::telemetry::RoundTrace) per round plus
    /// per-state step-cost and per-address join-traffic attribution.
    /// Identical fixpoint and identical [`EngineStats`] at every sink —
    /// tracing never feeds back into the solve.
    fn explore_frontier_direct_traced<F, T>(
        step: &F,
        initial: Ps,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: fmt::Debug,
    {
        let (outcome, stats) = Self::explore_frontier_governed_traced(
            step,
            SolveFrom::Fresh(initial),
            &Budget::unlimited(),
            sink,
        );
        (outcome.into_complete(), stats)
    }
}

/// [`DirectCollecting::explore_frontier_direct_traced`] as a free
/// function taking the step function by value.
pub fn explore_worklist_direct_traced_stats<Ps, G, S, Fp, F, T>(
    step: F,
    initial: Ps,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    Ps: fmt::Debug,
    Fp: DirectCollecting<Ps, G, S>,
    F: StepFn<Ps, G, S>,
    T: TraceSink,
{
    Fp::explore_frontier_direct_traced(&step, initial, sink)
}

/// Analysis domains solvable by the **sharded parallel** drivers
/// ([`parallel`]): the same direct-style [`StepFn`] shape as
/// [`DirectCollecting`], with each round's frontier stepped on a worker
/// pool and the per-shard store deltas joined at a sync barrier.  The
/// [`ParallelConfig`] selects the step phase: `epochs = 1` is the barrier
/// phase, `epochs > 1` the elastic phase ([`parallel::elastic`]).  Every
/// method returns the type its [`DirectCollecting`] counterpart returns.
///
/// Implementations must compute the same fixpoint
/// [`DirectCollecting::explore_frontier_direct`] computes for the same
/// step function, at every configuration — the sequential direct engine is
/// the determinism oracle the differential suite pins this to.  The
/// barrier phase also reproduces its deterministic work counters; the
/// elastic phase's counters (steps, epochs, memo traffic) are
/// timing-dependent and must not be gated.
///
/// A panicking step function propagates out of every method with its
/// original payload, as it does out of the sequential engines; the worker
/// pool is drained and shut down first, so nothing deadlocks.
pub trait ParallelCollecting<Ps, G, S>: Sized {
    /// What an `Exhausted` partial carries to continue the solve — see
    /// [`ResumeSeed`].
    type Seed;

    /// The governed parallel solve: budget checked at every sync barrier,
    /// and workers polling the budget's [`CancelToken`] between claims
    /// (barrier) or inside interruptible epochs (elastic, so cancel
    /// latency is bounded by one epoch).
    fn explore_frontier_parallel_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        config: ParallelConfig,
        budget: &Budget,
        sink: &mut T,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: fmt::Debug;

    /// [`Self::explore_frontier_parallel_governed_traced`] without a sink.
    fn explore_frontier_parallel_governed<F>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        config: ParallelConfig,
        budget: &Budget,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        Ps: fmt::Debug,
    {
        Self::explore_frontier_parallel_governed_traced(step, from, config, budget, &mut NoopSink)
    }

    /// Solves `lfp (λX. inject(initial) ⊔ applyStep(step, X))` on
    /// `config.threads` worker threads (`threads = 1` degenerates to a
    /// sequential run of the same protocol, useful as a sanity baseline).
    fn explore_frontier_parallel<F>(
        step: &F,
        initial: Ps,
        config: ParallelConfig,
    ) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        Ps: fmt::Debug,
    {
        Self::explore_frontier_parallel_traced(step, initial, config, &mut NoopSink)
    }

    /// [`Self::explore_frontier_parallel`] with a [`TraceSink`] observing
    /// the solve: per-round phase timings plus one
    /// [`WorkerSpan`](crate::telemetry::WorkerSpan) per worker per round
    /// and one [`StealTrace`](crate::telemetry::StealTrace) per stolen
    /// chunk; an elastic solve adds one
    /// [`EpochTrace`](crate::telemetry::EpochTrace) per worker epoch and
    /// one [`MergeTrace`](crate::telemetry::MergeTrace) per lazy merge.
    /// Workers record into private lock-free buffers drained by the
    /// coordinator at the sync barrier, so tracing adds no
    /// synchronisation to the step phase; fixpoints and deterministic
    /// counters are identical at every sink.
    fn explore_frontier_parallel_traced<F, T>(
        step: &F,
        initial: Ps,
        config: ParallelConfig,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: fmt::Debug,
    {
        let (outcome, stats) = Self::explore_frontier_parallel_governed_traced(
            step,
            SolveFrom::Fresh(initial),
            config,
            &Budget::unlimited(),
            sink,
        );
        (outcome.into_complete(), stats)
    }
}

/// Analysis domains that can be solved by a frontier-driven worklist engine
/// instead of naive Kleene iteration.
///
/// Implementations must compute the same fixpoint
/// [`explore_fp`](crate::collect::explore_fp) computes for the same step
/// function; the difference is purely operational (how much work is
/// re-done).  This is the engine-side extension of the paper's `Collecting`
/// class — the third degree of freedom of `runAnalysis` (the fixed-point
/// strategy), made swappable.
pub trait FrontierCollecting<M: MonadFamily, A: Value>: Collecting<M, A> {
    /// Solves `lfp (λX. inject(initial) ⊔ applyStep(step, X))` with a
    /// frontier-driven worklist, returning the fixpoint and the work
    /// statistics.
    ///
    /// This is the *incremental accumulator*: the solver maintains one
    /// running domain and folds in only the contributions of re-stepped
    /// states, so a round costs O(|frontier| × store-join) instead of the
    /// O(|states| × store-join) of re-joining every cached contribution.
    fn explore_frontier<F>(step: &F, initial: A) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A> + Sync,
        A: fmt::Debug,
    {
        Self::explore_frontier_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier`] with a
    /// [`TraceSink`] observing the solve.
    /// Identical fixpoint and identical [`EngineStats`] at every sink.
    fn explore_frontier_traced<F, T>(step: &F, initial: A, sink: &mut T) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A> + Sync,
        T: TraceSink,
        A: fmt::Debug;

    /// The PR-2 *structural-key* incremental accumulator: the same
    /// frontier/fold strategy as [`Self::explore_frontier`], but with every
    /// engine table keyed by the full `(state, guts)` structure — `BTreeMap`
    /// lookups paying a deep `Ord` walk per comparison, frontier, successor
    /// and dependency sets deep-cloning states.  Computes the identical
    /// fixpoint, unbudgeted and join-only; kept as a differential-testing
    /// oracle and the baseline the E10 benchmarks measure the id-indexed
    /// engine against.  Domains whose
    /// [`Self::explore_frontier`] never had a structural-key incarnation
    /// (the per-state domain) use it unchanged.
    fn explore_frontier_structural<F>(step: &F, initial: A) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A> + Sync,
        A: fmt::Debug,
    {
        Self::explore_frontier_structural_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier_structural`] with a
    /// [`TraceSink`] observing the solve.
    fn explore_frontier_structural_traced<F, T>(
        step: &F,
        initial: A,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A> + Sync,
        T: TraceSink,
        A: fmt::Debug,
    {
        Self::explore_frontier_traced(step, initial, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{explore_fp, PerStateDomain, SharedStoreDomain};
    use crate::lattice::Lattice;
    use crate::monad::{MonadPlus, MonadState, MonadTrans, StateT, StorePassing, VecM};
    use crate::store::{BasicStore, StoreLike};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A pointer-shaped heap value for the randomized machines.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Ptr(u8);

    impl crate::gc::Touches<u8> for Ptr {
        fn touches(&self) -> BTreeSet<u8> {
            [self.0].into_iter().collect()
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct St(u8);

    impl StateRoots for St {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            [self.0 % 4].into_iter().collect()
        }
    }

    type S = BasicStore<u8, Ptr>;
    type M = StorePassing<u64, S>;

    /// A family of small randomized machines over 16 states and 4 heap
    /// cells: the `table` entry for state `n` encodes its successor offsets
    /// and whether it reads or writes its cell.
    fn table_step(table: Vec<u8>) -> impl Fn(St) -> <M as crate::monad::MonadFamily>::M<St> {
        move |st: St| {
            let n = st.0;
            let code = *table.get(n as usize % table.len().max(1)).unwrap_or(&0);
            let next = St((n + 1 + code % 3) % 16);
            match code % 4 {
                // Plain jump.
                0 => M::pure(next),
                // Branching jump.
                1 => M::mplus(M::pure(next), M::pure(St((n + 7) % 16))),
                // Write the state's cell.
                2 => {
                    let cell = n % 4;
                    let write = <M as MonadTrans>::lift(
                        <StateT<S, VecM> as MonadState<S>>::modify(move |store: S| {
                            store.bind(cell, [Ptr((code + 1) % 4)].into_iter().collect())
                        }),
                    );
                    M::bind(write, move |_| M::pure(next.clone()))
                }
                // Read the state's cell and follow the stored pointers.
                _ => {
                    let cell = n % 4;
                    let fetched = <M as MonadTrans>::lift(crate::monad::gets_nd_set::<
                        StateT<S, VecM>,
                        S,
                        Ptr,
                        _,
                    >(move |store| {
                        store.fetch(&cell).iter().cloned().collect()
                    }));
                    let via_heap = M::bind(fetched, move |ptr| M::pure(St((ptr.0 + 8) % 16)));
                    M::mplus(M::pure(next), via_heap)
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_shared_worklist_equals_kleene_on_random_machines(
            table in proptest::collection::vec(0u8..12, 1..16)
        ) {
            let step = table_step(table);
            let kleene: SharedStoreDomain<St, u64, S> =
                explore_fp::<M, St, _, _>(&step, St(0));
            type Domain = SharedStoreDomain<St, u64, S>;
            let (worklist, stats) =
                <Domain as FrontierCollecting<M, St>>::explore_frontier(&step, St(0));
            prop_assert_eq!(&worklist, &kleene);
            // The result is a genuine fixpoint of the Kleene functional.
            let again = <Domain as crate::collect::Collecting<M, St>>::apply_step(&step, &worklist)
                .join(<Domain as crate::collect::Collecting<M, St>>::inject(St(0)));
            prop_assert!(again.leq(&worklist));
            // Stats sanity: every state pair was stepped at least once.
            prop_assert!(stats.states_stepped >= worklist.len());
            prop_assert_eq!(stats.states_stepped - stats.reenqueued, worklist.len());
            // These machines are GC-free, so every round stays on the
            // monotone fast path: one contribution fold per stepped pair.
            prop_assert_eq!(stats.rebuild_rounds, 0);
            prop_assert_eq!(stats.store_joins, stats.states_stepped);
        }

        #[test]
        fn prop_per_state_worklist_equals_kleene_on_random_machines(
            table in proptest::collection::vec(0u8..12, 1..16)
        ) {
            let step = table_step(table);
            let kleene: PerStateDomain<St, u64, S> =
                explore_fp::<M, St, _, _>(&step, St(0));
            let (worklist, stats) =
                <PerStateDomain<St, u64, S> as FrontierCollecting<M, St>>::explore_frontier(
                    &step,
                    St(0),
                );
            prop_assert_eq!(&worklist, &kleene);
            // Frontier reachability steps every triple exactly once.
            prop_assert_eq!(stats.states_stepped, worklist.len());
        }
    }
}
