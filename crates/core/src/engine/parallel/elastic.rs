//! The **elastic** step phase: epoch-based lazy shard merging on the
//! shared pool.
//!
//! The barrier phase ([`super`]) synchronises every round: workers step
//! the frontier against one store snapshot, then *everyone* meets at the
//! join-on-sync barrier where the coordinator folds the per-shard deltas.
//! When consecutive rounds touch disjoint address sets — the lanes-shaped
//! `kcfa_worst_case_scaled` family is the committed example — that
//! barrier is pure coordination cost: each worker's next work item is a
//! state *it just minted itself*, and nothing it reads was written by
//! another shard.
//!
//! This phase lets workers keep going.  Between two barriers each worker
//! advances a private **sub-frontier** for up to
//! [`ParallelConfig::epochs`](super::ParallelConfig::epochs) *epochs*:
//!
//! * epoch 1 steps the worker's slice of the published frontier (always
//!   to completion — this is what guarantees global progress per round);
//! * the ids a worker's own `intern_fresh` calls *mint* form its next
//!   epoch's sub-frontier (a state interned first by this worker is
//!   stepped by this worker — sub-frontiers stay disjoint by
//!   construction);
//! * every step runs against the worker's private **view**: the round's
//!   store snapshot joined with the worker's own accumulated deltas, so
//!   chains advance within a single round instead of one barrier per
//!   link.
//!
//! A worker that stops early parks the ids it minted but did not step;
//! the round loop re-seeds them, since they are minted this round and
//! have no entry.  A rebuild phase runs the barrier body, against the
//! pre-store itself.
//!
//! ## The staleness argument
//!
//! A worker never sees another shard's epoch deltas until the merge, so a
//! step may read a *stale* binding.  That is safe:
//!
//! 1. **Every view is bounded**: `snapshot ⊑ view ⊑ snapshot ⊔ (all
//!    round deltas) = next snapshot ⊑ final store`.  For the
//!    effectively-monotone step functions of the analyses (more store ⇒
//!    more flows), stepping against a smaller store can only *miss*
//!    successors/bindings, never invent wrong ones — and extra steps
//!    against a larger view are harmless for the same reason.
//! 2. **Missed deltas re-enqueue the reader.**  Each installed entry
//!    records the addresses its step read (`deps`), and the merge folds
//!    *every* delta produced this round, reporting exactly the addresses
//!    that grew.  A stale reader's address is in that changed set, so the
//!    reverse dependency index re-seeds the reader into the next
//!    frontier, where it re-steps against a store that *includes* the
//!    missed delta.  Fixpoint iteration then converges exactly as the
//!    sequential engine does.
//! 3. **Staleness is also bounded eagerly**: each shard owns the
//!    addresses that hash to it and bumps a per-shard atomic **epoch
//!    counter** whenever an epoch produced a delta.  A worker that reads
//!    an address whose owner has published a newer epoch than the
//!    worker's phase-start snapshot stops elastic progression and
//!    requests the merge ([`EngineStats::stale_merges`]), so shards
//!    racing on the same addresses degrade gracefully towards the
//!    barrier phase instead of piling up re-work.
//!
//! The consequence, and the contract the differential suite pins: the
//! **fixpoint is byte-identical to the sequential direct engine** (for a
//! join-only solve), while the *work counters* (steps, epochs, memo
//! traffic) are timing-dependent — an elastic run may legitimately step a
//! state more (or fewer) times than the barrier phase.  Only fixpoint
//! equality is asserted; never step-count parity.  Under widening, merge
//! timing feeds the widening tracker different growth counts, so different
//! addresses can cross the threshold, and `▽` is not monotone in where it
//! is applied: every elastic outcome is a sound post-fixpoint, but
//! byte-identity with the sequential engines holds only on workloads whose
//! every point-selection schedule saturates the same bounds.
//!
//! ## Per-worker intern memos
//!
//! Every `resolve_cloned`/`intern` in the barrier phase's hot loop takes
//! a stripe mutex on the shared [`ShardedInterner`].  Elastic workers
//! front it with a private [`WorkerInternCache`] that persists across
//! phases, so re-touched states are resolved and re-interned without any
//! lock; the hit/miss counters surface as
//! `EngineStats::worker_cache_hits/misses` and the remaining stripe
//! traffic as [`EngineStats::stripe_acquisitions`].

use std::hash::Hash;
use std::sync::atomic::Ordering;

use crate::hash::fx_hash_of;
use crate::intern::{ShardedInterner, StateId, WorkerInternCache};
use crate::monad::Value;
use crate::store::{StoreDelta, StoreLike};
use crate::telemetry::{Stopwatch, WorkerBuffer};

use super::super::shared::step_entry;
use super::super::{EngineStats, StateRoots, StepFn};
use super::{EpochClock, Phase, WorkerOutcome};

/// The shard that *owns* an address: the publisher of its epoch counter.
/// A pure function of the address, so every worker agrees without
/// coordination.
#[inline]
fn owner_of<A: Hash>(addr: &A, shards: usize) -> usize {
    (fx_hash_of(addr) as usize) % shards
}

/// The elastic phase body of one worker: run up to `phase.epochs` epochs
/// over the private sub-frontier, stepping against the private view,
/// minting the next epoch from own-fresh ids, and exiting early on drain,
/// stale read, cancellation, or a merge request from another shard.
pub(super) fn run_epochs<Ps, G, S, F>(
    me: usize,
    step: &F,
    phase: &Phase<S, Ps::Addr>,
    interner: &ShardedInterner<(Ps, G), StateId>,
    clock: &EpochClock,
    memo: &mut WorkerInternCache<(Ps, G), StateId>,
) -> WorkerOutcome<S, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots,
    Ps::Addr: Hash,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    F: StepFn<Ps, G, S>,
{
    let mut outcome = WorkerOutcome {
        worker: me,
        entries: Vec::new(),
        gauges: EngineStats::default(),
        trace: WorkerBuffer::default(),
    };
    let trace = phase.trace;
    let EpochClock {
        shard_epochs,
        merge_requested,
    } = clock;
    let shards = shard_epochs.len();
    let mut busy_watch = Stopwatch::start(trace);
    // The phase-start snapshot of every shard's published epoch: a read
    // of an address whose owner has moved past this is a stale read.
    let epoch_base: Vec<usize> = shard_epochs
        .iter()
        .map(|e| e.load(Ordering::Acquire))
        .collect();
    // The private view: the round snapshot plus this worker's own folded
    // deltas.  One whole-store clone per phase (spine-shared, so cheap).
    let mut view: S = phase.store.clone();
    let mut frontier: Vec<StateId> = phase.shard(me).to_vec();
    let mut stale = false;
    let mut epoch = 0usize;
    loop {
        epoch += 1;
        outcome.gauges.epochs_run += 1;
        let mut epoch_watch = Stopwatch::start(trace);
        let mut fresh: Vec<StateId> = Vec::new();
        let mut epoch_changed = false;
        let stepped_before = outcome.entries.len();
        // Epoch 1 always runs to completion: every published frontier id
        // is stepped every round, which is what guarantees the solve
        // makes progress no matter how eagerly other shards request
        // merges.  Later epochs are best-effort and yield promptly; what
        // they leave unstepped is parked.
        let interruptible = epoch > 1;
        for &id in &frontier {
            if interruptible
                && (stale || merge_requested.load(Ordering::Relaxed) || phase.cancel.is_cancelled())
            {
                break;
            }
            let mut step_watch = Stopwatch::start(trace);
            let (ps, guts) = memo.resolve_cloned(interner, id);
            // Views differ from the pre-store, so an elastic step never
            // re-steps semi-naive.
            let entry = step_entry(step, ps, guts, &view, None, |k| {
                let (sid, minted) = memo.intern_fresh(interner, k);
                if minted {
                    fresh.push(sid);
                }
                sid
            });
            if trace {
                outcome.trace.costs.push((id, step_watch.lap_ns()));
            }
            // Staleness: did this step read an address whose owner shard
            // has published since our snapshot?  (Our own shard's writes
            // are in the view already.)
            for a in &entry.deps {
                let owner = owner_of(a, shards);
                if owner != me && shard_epochs[owner].load(Ordering::Acquire) > epoch_base[owner] {
                    stale = true;
                }
            }
            // Fold our own delta into the private view so our chains
            // advance within this round.
            outcome.gauges.spine_clones += 1;
            epoch_changed |= !view.join_in_place_delta(entry.delta.clone()).is_empty();
            outcome.entries.push((id, entry));
        }
        // Publish before recording/exiting: other shards reading our
        // addresses must see that our accumulated delta grew this epoch.
        if epoch_changed {
            shard_epochs[me].fetch_add(1, Ordering::Release);
        }
        let stepped = outcome.entries.len() - stepped_before;
        if trace {
            outcome
                .trace
                .epochs
                .push((epoch, stepped, fresh.len(), stale, epoch_watch.lap_ns()));
        }
        if stepped < frontier.len() {
            // Interrupted mid-epoch: the rest is parked.
            break;
        }
        if stale {
            outcome.gauges.stale_merges += 1;
            merge_requested.store(true, Ordering::Release);
            break;
        }
        if fresh.is_empty() {
            // Sub-frontier drained: our only possible next work comes
            // from the dependency-index re-seed, which needs the merge.
            if !outcome.entries.is_empty() {
                merge_requested.store(true, Ordering::Release);
            }
            break;
        }
        if epoch == phase.epochs
            || merge_requested.load(Ordering::Acquire)
            || phase.cancel.is_cancelled()
        {
            break;
        }
        frontier = fresh;
    }
    let (hits, misses) = memo.take_counters();
    outcome.gauges.worker_cache_hits = hits;
    outcome.gauges.worker_cache_misses = misses;
    outcome.trace.busy_ns = busy_watch.lap_ns();
    outcome
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::super::super::{DirectCollecting, ParallelCollecting};
    use super::super::tests::{direct_step, nonmonotone_step, Dom, NmSt, St, G, S};
    use super::super::ParallelConfig;
    use crate::collect::SharedStoreDomain;
    use crate::monad::run_store_passing;
    use crate::telemetry::TraceBuffer;

    const EPOCH_GRID: [usize; 3] = [1, 2, 8];
    const THREAD_GRID: [usize; 3] = [1, 2, 4];

    #[test]
    fn elastic_matches_sequential_fixpoint_across_the_grid() {
        let (sequential, seq_stats) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        for threads in THREAD_GRID {
            for epochs in EPOCH_GRID {
                let (elastic, stats) =
                    <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                        &direct_step,
                        St(0),
                        ParallelConfig { threads, epochs },
                    );
                assert_eq!(
                    elastic, sequential,
                    "fixpoint diverged at {threads} threads, {epochs} epochs"
                );
                // Fixpoint-level invariants only: elastic step counts are
                // legitimately timing-dependent, so no step-count parity.
                assert_eq!(stats.distinct_states, seq_stats.distinct_states);
                assert_eq!(stats.sync_rounds, stats.iterations);
                assert!(stats.states_stepped >= seq_stats.distinct_states);
                if epochs > 1 {
                    assert!(stats.epochs_run >= stats.iterations);
                    assert!(
                        stats.worker_cache_hits + stats.worker_cache_misses > 0,
                        "the worker memo must see traffic"
                    );
                }
            }
        }
    }

    #[test]
    fn one_epoch_is_exactly_the_barrier_engine() {
        for threads in THREAD_GRID {
            let (barrier, barrier_stats) =
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                    &direct_step,
                    St(0),
                    ParallelConfig::barrier(threads),
                );
            let (elastic, elastic_stats) =
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                    &direct_step,
                    St(0),
                    ParallelConfig { threads, epochs: 1 },
                );
            assert_eq!(elastic, barrier);
            // Full delegation: even the timing-dependent counters come
            // from the same code path (modulo steal/stripe timing).
            assert_eq!(elastic_stats.iterations, barrier_stats.iterations);
            assert_eq!(elastic_stats.states_stepped, barrier_stats.states_stepped);
            assert_eq!(elastic_stats.epochs_run, 0);
            assert_eq!(elastic_stats.worker_cache_hits, 0);
        }
    }

    #[test]
    fn elastic_rebuild_defence_matches_sequential() {
        type NmDom = SharedStoreDomain<NmSt, G, S>;
        let nm_direct = |ps: NmSt, g: G, s: S| run_store_passing(nonmonotone_step(ps), g, s);
        let (sequential, seq_stats) =
            <NmDom as DirectCollecting<NmSt, G, S>>::explore_frontier_direct(&nm_direct, NmSt(0));
        assert!(seq_stats.rebuild_rounds > 0, "oracle must rebuild");
        for threads in [1usize, 3] {
            for epochs in [2usize, 8] {
                let (elastic, stats) =
                    <NmDom as ParallelCollecting<NmSt, G, S>>::explore_frontier_parallel(
                        &nm_direct,
                        NmSt(0),
                        ParallelConfig { threads, epochs },
                    );
                assert_eq!(
                    elastic, sequential,
                    "rebuild diverged at {threads} threads, {epochs} epochs"
                );
                assert!(stats.rebuild_rounds > 0);
            }
        }
    }

    #[test]
    fn elastic_worker_panic_propagates() {
        let poisoned_step = |ps: St, g: G, s: S| {
            if ps.0 == 3 {
                panic!("boom at state 3");
            }
            direct_step(ps, g, s)
        };
        for threads in [1usize, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                    &poisoned_step,
                    St(0),
                    ParallelConfig { threads, epochs: 4 },
                )
            }));
            let payload = caught.expect_err("the step panic must propagate");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(message.contains("boom"), "unexpected payload: {message}");
        }
    }

    #[test]
    fn zero_config_clamps_to_one_thread_one_epoch() {
        let (domain, _) = <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
            &direct_step,
            St(0),
            ParallelConfig {
                threads: 0,
                epochs: 0,
            },
        );
        let (sequential, _) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        assert_eq!(domain, sequential);
    }

    #[test]
    fn traced_elastic_records_epochs_and_merges() {
        let mut buf = TraceBuffer::new();
        let (traced, traced_stats) =
            <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel_traced(
                &direct_step,
                St(0),
                ParallelConfig {
                    threads: 2,
                    epochs: 4,
                },
                &mut buf,
            );
        let (untraced, untraced_stats) =
            <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                &direct_step,
                St(0),
                ParallelConfig {
                    threads: 2,
                    epochs: 4,
                },
            );
        // Tracing must never change the fixpoint; counters may differ
        // (epoch timing), but the round structure is sink-independent at
        // the fixpoint level.
        assert_eq!(traced, untraced);
        assert_eq!(traced_stats.distinct_states, untraced_stats.distinct_states);
        assert_eq!(buf.rounds.len(), traced_stats.iterations);
        assert_eq!(buf.merges.len(), traced_stats.iterations);
        assert_eq!(
            buf.epochs.len(),
            traced_stats.epochs_run,
            "one epoch trace per epoch run"
        );
        assert!(buf.epochs.iter().all(|e| e.epoch >= 1 && e.epoch <= 4));
        let json = buf.chrome_trace_json();
        assert!(json.contains("\"cat\":\"epoch\""));
        assert!(json.contains("\"cat\":\"merge\""));
    }
}
