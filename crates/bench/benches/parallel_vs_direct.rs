//! E12 — the sharded parallel driver vs. the sequential direct engine.
//!
//! Both sides run the *same* id-indexed incremental solve of the *same*
//! direct-style transitions; the parallel side shards each round's
//! frontier across a persistent worker pool (work-stealing by `StateId`
//! ranges) and joins per-shard store deltas at a sync barrier.  The
//! deterministic work counters are identical by construction — the gap is
//! pure execution strategy, so the speedup tracks the host's core count:
//! ≈1× minus sync overhead on a single-CPU host, approaching the thread
//! count on the wide-frontier lanes workloads when the cores exist.
//!
//! The workload is `kcfa_worst_case_scaled(n, 16)`: 16 independent lanes
//! of the depth-`n` k-CFA paradox, all abstractly live at once, so every
//! round offers the driver ≈16–32 states to shard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mai_core::analyse::{self, Gc};
use mai_core::{Budget, NoopSink, ParallelConfig};
use mai_cps::analysis::KCfaShared;
use mai_cps::programs::{garbage_chain, kcfa_worst_case_scaled};
use mai_cps::CExp;

/// A 1CFA shared-store solve on the barrier-parallel driver.
fn barrier(program: &CExp, gc: Gc, threads: usize) -> KCfaShared<1> {
    let config = ParallelConfig::barrier(threads);
    let (outcome, _) = analyse::parallel(program, gc, config, &Budget::unlimited(), &mut NoopSink);
    outcome.into_complete()
}

fn parallel_vs_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_vs_direct");
    group.sample_size(10);
    for n in 3usize..=6 {
        let program = kcfa_worst_case_scaled(n, 16);
        let id = format!("{n}w16");
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/direct", id.clone()),
            &program,
            |b, p| b.iter(|| analyse::direct::<KCfaShared<1>>(p, Gc::Off)),
        );
        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("kcfa-worst/parallel-t{threads}"), id.clone()),
                &program,
                |b, p| b.iter(|| barrier(p, Gc::Off, threads)),
            );
        }
    }
    // A GC'd configuration rides along: per-branch store restriction runs
    // inside the workers, so the barrier protocol must tolerate shrunken
    // per-branch stores too.
    let program = garbage_chain(10);
    group.bench_with_input(
        BenchmarkId::new("garbage-chain-gc/direct", 10usize),
        &program,
        |b, p| b.iter(|| analyse::direct::<KCfaShared<1>>(p, Gc::On)),
    );
    group.bench_with_input(
        BenchmarkId::new("garbage-chain-gc/parallel-t2", 10usize),
        &program,
        |b, p| b.iter(|| barrier(p, Gc::On, 2)),
    );
    group.finish();
}

criterion_group!(benches, parallel_vs_direct);
criterion_main!(benches);
