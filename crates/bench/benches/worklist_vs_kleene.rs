//! E8 — the frontier-driven worklist engine vs. naive Kleene iteration on
//! the workloads where re-stepping hurts most: the k-CFA worst-case family
//! (many states, heavy sharing through the store) and the garbage chain
//! (long chains of states whose dependencies never change again).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mai_core::analyse::{self, Gc};
use mai_cps::analysis::{analyse_kcfa_shared, analyse_kcfa_shared_gc, KCfaShared};
use mai_cps::programs::{garbage_chain, kcfa_worst_case};

fn worklist_vs_kleene(c: &mut Criterion) {
    let mut group = c.benchmark_group("worklist_vs_kleene");
    group.sample_size(10);
    for n in [2usize, 3] {
        let program = kcfa_worst_case(n);
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/kleene", n),
            &program,
            |b, p| b.iter(|| analyse_kcfa_shared::<1>(p)),
        );
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/worklist", n),
            &program,
            |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::Off)),
        );
    }
    for n in [6usize, 10] {
        let program = garbage_chain(n);
        group.bench_with_input(
            BenchmarkId::new("garbage-chain/kleene", n),
            &program,
            |b, p| b.iter(|| analyse_kcfa_shared::<1>(p)),
        );
        group.bench_with_input(
            BenchmarkId::new("garbage-chain/worklist", n),
            &program,
            |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::Off)),
        );
        group.bench_with_input(
            BenchmarkId::new("garbage-chain/kleene-gc", n),
            &program,
            |b, p| b.iter(|| analyse_kcfa_shared_gc::<1>(p)),
        );
        group.bench_with_input(
            BenchmarkId::new("garbage-chain/worklist-gc", n),
            &program,
            |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::On)),
        );
    }
    group.finish();
}

criterion_group!(benches, worklist_vs_kleene);
criterion_main!(benches);
