//! E10 — the id-indexed (hash-consed) engine vs. the PR-2 structural-key
//! incremental engine, on the workloads where state identity dominates: the
//! scaled k-CFA worst-case family (many states with deep environments, all
//! sharing one widened store).  Both engines run the identical
//! frontier/fold strategy; the only difference is whether states are dense
//! interned ids or full structural `BTreeMap` keys — so the gap is pure
//! state-identity cost.  The garbage chain under abstract GC rides along as
//! the configuration the id-indexed engine must stay exact on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mai_core::analyse::{self, Gc};
use mai_cps::analysis::KCfaShared;
use mai_cps::programs::{garbage_chain, kcfa_worst_case_scaled};

fn interned_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("interned_vs_incremental");
    group.sample_size(10);
    for (n, width) in [(4usize, 8usize), (4, 16), (6, 16)] {
        let program = kcfa_worst_case_scaled(n, width);
        let id = format!("{n}w{width}");
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/structural", id.clone()),
            &program,
            |b, p| b.iter(|| analyse::structural::<KCfaShared<1>>(p, Gc::Off)),
        );
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/interned", id),
            &program,
            |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::Off)),
        );
    }
    for n in [6usize, 10] {
        let program = garbage_chain(n);
        group.bench_with_input(
            BenchmarkId::new("garbage-chain-gc/structural", n),
            &program,
            |b, p| b.iter(|| analyse::structural::<KCfaShared<1>>(p, Gc::On)),
        );
        group.bench_with_input(
            BenchmarkId::new("garbage-chain-gc/interned", n),
            &program,
            |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::On)),
        );
    }
    group.finish();
}

criterion_group!(benches, interned_vs_incremental);
criterion_main!(benches);
