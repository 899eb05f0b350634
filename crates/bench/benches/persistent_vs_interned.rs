//! E11 — the direct-style carrier on the persistent store spine vs. the
//! PR-3 interned engine on the `Rc`-closure carrier.
//!
//! Both sides run the *same* id-indexed incremental solver over the *same*
//! pmap-backed stores; the only difference is how a transition is
//! evaluated: `analyse::worklist` desugars the `Rc<dyn Fn>` monad per
//! step (one heap allocation per bind plus capture clones),
//! `analyse::direct` runs `mnext_direct` — plain function composition on
//! an explicit `(context, store)` pair.  The gap is therefore pure
//! carrier (bind-allocation) cost.  A GC'd configuration and a counting
//! store ride along to keep the fast path honest on the harder store
//! shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mai_core::analyse::{self, Gc};
use mai_cps::analysis::{KCfaCounting, KCfaShared};
use mai_cps::programs::{garbage_chain, kcfa_worst_case_scaled};

fn persistent_vs_interned(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistent_vs_interned");
    group.sample_size(10);
    for n in 3usize..=6 {
        let program = kcfa_worst_case_scaled(n, 16);
        let id = format!("{n}w16");
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/rc-interned", id.clone()),
            &program,
            |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::Off)),
        );
        group.bench_with_input(
            BenchmarkId::new("kcfa-worst/direct", id),
            &program,
            |b, p| b.iter(|| analyse::direct::<KCfaShared<1>>(p, Gc::Off)),
        );
    }
    let program = garbage_chain(10);
    group.bench_with_input(
        BenchmarkId::new("garbage-chain-gc/rc-interned", 10usize),
        &program,
        |b, p| b.iter(|| analyse::worklist::<KCfaShared<1>>(p, Gc::On)),
    );
    group.bench_with_input(
        BenchmarkId::new("garbage-chain-gc/direct", 10usize),
        &program,
        |b, p| b.iter(|| analyse::direct::<KCfaShared<1>>(p, Gc::On)),
    );
    let program = kcfa_worst_case_scaled(4, 8);
    group.bench_with_input(
        BenchmarkId::new("kcfa-worst-counting/rc-interned", "4w8"),
        &program,
        |b, p| b.iter(|| analyse::worklist::<KCfaCounting<1>>(p, Gc::Off)),
    );
    group.bench_with_input(
        BenchmarkId::new("kcfa-worst-counting/direct", "4w8"),
        &program,
        |b, p| b.iter(|| analyse::direct::<KCfaCounting<1>>(p, Gc::Off)),
    );
    group.finish();
}

criterion_group!(benches, persistent_vs_interned);
criterion_main!(benches);
