//! Ablation — the price of the faithful layered `StateT`-over-`StateT`-
//! over-list encoding of the `StorePassing` monad, measured against a
//! hand-fused stepper that threads the context, store and branching
//! directly.

use criterion::{criterion_group, criterion_main, Criterion};
use mai_core::addr::Context;
use mai_core::env::PSet;
use mai_core::monad::run_store_passing;
use mai_core::store::StoreLike;
use mai_core::{BasicStore, KCallCtx, Lattice};
use mai_cps::programs::fan_out;
use mai_cps::semantics::{mnext, PState, Val};
use mai_cps::syntax::{AExp, CExp};

type Ctx = KCallCtx<1>;
type Addr = <Ctx as Context>::Addr;
type Store = BasicStore<Addr, Val<Addr>>;
type M = mai_core::StorePassing<Ctx, Store>;

/// One monadic step from every state in a frontier, via the layered monad.
fn layered_round(frontier: &[(PState<Addr>, Ctx, Store)]) -> Vec<(PState<Addr>, Ctx, Store)> {
    let mut out = Vec::new();
    for (ps, ctx, store) in frontier {
        for ((ps2, ctx2), store2) in
            run_store_passing(mnext::<M, Addr>(ps.clone(), ()), ctx.clone(), store.clone())
        {
            out.push((ps2, ctx2, store2));
        }
    }
    out
}

/// The same transition, hand-fused: explicit loops over callees and
/// arguments, no closures, no monad.
fn fused_round(frontier: &[(PState<Addr>, Ctx, Store)]) -> Vec<(PState<Addr>, Ctx, Store)> {
    let mut out = Vec::new();
    for (ps, ctx, store) in frontier {
        let CExp::Call { f, args, .. } = &ps.call else {
            out.push((ps.clone(), ctx.clone(), store.clone()));
            continue;
        };
        let callees: PSet<Val<Addr>> = match f {
            AExp::Lam(lam) => [Val::closure(lam.clone(), ps.env.clone())]
                .into_iter()
                .collect(),
            AExp::Ref(v) => ps.env.get(v).map(|a| store.fetch(a)).unwrap_or_default(),
        };
        for callee in callees {
            let ctx2 = ctx.clone().advance(ps.call.label());
            let lambda = callee.lambda().clone();
            let mut env2 = callee.env().clone();
            let mut store2 = store.clone();
            for (param, arg) in lambda.params().iter().zip(args.iter()) {
                let addr = ctx2.valloc(param);
                let vals: PSet<Val<Addr>> = match arg {
                    AExp::Lam(lam) => [Val::closure(lam.clone(), ps.env.clone())]
                        .into_iter()
                        .collect(),
                    AExp::Ref(v) => ps.env.get(v).map(|a| store.fetch(a)).unwrap_or_default(),
                };
                store2 = store2.bind(addr.clone(), vals);
                env2.insert(param.clone(), addr);
            }
            out.push((
                PState::new(lambda.body().as_ref().clone(), env2),
                ctx2,
                store2,
            ));
        }
    }
    out
}

fn transformer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("transformer_overhead");
    group.sample_size(10);
    let program = fan_out(5);
    let initial = vec![(
        PState::inject(program),
        Ctx::initial_context(),
        Store::bottom(),
    )];

    group.bench_function("layered-monad", |b| {
        b.iter(|| {
            let mut frontier = initial.clone();
            for _ in 0..6 {
                frontier = layered_round(&frontier);
            }
            frontier.len()
        })
    });
    group.bench_function("hand-fused", |b| {
        b.iter(|| {
            let mut frontier = initial.clone();
            for _ in 0..6 {
                frontier = fused_round(&frontier);
            }
            frontier.len()
        })
    });
    group.finish();
}

criterion_group!(benches, transformer_overhead);
criterion_main!(benches);
