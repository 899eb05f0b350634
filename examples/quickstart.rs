//! Quickstart: parse a CPS program, run the concrete interpreter, then run
//! a spectrum of abstract interpreters obtained by swapping the monadic
//! parameters — without touching the semantics.  Each analysis is one call
//! into `mai_core::analyse`: the domain type picks context and store, the
//! function picks the engine, and an argument picks abstract GC.
//!
//! Run with `cargo run --example quickstart`.

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::core::Name;
use monadic_ai::cps::analysis::{KCfaShared, MonoShared};
use monadic_ai::cps::{flow_map_of_store, interpret, parse_program, AnalysisMetrics};

fn main() {
    // The identity function applied to the identity function, in CPS.
    let source = "((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))";
    let program = parse_program(source).expect("the quickstart program parses");
    println!("program: {program}");

    // 1. The concrete interpreter (paper §4): same `mnext`, deterministic
    //    state monad over a real heap.
    let run = interpret(&program);
    println!(
        "concrete run halted: {} (allocated {} heap cells)",
        run.halted(),
        run.heap().allocation_count()
    );

    // 2. The monovariant analysis (0CFA): the \"context-insensitivity
    //    monad\" plugged into the same semantics.
    let mono: MonoShared = analyse::kleene(&program, Gc::Off);
    let flows = flow_map_of_store(mono.store());
    println!("0CFA flow set of x: {:?}", flows[&Name::from("x")]);

    // 3. 1-CFA with a shared (widened) store, with and without abstract
    //    garbage collection.
    let one: KCfaShared<1> = analyse::kleene(&program, Gc::Off);
    let one_gc: KCfaShared<1> = analyse::kleene(&program, Gc::On);
    println!("1CFA        : {:?}", AnalysisMetrics::of_shared(&one));
    println!("1CFA + GC   : {:?}", AnalysisMetrics::of_shared(&one_gc));

    // 4. The same analysis on the fast engine: the direct carrier and the
    //    id-indexed worklist reach the identical fixpoint.
    let (direct, stats) = analyse::direct::<KCfaShared<1>>(&program, Gc::On);
    println!(
        "1CFA + GC on the direct engine == Kleene: {}",
        direct == one_gc
    );
    println!("  engine [{stats}]");
}
