//! The frontier-driven worklist engine from the outside: same fixpoints as
//! Kleene iteration, a fraction of the work, plus `EngineStats` telemetry.
//!
//! Run with `cargo run --example worklist_engine`.

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::cps::analysis::{KCfaShared, MonoShared};
use monadic_ai::cps::parse_program;
use monadic_ai::cps::programs::{kcfa_worst_case, omega};

fn main() {
    // A handwritten program through the parser, solved by the worklist
    // engine's monovariant analysis.
    let program = parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap();
    let (mono, stats) = analyse::worklist::<MonoShared>(&program, Gc::Off);
    println!(
        "identity: {} states reached, engine [{stats}]",
        mono.distinct_states().len()
    );

    // The divergent Ω term: the abstract engine still terminates.
    let (o, stats) = analyse::worklist::<MonoShared>(&omega(), Gc::Off);
    println!(
        "omega:    {} states reached, engine [{stats}]",
        o.distinct_states().len()
    );

    // The k-CFA worst case: identical fixpoint, far fewer steps than the
    // Kleene oracle re-steps.  The incremental accumulator folds
    // O(|frontier|) contributions per round (the `joins=` counter over the
    // `iters=` rounds), not the O(|states|) of re-joining every cached
    // contribution; the structural-key baseline runs the same strategy
    // with deep-compared states instead of interned ids.
    let program = kcfa_worst_case(3);
    let kleene: KCfaShared<1> = analyse::kleene(&program, Gc::Off);
    let (worklist, stats) = analyse::worklist::<KCfaShared<1>>(&program, Gc::Off);
    let (structural, structural_stats) = analyse::structural::<KCfaShared<1>>(&program, Gc::Off);
    println!(
        "kcfa-worst-3 (1CFA): incremental == kleene: {}, structural == kleene: {}",
        worklist == kleene,
        structural == kleene
    );
    println!(
        "  joins/round {:.1} over {} states",
        stats.joins_per_round(),
        worklist.len()
    );
    println!("  incremental [{stats}]");
    println!("  structural  [{structural_stats}]");
}
