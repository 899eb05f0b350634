//! Polyvariance as a monadic parameter (paper §6.1, §8.1–§8.2).
//!
//! The same CPS semantics is analysed under the monovariant allocator and
//! under k-CFA call-string contexts for several k, measuring how the flow
//! sets and store sizes change.  The program is the classic "fan-out"
//! polyvariance stress test: one identity function called from n sites with
//! n different arguments.
//!
//! Run with `cargo run --example polyvariance`.

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::core::Name;
use monadic_ai::cps::analysis::{KCfaShared, MonoShared};
use monadic_ai::cps::programs::fan_out;
use monadic_ai::cps::{flow_map_of_store, AnalysisMetrics};

fn main() {
    let program = fan_out(6);
    println!("analysing: {program}\n");

    let mono: MonoShared = analyse::kleene(&program, Gc::Off);
    let mono_flows = flow_map_of_store(mono.store());
    println!(
        "0CFA  : x may be {} different lambdas | metrics {:?}",
        mono_flows[&Name::from("x")].len(),
        AnalysisMetrics::of_shared(&mono)
    );

    let one: KCfaShared<1> = analyse::kleene(&program, Gc::Off);
    let one_flows = flow_map_of_store(one.store());
    println!(
        "1CFA  : x may be {} different lambdas | metrics {:?}",
        one_flows[&Name::from("x")].len(),
        AnalysisMetrics::of_shared(&one)
    );

    let two: KCfaShared<2> = analyse::kleene(&program, Gc::Off);
    println!("2CFA  : metrics {:?}", AnalysisMetrics::of_shared(&two));

    // Under 0CFA all six argument lambdas pile into the single abstract
    // binding of x; under 1CFA each call site gets its own binding, so the
    // *per-address* flow sets become singletons even though the union over
    // all contexts is unchanged.
    let singleton_bindings = |metrics: &AnalysisMetrics| {
        format!(
            "{} of {} addresses are singletons",
            metrics.singleton_flows, metrics.store_bindings
        )
    };
    println!();
    println!(
        "0CFA  : {}",
        singleton_bindings(&AnalysisMetrics::of_shared(&mono))
    );
    println!(
        "1CFA  : {}",
        singleton_bindings(&AnalysisMetrics::of_shared(&one))
    );
}
