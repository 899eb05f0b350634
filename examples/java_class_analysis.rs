//! The same monadic parameters, now analysing Featherweight Java
//! (paper §1: "plugging the same context-insensitivity monad into a
//! monadically-parameterized semantics for Java or for the lambda calculus
//! yields the expected context-insensitive analysis").
//!
//! Run with `cargo run --example java_class_analysis`.

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::fj::analysis::{KFjShared, MonoFjShared};
use monadic_ai::fj::programs::{pair_fst, shape_dispatch, two_cells};
use monadic_ai::fj::{class_flow_map, result_classes, run};

fn main() {
    for (name, program) in [
        ("pair-fst", pair_fst()),
        ("two-cells", two_cells()),
        ("shape-dispatch", shape_dispatch()),
    ] {
        println!("== {name} ==");
        println!("main: {}", program.main);

        // Ground truth from the concrete interpreter.
        let concrete = run(&program);
        println!("concrete result class : {:?}", concrete.result_class());

        // Context-insensitive class analysis.
        let mono: MonoFjShared = analyse::kleene(&program, Gc::Off);
        println!("0CFA result classes   : {:?}", result_classes(&mono));

        // 1-call-site-sensitive class analysis.
        let one: KFjShared<1> = analyse::kleene(&program, Gc::Off);
        println!("1CFA result classes   : {:?}", result_classes(&one));

        // Field/variable class flows under the monovariant analysis.
        let flows = class_flow_map(mono.store());
        let interesting: Vec<String> = flows
            .iter()
            .filter(|(var, _)| !var.as_str().starts_with("$kont"))
            .map(|(var, classes)| format!("{var} ↦ {classes:?}"))
            .collect();
        println!("0CFA class flows      : {}", interesting.join(", "));
        println!();
    }
}
