//! Cross-language adequacy: Church arithmetic evaluated by the direct-style
//! CESK interpreter, by the CPS interpreter after CPS conversion, and
//! approximated by the abstract interpreters of both substrates.
//!
//! Run with `cargo run --example church_adequacy`.

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::cps::analysis::MonoShared;
use monadic_ai::cps::convert::cps_convert;
use monadic_ai::cps::interpret_with_limit;
use monadic_ai::lambda::analysis::MonoCeskShared;
use monadic_ai::lambda::programs::{church_exponentiation, church_multiplication};
use monadic_ai::lambda::{decode_church_numeral, evaluate};

fn main() {
    for (label, term, expected) in [
        ("2 × 3", church_multiplication(2, 3), 6),
        ("2 ^ 3", church_exponentiation(2, 3), 8),
        ("3 ^ 2", church_exponentiation(3, 2), 9),
    ] {
        println!("== church {label} ==");

        // Direct-style: concrete CESK evaluation + decoding.
        let decoded = decode_church_numeral(&term);
        println!("CESK decodes the numeral to {decoded} (expected {expected})");
        assert_eq!(decoded, expected);
        let cesk_run = evaluate(&term);
        println!("CESK halts: {}", cesk_run.halted());

        // CPS: convert, interpret concretely, and analyse abstractly.
        let program = cps_convert(&term);
        let cps_run = interpret_with_limit(&program, 1_000_000);
        println!(
            "CPS-converted program has {} call sites; concrete CPS run halts: {}",
            program.call_site_count(),
            cps_run.halted()
        );

        // The abstract interpreters terminate on both representations and
        // keep the halt state reachable — the soundness sanity check.
        let cesk_abs: MonoCeskShared = analyse::kleene(&term, Gc::Off);
        let cps_abs: MonoShared = analyse::kleene(&program, Gc::Off);
        println!(
            "abstract state counts: CESK 0CFA = {}, CPS 0CFA = {}",
            cesk_abs.len(),
            cps_abs.len()
        );
        println!();
    }
}
