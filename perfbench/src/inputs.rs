//! Seeded input generation.
//!
//! The seed drives two things only: a consistent alpha-renaming of every
//! identifier (to fresh names of one fixed length, so the byte size of a
//! program does not depend on the seed) and the order of the lanes (CPS)
//! or class declarations (FJ).  Both are bijections on the program, so the
//! analysis explores the same number of configurations and derives the same
//! number of flow facts for every seed — the expected counts in
//! `expected.txt` hold for any seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mai_core::name::Name;
use mai_core::sexp::{parse_one, Sexp};
use mai_fj::syntax::{ClassDecl, ClassTable, Expr, MethodDecl, Program};

use crate::stats::Rng;

/// Words the front ends reserve; never renamed.
const KEYWORDS: &[&str] = &["λ", "lambda", "let", "exit", "error", "this", "Object"];

/// Length of every generated identifier.
const NAME_LEN: usize = 8;

/// A seeded, consistent, injective renaming of identifiers.
pub struct Renamer {
    rng: Rng,
    map: BTreeMap<String, String>,
    used: BTreeSet<String>,
}

impl Renamer {
    pub fn new(rng: Rng) -> Self {
        Renamer {
            rng,
            map: BTreeMap::new(),
            used: BTreeSet::new(),
        }
    }

    /// The fresh name for `old` (the same one on every call); keywords map
    /// to themselves.
    pub fn rename(&mut self, old: &str) -> String {
        if KEYWORDS.contains(&old) {
            return old.to_owned();
        }
        if let Some(new) = self.map.get(old) {
            return new.clone();
        }
        const FIRST: &[u8] = b"abcdefghjkmnpqrstuvwxyz";
        const REST: &[u8] = b"abcdefghjkmnpqrstuvwxyz0123456789";
        let fresh = loop {
            let mut name = String::with_capacity(NAME_LEN);
            name.push(FIRST[self.rng.below(FIRST.len())] as char);
            while name.len() < NAME_LEN {
                name.push(REST[self.rng.below(REST.len())] as char);
            }
            if self.used.insert(name.clone()) {
                break name;
            }
        };
        self.map.insert(old.to_owned(), fresh.clone());
        fresh
    }

    fn rename_name(&mut self, old: &Name) -> Name {
        Name::from(self.rename(old.as_str()).as_str())
    }

    /// Renames every identifier token of an s-expression text, leaving
    /// parentheses and whitespace as they are.
    pub fn rename_text(&mut self, text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut token = String::new();
        for c in text.chars() {
            if c == '(' || c == ')' || c.is_whitespace() {
                if !token.is_empty() {
                    out.push_str(&self.rename(&token));
                    token.clear();
                }
                out.push(c);
            } else {
                token.push(c);
            }
        }
        if !token.is_empty() {
            out.push_str(&self.rename(&token));
        }
        out
    }
}

/// `((λ (y) y) ((λ (y) y) … (λ (x) x)))` with `depth` identity
/// applications, `y` and `x` renamed by the seed.
pub fn lambda_deep_source(depth: usize, seed: u64) -> String {
    let mut names = Renamer::new(Rng::new(seed));
    let y = names.rename("y");
    let x = names.rename("x");
    let mut text = String::new();
    for _ in 0..depth {
        text.push_str(&format!("((λ ({y}) {y}) "));
    }
    text.push_str(&format!("(λ ({x}) {x})"));
    text.push_str(&")".repeat(depth));
    text
}

/// `kcfa_worst_case_scaled(depth, width)` rendered as source text, with its
/// lanes fed to the relay in a seeded order and every identifier renamed.
pub fn cps_lanes_source(depth: usize, width: usize, seed: u64) -> String {
    let rendered = mai_cps::programs::kcfa_worst_case_scaled(depth, width).to_string();
    let mut tree = parse_one(&rendered).expect("a rendered CPS program is an s-expression");
    let mut rng = Rng::new(seed);
    permute_lanes(&mut tree, &mut rng);
    Renamer::new(rng).rename_text(&tree.to_string())
}

/// Reorders the lane arguments of the relay chain
/// `(pump lane₀ (λ (r0) (pump lane₁ (λ (r1) …))))`.
fn permute_lanes(tree: &mut Sexp, rng: &mut Rng) {
    let Some(chain) = first_pump_call(tree) else {
        return;
    };
    let mut lanes = Vec::new();
    visit_lanes(chain, &mut |lane| {
        lanes.push(std::mem::replace(lane, Sexp::atom("_")))
    });
    rng.shuffle(&mut lanes);
    let mut lanes = lanes.into_iter();
    visit_lanes(chain, &mut |lane| {
        *lane = lanes.next().expect("as many lanes go back as came out")
    });
}

fn is_pump_call(items: &[Sexp]) -> bool {
    items.len() == 3 && items[0].as_atom() == Some("pump")
}

fn first_pump_call(tree: &mut Sexp) -> Option<&mut Sexp> {
    let found = matches!(tree, Sexp::List(items) if is_pump_call(items));
    if found {
        return Some(tree);
    }
    match tree {
        Sexp::Atom(_) => None,
        Sexp::List(items) => items.iter_mut().find_map(first_pump_call),
    }
}

fn visit_lanes(mut node: &mut Sexp, visit: &mut impl FnMut(&mut Sexp)) {
    loop {
        let Sexp::List(items) = node else { return };
        if !is_pump_call(items) {
            return;
        }
        let (lane, rest) = items.split_at_mut(2);
        visit(&mut lane[1]);
        // rest[0] is the continuation `(λ (rᵢ) next)`.
        let Sexp::List(cont) = &mut rest[0] else {
            return;
        };
        let Some(next) = cont.get_mut(2) else { return };
        node = next;
    }
}

/// `nested_cells(n)` with its class, field, method and variable names
/// renamed and its class declarations listed in a seeded order.
pub fn fj_nested_cells(n: usize, seed: u64) -> Program {
    let program = mai_fj::programs::nested_cells(n);
    let mut rng = Rng::new(seed);
    let mut decls: Vec<ClassDecl> = program.table.classes().cloned().collect();
    rng.shuffle(&mut decls);
    let mut names = Renamer::new(rng);
    let decls: Vec<ClassDecl> = decls
        .iter()
        .map(|decl| ClassDecl {
            name: names.rename_name(&decl.name),
            superclass: names.rename_name(&decl.superclass),
            fields: decl
                .fields
                .iter()
                .map(|(ty, f)| (names.rename_name(ty), names.rename_name(f)))
                .collect(),
            methods: decl
                .methods
                .iter()
                .map(|m| MethodDecl {
                    return_type: names.rename_name(&m.return_type),
                    name: names.rename_name(&m.name),
                    params: m
                        .params
                        .iter()
                        .map(|(ty, p)| (names.rename_name(ty), names.rename_name(p)))
                        .collect(),
                    body: rename_expr(&m.body, &mut names),
                })
                .collect(),
        })
        .collect();
    Program {
        table: ClassTable::new(decls).expect("renaming keeps the class table well-formed"),
        main: rename_expr(&program.main, &mut names),
    }
}

fn rename_expr(expr: &Expr, names: &mut Renamer) -> Expr {
    match expr {
        Expr::Var(v) => Expr::Var(names.rename_name(v)),
        Expr::FieldAccess {
            label,
            object,
            field,
        } => Expr::FieldAccess {
            label: *label,
            object: Arc::new(rename_expr(object, names)),
            field: names.rename_name(field),
        },
        Expr::MethodCall {
            label,
            object,
            method,
            args,
        } => Expr::MethodCall {
            label: *label,
            object: Arc::new(rename_expr(object, names)),
            method: names.rename_name(method),
            args: args.iter().map(|a| rename_expr(a, names)).collect(),
        },
        Expr::New { label, class, args } => Expr::New {
            label: *label,
            class: names.rename_name(class),
            args: args.iter().map(|a| rename_expr(a, names)).collect(),
        },
        Expr::Cast {
            label,
            class,
            object,
        } => Expr::Cast {
            label: *label,
            class: names.rename_name(class),
            object: Arc::new(rename_expr(object, names)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_is_consistent_and_injective() {
        let mut r = Renamer::new(Rng::new(1));
        let a = r.rename("a");
        assert_eq!(r.rename("a"), a);
        assert_ne!(r.rename("b"), a);
        assert_eq!(r.rename("λ"), "λ");
        assert_eq!(a.len(), NAME_LEN);
    }

    #[test]
    fn lanes_are_permuted_not_lost() {
        let a = cps_lanes_source(2, 6, 1);
        let b = cps_lanes_source(2, 6, 2);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        mai_cps::parse_program(&a).expect("seeded lanes parse");
    }
}
