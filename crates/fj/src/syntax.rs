//! Syntax and class tables for Featherweight Java (Igarashi, Pierce &
//! Wadler), the third calculus the paper's implementation covers.
//!
//! Featherweight Java strips Java down to classes with fields, methods,
//! object construction, field access, method invocation and casts — just
//! enough to exercise an object-oriented semantics.  As with the other
//! substrates, every expression that constitutes a program point (method
//! calls, constructions, field accesses, casts) carries a [`Label`] so the
//! language-independent context machinery applies unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use mai_core::name::{Label, LabelSupply, Name};

/// A class name.
pub type ClassName = Name;

/// A field name.
pub type FieldName = Name;

/// A method name.
pub type MethodName = Name;

/// A variable name (`this` included).
pub type VarName = Name;

/// The distinguished root class.
pub fn object_class() -> ClassName {
    Name::from("Object")
}

/// The distinguished receiver variable.
pub fn this_var() -> VarName {
    Name::from("this")
}

/// A Featherweight Java expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A variable reference (`x` or `this`).
    Var(VarName),
    /// A field access `e.f`.
    FieldAccess {
        /// The program-point label.
        label: Label,
        /// The receiver expression.
        object: Arc<Expr>,
        /// The accessed field.
        field: FieldName,
    },
    /// A method invocation `e.m(ē)`.
    MethodCall {
        /// The program-point label.
        label: Label,
        /// The receiver expression.
        object: Arc<Expr>,
        /// The invoked method.
        method: MethodName,
        /// The argument expressions.
        args: Vec<Expr>,
    },
    /// An object construction `new C(ē)`.
    New {
        /// The program-point label.
        label: Label,
        /// The constructed class.
        class: ClassName,
        /// The constructor arguments, one per field of `C` (inherited
        /// fields first).
        args: Vec<Expr>,
    },
    /// A cast `(C) e`.
    Cast {
        /// The program-point label.
        label: Label,
        /// The target class.
        class: ClassName,
        /// The cast expression.
        object: Arc<Expr>,
    },
}

impl Expr {
    /// A variable reference.
    pub fn var(name: impl Into<Name>) -> Self {
        Expr::Var(name.into())
    }

    /// The free variables of this expression.
    pub fn free_vars(&self) -> BTreeSet<VarName> {
        match self {
            Expr::Var(v) => [v.clone()].into_iter().collect(),
            Expr::FieldAccess { object, .. } => object.free_vars(),
            Expr::MethodCall { object, args, .. } => {
                let mut out = object.free_vars();
                for a in args {
                    out.extend(a.free_vars());
                }
                out
            }
            Expr::New { args, .. } => args.iter().flat_map(Expr::free_vars).collect(),
            Expr::Cast { object, .. } => object.free_vars(),
        }
    }

    /// All labels occurring in this expression.
    pub fn labels(&self) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut BTreeSet<Label>) {
        match self {
            Expr::Var(_) => {}
            Expr::FieldAccess { label, object, .. } => {
                out.insert(*label);
                object.collect_labels(out);
            }
            Expr::MethodCall {
                label,
                object,
                args,
                ..
            } => {
                out.insert(*label);
                object.collect_labels(out);
                for a in args {
                    a.collect_labels(out);
                }
            }
            Expr::New { label, args, .. } => {
                out.insert(*label);
                for a in args {
                    a.collect_labels(out);
                }
            }
            Expr::Cast { label, object, .. } => {
                out.insert(*label);
                object.collect_labels(out);
            }
        }
    }

    /// The number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Expr::Var(_) => 1,
            Expr::FieldAccess { object, .. } => 1 + object.size(),
            Expr::MethodCall { object, args, .. } => {
                1 + object.size() + args.iter().map(Expr::size).sum::<usize>()
            }
            Expr::New { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Cast { object, .. } => 1 + object.size(),
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{}", v),
            Expr::FieldAccess { object, field, .. } => write!(f, "{}.{}", object, field),
            Expr::MethodCall {
                object,
                method,
                args,
                ..
            } => {
                write!(f, "{}.{}(", object, method)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                write!(f, ")")
            }
            Expr::New { class, args, .. } => {
                write!(f, "new {}(", class)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                write!(f, ")")
            }
            Expr::Cast { class, object, .. } => write!(f, "(({}) {})", class, object),
        }
    }
}

/// A method declaration `C m(C̄ x̄) { return e; }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodDecl {
    /// The declared return type.
    pub return_type: ClassName,
    /// The method name.
    pub name: MethodName,
    /// The parameters: `(type, name)` pairs.
    pub params: Vec<(ClassName, VarName)>,
    /// The body (the expression after `return`).
    pub body: Expr,
}

/// A class declaration `class C extends D { C̄ f̄; M̄ }`.
///
/// The canonical Featherweight Java constructor (which merely assigns every
/// field) is implied rather than written out; `new C(ē)` initialises the
/// inherited fields first and the locally declared fields after, in
/// declaration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassDecl {
    /// The class name.
    pub name: ClassName,
    /// The superclass name (`Object` for roots).
    pub superclass: ClassName,
    /// The fields declared *in this class*: `(type, name)` pairs.
    pub fields: Vec<(ClassName, FieldName)>,
    /// The methods declared in this class.
    pub methods: Vec<MethodDecl>,
}

/// Errors raised while resolving names against a class table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The named class is not declared (and is not `Object`).
    UnknownClass(ClassName),
    /// The class hierarchy contains a cycle through this class.
    CyclicHierarchy(ClassName),
    /// The named field is not present on the class.
    UnknownField(ClassName, FieldName),
    /// The named method is not present on the class or its ancestors.
    UnknownMethod(ClassName, MethodName),
    /// A class was declared more than once.
    DuplicateClass(ClassName),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownClass(c) => write!(f, "unknown class {}", c),
            TableError::CyclicHierarchy(c) => write!(f, "cyclic class hierarchy through {}", c),
            TableError::UnknownField(c, x) => write!(f, "class {} has no field {}", c, x),
            TableError::UnknownMethod(c, m) => write!(f, "class {} has no method {}", c, m),
            TableError::DuplicateClass(c) => write!(f, "class {} declared twice", c),
        }
    }
}

impl std::error::Error for TableError {}

/// A class table: the collection of class declarations a program runs
/// against, with the usual Featherweight Java lookup functions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassTable {
    /// Shared, so that cloning a table into a transition's continuation is
    /// a reference-count bump.
    classes: Arc<BTreeMap<ClassName, ClassDecl>>,
}

impl ClassTable {
    /// Builds a class table, rejecting duplicate declarations and
    /// declarations of `Object`.
    pub fn new(decls: Vec<ClassDecl>) -> Result<Self, TableError> {
        let mut classes = BTreeMap::new();
        for decl in decls {
            if decl.name == object_class() {
                return Err(TableError::DuplicateClass(decl.name));
            }
            if classes.insert(decl.name.clone(), decl.clone()).is_some() {
                return Err(TableError::DuplicateClass(decl.name));
            }
        }
        Ok(ClassTable {
            classes: Arc::new(classes),
        })
    }

    /// The declaration of a class, if any.
    pub fn class(&self, name: &ClassName) -> Option<&ClassDecl> {
        self.classes.get(name)
    }

    /// All declared classes (not including `Object`).
    pub fn classes(&self) -> impl Iterator<Item = &ClassDecl> {
        self.classes.values()
    }

    /// The superclass chain of `name`, starting with `name` itself and
    /// ending with `Object`.
    ///
    /// # Errors
    ///
    /// Fails on unknown classes and cyclic hierarchies.
    pub fn ancestry(&self, name: &ClassName) -> Result<Vec<ClassName>, TableError> {
        let mut chain = Vec::new();
        let mut seen = BTreeSet::new();
        let mut current = name.clone();
        loop {
            if current == object_class() {
                chain.push(current);
                return Ok(chain);
            }
            if !seen.insert(current.clone()) {
                return Err(TableError::CyclicHierarchy(current));
            }
            let decl = self
                .classes
                .get(&current)
                .ok_or_else(|| TableError::UnknownClass(current.clone()))?;
            chain.push(current);
            current = decl.superclass.clone();
        }
    }

    /// Whether `sub` is a subtype of `sup` (reflexive, transitive).
    pub fn is_subtype(&self, sub: &ClassName, sup: &ClassName) -> Result<bool, TableError> {
        Ok(self.ancestry(sub)?.contains(sup))
    }

    /// The fields of a class, inherited fields first (the paper's
    /// *fields(C)*).
    pub fn fields(&self, name: &ClassName) -> Result<Vec<(ClassName, FieldName)>, TableError> {
        let mut chain = self.ancestry(name)?;
        chain.reverse(); // Object … name
        let mut fields = Vec::new();
        for class in chain {
            if let Some(decl) = self.classes.get(&class) {
                fields.extend(decl.fields.iter().cloned());
            }
        }
        Ok(fields)
    }

    /// The index of a field in the canonical field order of `class`.
    pub fn field_index(&self, class: &ClassName, field: &FieldName) -> Result<usize, TableError> {
        self.fields(class)?
            .iter()
            .position(|(_, f)| f == field)
            .ok_or_else(|| TableError::UnknownField(class.clone(), field.clone()))
    }

    /// The method body *mbody(m, C)*: the defining class, parameters and
    /// body of the most-derived definition of `m` visible from `C`.
    pub fn mbody(
        &self,
        method: &MethodName,
        class: &ClassName,
    ) -> Result<(ClassName, MethodDecl), TableError> {
        for ancestor in self.ancestry(class)? {
            if let Some(decl) = self.classes.get(&ancestor) {
                if let Some(m) = decl.methods.iter().find(|m| &m.name == method) {
                    return Ok((ancestor, m.clone()));
                }
            }
        }
        Err(TableError::UnknownMethod(class.clone(), method.clone()))
    }

    /// The method type *mtype(m, C)*: parameter types and return type.
    pub fn mtype(
        &self,
        method: &MethodName,
        class: &ClassName,
    ) -> Result<(Vec<ClassName>, ClassName), TableError> {
        let (_, decl) = self.mbody(method, class)?;
        Ok((
            decl.params.iter().map(|(t, _)| t.clone()).collect(),
            decl.return_type,
        ))
    }
}

/// A whole Featherweight Java program: a class table plus the `main`
/// expression evaluated in the empty environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The class table.
    pub table: ClassTable,
    /// The expression to evaluate.
    pub main: Expr,
}

/// A builder that assigns fresh labels to program points, for constructing
/// FJ programs programmatically.
#[derive(Debug, Default)]
pub struct ExprBuilder {
    labels: LabelSupply,
}

impl ExprBuilder {
    /// Creates a fresh builder.
    pub fn new() -> Self {
        ExprBuilder {
            labels: LabelSupply::new(),
        }
    }

    /// A field access with a fresh label.
    pub fn field(&mut self, object: Expr, field: &str) -> Expr {
        Expr::FieldAccess {
            label: self.labels.fresh(),
            object: Arc::new(object),
            field: Name::from(field),
        }
    }

    /// A method call with a fresh label.
    pub fn call(&mut self, object: Expr, method: &str, args: Vec<Expr>) -> Expr {
        Expr::MethodCall {
            label: self.labels.fresh(),
            object: Arc::new(object),
            method: Name::from(method),
            args,
        }
    }

    /// An object construction with a fresh label.
    pub fn new_object(&mut self, class: &str, args: Vec<Expr>) -> Expr {
        Expr::New {
            label: self.labels.fresh(),
            class: Name::from(class),
            args,
        }
    }

    /// A cast with a fresh label.
    pub fn cast(&mut self, class: &str, object: Expr) -> Expr {
        Expr::Cast {
            label: self.labels.fresh(),
            class: Name::from(class),
            object: Arc::new(object),
        }
    }
}

/// A convenience builder for method declarations.
pub fn method(return_type: &str, name: &str, params: &[(&str, &str)], body: Expr) -> MethodDecl {
    MethodDecl {
        return_type: Name::from(return_type),
        name: Name::from(name),
        params: params
            .iter()
            .map(|(t, n)| (Name::from(*t), Name::from(*n)))
            .collect(),
        body,
    }
}

/// A convenience builder for class declarations.
pub fn class(
    name: &str,
    superclass: &str,
    fields: &[(&str, &str)],
    methods: Vec<MethodDecl>,
) -> ClassDecl {
    ClassDecl {
        name: Name::from(name),
        superclass: Name::from(superclass),
        fields: fields
            .iter()
            .map(|(t, f)| (Name::from(*t), Name::from(*f)))
            .collect(),
        methods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_table() -> ClassTable {
        let mut b = ExprBuilder::new();
        let get_fst = method("Object", "fst", &[], b.field(Expr::var("this"), "first"));
        let get_snd = method("Object", "snd", &[], b.field(Expr::var("this"), "second"));
        ClassTable::new(vec![
            class("A", "Object", &[], vec![]),
            class("B", "A", &[("Object", "extra")], vec![]),
            class(
                "Pair",
                "Object",
                &[("Object", "first"), ("Object", "second")],
                vec![get_fst, get_snd],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn ancestry_and_subtyping() {
        let t = pair_table();
        assert_eq!(
            t.ancestry(&Name::from("B")).unwrap(),
            vec![Name::from("B"), Name::from("A"), object_class()]
        );
        assert!(t.is_subtype(&Name::from("B"), &Name::from("A")).unwrap());
        assert!(t.is_subtype(&Name::from("B"), &object_class()).unwrap());
        assert!(!t.is_subtype(&Name::from("A"), &Name::from("B")).unwrap());
        assert!(t.is_subtype(&Name::from("A"), &Name::from("A")).unwrap());
    }

    #[test]
    fn fields_include_inherited_ones_first() {
        let t = pair_table();
        assert_eq!(
            t.fields(&Name::from("B")).unwrap(),
            vec![(Name::from("Object"), Name::from("extra"))]
        );
        assert_eq!(t.fields(&object_class()).unwrap(), vec![]);
        assert_eq!(
            t.field_index(&Name::from("Pair"), &Name::from("second"))
                .unwrap(),
            1
        );
    }

    #[test]
    fn method_lookup_walks_the_hierarchy() {
        let t = pair_table();
        let (owner, decl) = t.mbody(&Name::from("fst"), &Name::from("Pair")).unwrap();
        assert_eq!(owner, Name::from("Pair"));
        assert_eq!(decl.return_type, Name::from("Object"));
        assert!(matches!(
            t.mbody(&Name::from("nope"), &Name::from("Pair")),
            Err(TableError::UnknownMethod(_, _))
        ));
        let (params, ret) = t.mtype(&Name::from("snd"), &Name::from("Pair")).unwrap();
        assert!(params.is_empty());
        assert_eq!(ret, Name::from("Object"));
    }

    #[test]
    fn errors_are_reported_for_bad_tables() {
        assert!(matches!(
            ClassTable::new(vec![
                class("A", "Object", &[], vec![]),
                class("A", "Object", &[], vec![]),
            ]),
            Err(TableError::DuplicateClass(_))
        ));
        let cyclic = ClassTable::new(vec![
            class("A", "B", &[], vec![]),
            class("B", "A", &[], vec![]),
        ])
        .unwrap();
        assert!(matches!(
            cyclic.ancestry(&Name::from("A")),
            Err(TableError::CyclicHierarchy(_))
        ));
        let t = pair_table();
        assert!(matches!(
            t.ancestry(&Name::from("Missing")),
            Err(TableError::UnknownClass(_))
        ));
        assert!(matches!(
            t.field_index(&Name::from("A"), &Name::from("x")),
            Err(TableError::UnknownField(_, _))
        ));
    }

    #[test]
    fn expressions_render_and_measure() {
        let mut b = ExprBuilder::new();
        let pair = b.new_object("Pair", vec![Expr::var("x"), Expr::var("y")]);
        let e = b.call(pair, "fst", vec![]);
        assert_eq!(e.to_string(), "new Pair(x, y).fst()");
        assert_eq!(e.free_vars().len(), 2);
        assert_eq!(e.labels().len(), 2);
        assert!(e.size() >= 4);
        let cast = b.cast("A", Expr::var("z"));
        assert_eq!(cast.to_string(), "((A) z)");
    }
}
