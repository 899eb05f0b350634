//! Syntax and class tables for Featherweight Java (Igarashi, Pierce &
//! Wadler), the third calculus the paper's implementation covers.
//!
//! Featherweight Java strips Java down to classes with fields, methods,
//! object construction, field access, method invocation and casts — just
//! enough to exercise an object-oriented semantics.  As with the other
//! substrates, every expression that constitutes a program point (method
//! calls, constructions, field accesses, casts) carries a [`Label`] so the
//! language-independent context machinery applies unchanged.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mai_core::hash::FxHashMap;
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
///
/// `Hash` is hand-written and does not walk the expression (see its impl);
/// `Eq` and `Ord` are derived.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
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
        /// The argument expressions, shared: a clone of the call, and a
        /// machine frame waiting on its arguments, hold the same slice.
        args: Arc<[Expr]>,
    },
    /// An object construction `new C(ē)`.
    New {
        /// The program-point label.
        label: Label,
        /// The constructed class.
        class: ClassName,
        /// The constructor arguments, one per field of `C` (inherited
        /// fields first), shared like a call's.
        args: Arc<[Expr]>,
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

/// Hashes the constructor plus its label, or the variable of a `Var`.
/// Machine states embed the expression they evaluate and the engines hash
/// states on every intern, so a derived `Hash` would walk the remaining
/// program each time.  Labels are unique within a program, so this is a
/// cheap digest consistent with the structural `Eq` (equal expressions
/// have equal labels).  Distinct expressions of different programs may
/// collide; hash users resolve that with `Eq`, as they must anyway.  CPS's
/// `CExp` and the λ-calculus's `Term` hash the same way.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Var(v) => v.hash(state),
            Expr::FieldAccess { label, .. }
            | Expr::MethodCall { label, .. }
            | Expr::New { label, .. }
            | Expr::Cast { label, .. } => label.hash(state),
        }
    }
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
            _ => self.children().flat_map(Expr::free_vars).collect(),
        }
    }

    /// All labels occurring in this expression.
    pub fn labels(&self) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut BTreeSet<Label>) {
        out.extend(self.label());
        for child in self.children() {
            child.collect_labels(out);
        }
    }

    /// The label of a compound expression; `None` for a variable.
    fn label(&self) -> Option<Label> {
        match self {
            Expr::Var(_) => None,
            Expr::FieldAccess { label, .. }
            | Expr::MethodCall { label, .. }
            | Expr::New { label, .. }
            | Expr::Cast { label, .. } => Some(*label),
        }
    }

    /// The immediate subexpressions, receiver first.
    fn children(&self) -> impl Iterator<Item = &Expr> {
        let (object, args): (Option<&Expr>, &[Expr]) = match self {
            Expr::Var(_) => (None, &[]),
            Expr::FieldAccess { object, .. } | Expr::Cast { object, .. } => (Some(object), &[]),
            Expr::MethodCall { object, args, .. } => (Some(object), args),
            Expr::New { args, .. } => (None, args),
        };
        object.into_iter().chain(args)
    }

    /// The number of AST nodes.
    pub fn size(&self) -> usize {
        1 + self.children().map(Expr::size).sum::<usize>()
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

/// The free variables of every compound subexpression of one body of
/// code — a program's `main` or a method body — keyed by label.
///
/// FJ expressions bind no variables, so a variable is its own free
/// variable and every other expression's are its children's.  The table is
/// built once per body, bottom-up and without recursion, so a machine step
/// reads a state's roots from it instead of walking the rest of the
/// program (the machine's `Touches for PState`).  Each machine state that
/// evaluates an expression carries a handle to its body's table.
///
/// A handle is not part of the value it rides in: any two tables compare
/// equal and hash to nothing, so states order and hash by their
/// expressions alone.  An expression the table does not know — a label it
/// never saw, or one that labels two subexpressions with different free
/// variables — is walked, as [`Expr::free_vars`] walks it.
#[derive(Clone, Default)]
pub struct FreeVarTable(Arc<FxHashMap<Label, Option<BTreeSet<VarName>>>>);

impl FreeVarTable {
    /// The table of `body` and all of its subexpressions.
    pub fn of(body: &Expr) -> Self {
        let mut table: FxHashMap<Label, Option<BTreeSet<VarName>>> = FxHashMap::default();
        // Post-order on an explicit stack: a node is entered once with its
        // children still to do and finished once they are all in the table.
        let mut stack: Vec<(&Expr, bool)> = vec![(body, false)];
        while let Some((expr, finished)) = stack.pop() {
            let Some(label) = expr.label() else { continue };
            if !finished {
                stack.push((expr, true));
                stack.extend(expr.children().map(|child| (child, false)));
                continue;
            }
            let mut free = BTreeSet::new();
            for child in expr.children() {
                match child.label().map(|l| table.get(&l)) {
                    None => free.extend(child.free_vars()),
                    Some(Some(Some(set))) => free.extend(set.iter().cloned()),
                    Some(_) => free.extend(child.free_vars()),
                }
            }
            match table.get_mut(&label) {
                None => {
                    table.insert(label, Some(free));
                }
                Some(known) => {
                    if known.as_ref() != Some(&free) {
                        *known = None;
                    }
                }
            }
        }
        FreeVarTable(Arc::new(table))
    }

    /// The free variables of `expr`, from the table where it knows them.
    pub fn free_vars<'a>(&'a self, expr: &Expr) -> Cow<'a, BTreeSet<VarName>> {
        match expr.label().and_then(|label| self.0.get(&label)) {
            Some(Some(free)) => Cow::Borrowed(free),
            _ => Cow::Owned(expr.free_vars()),
        }
    }
}

impl PartialEq for FreeVarTable {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FreeVarTable {}

impl PartialOrd for FreeVarTable {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FreeVarTable {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl Hash for FreeVarTable {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl fmt::Debug for FreeVarTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FreeVarTable({} labels)", self.0.len())
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
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ClassTable {
    /// Shared, so that cloning a table into a transition's continuation is
    /// a reference-count bump.
    classes: Arc<BTreeMap<ClassName, ClassDecl>>,
    /// Every method body as the machine evaluates it, by defining class
    /// and method name: behind an `Arc`, with its [`FreeVarTable`], both
    /// built once with the table.
    bodies: Arc<BTreeMap<(ClassName, MethodName), MethodBody>>,
}

/// A method body as the machine evaluates it: the expression behind an
/// `Arc` and its [`FreeVarTable`].
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct MethodBody {
    /// The body expression.
    pub(crate) expr: Arc<Expr>,
    /// The free variables of its subexpressions.
    pub(crate) free: FreeVarTable,
}

impl fmt::Debug for ClassTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassTable")
            .field("classes", &self.classes)
            .finish_non_exhaustive()
    }
}

impl ClassTable {
    /// Builds a class table, rejecting duplicate declarations and
    /// declarations of `Object`.
    pub fn new(decls: Vec<ClassDecl>) -> Result<Self, TableError> {
        let mut classes = BTreeMap::new();
        let mut bodies = BTreeMap::new();
        for decl in decls {
            if decl.name == object_class() {
                return Err(TableError::DuplicateClass(decl.name));
            }
            // The first declaration of a name is the one `method` finds.
            for m in &decl.methods {
                let key = (decl.name.clone(), m.name.clone());
                bodies.entry(key).or_insert_with(|| MethodBody {
                    free: FreeVarTable::of(&m.body),
                    expr: Arc::new(m.body.clone()),
                });
            }
            if classes.insert(decl.name.clone(), decl.clone()).is_some() {
                return Err(TableError::DuplicateClass(decl.name));
            }
        }
        Ok(ClassTable {
            classes: Arc::new(classes),
            bodies: Arc::new(bodies),
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
        let (owner, decl, _) = self.method(method, class)?;
        Ok((owner.clone(), decl.clone()))
    }

    /// *mbody(m, C)* borrowed from the table: the defining class, the
    /// declaration, and the body as the machine evaluates it.
    pub(crate) fn method(
        &self,
        method: &MethodName,
        class: &ClassName,
    ) -> Result<(&ClassName, &MethodDecl, &MethodBody), TableError> {
        for ancestor in self.ancestry(class)? {
            if let Some((owner, decl)) = self.classes.get_key_value(&ancestor) {
                if let Some(m) = decl.methods.iter().find(|m| &m.name == method) {
                    let body = &self.bodies[&(owner.clone(), method.clone())];
                    return Ok((owner, m, body));
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
            args: args.into(),
        }
    }

    /// An object construction with a fresh label.
    pub fn new_object(&mut self, class: &str, args: Vec<Expr>) -> Expr {
        Expr::New {
            label: self.labels.fresh(),
            class: Name::from(class),
            args: args.into(),
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
pub(crate) mod tests {
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

    /// Every subexpression of `expr`, itself first.
    pub(crate) fn subexpressions<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
        out.push(expr);
        for child in expr.children() {
            subexpressions(child, out);
        }
    }

    /// Every body of a program: `main`, then each method body.
    pub(crate) fn bodies(program: &Program) -> Vec<Expr> {
        let methods = program
            .table
            .classes()
            .flat_map(|c| c.methods.iter().map(|m| m.body.clone()));
        std::iter::once(program.main.clone())
            .chain(methods)
            .collect()
    }

    #[test]
    fn free_variable_tables_equal_the_walk_on_every_subexpression() {
        let mut programs: Vec<Program> = crate::programs::standard_corpus()
            .into_iter()
            .map(|(_, program)| program)
            .collect();
        programs.push(crate::programs::nested_cells(50));
        for program in &programs {
            for body in bodies(program) {
                let table = FreeVarTable::of(&body);
                let mut exprs = Vec::new();
                subexpressions(&body, &mut exprs);
                for expr in exprs {
                    assert_eq!(*table.free_vars(expr), expr.free_vars(), "{expr}");
                    if expr.label().is_some() {
                        assert!(matches!(table.free_vars(expr), Cow::Borrowed(_)), "{expr}");
                    }
                }
            }
            // The class table holds each method body with its table.
            for class in program.table.classes() {
                for m in &class.methods {
                    let (_, decl, body) = program.table.method(&m.name, &class.name).unwrap();
                    assert_eq!(decl, m);
                    assert_eq!(*body.expr, m.body);
                    assert_eq!(*body.free.free_vars(&m.body), m.body.free_vars());
                }
            }
        }
    }

    #[test]
    fn a_label_shared_by_different_subexpressions_is_walked() {
        let label = Label::new(7);
        let call = |object: &str, arg: &str| Expr::MethodCall {
            label,
            object: Arc::new(Expr::var(object)),
            method: Name::from("m"),
            args: vec![Expr::var(arg)].into(),
        };
        let (first, second) = (call("a", "b"), call("c", "d"));
        let mut b = ExprBuilder::new();
        let body = b.new_object("P", vec![first.clone(), second.clone()]);
        let table = FreeVarTable::of(&body);
        for expr in [&first, &second, &body] {
            assert_eq!(*table.free_vars(expr), expr.free_vars(), "{expr}");
        }
        assert!(matches!(table.free_vars(&first), Cow::Owned(_)));
        // An empty table walks every expression.
        assert_eq!(*FreeVarTable::default().free_vars(&body), body.free_vars());
    }

    /// Counts the writes a hash makes, whatever their width.
    #[derive(Default)]
    struct CountingHasher(usize);

    impl Hasher for CountingHasher {
        fn finish(&self) -> u64 {
            self.0 as u64
        }

        fn write(&mut self, _: &[u8]) {
            self.0 += 1;
        }
    }

    #[test]
    fn hashing_an_expression_does_not_walk_it() {
        // The deep build's drop recurses once per level; give it room.
        let writes = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                [10, 1000].map(|n| {
                    let mut hasher = CountingHasher::default();
                    crate::programs::nested_cells(n).main.hash(&mut hasher);
                    hasher.0
                })
            })
            .expect("spawn")
            .join()
            .expect("deep expressions hash");
        assert_eq!(writes[0], writes[1]);
    }

    #[test]
    fn equal_expressions_of_separate_builds_hash_alike() {
        let corpus = crate::programs::standard_corpus();
        for ((name, first), (_, second)) in corpus.iter().zip(crate::programs::standard_corpus()) {
            let methods = |p: &Program| -> Vec<Expr> {
                p.table
                    .classes()
                    .flat_map(|c| c.methods.iter().map(|m| m.body.clone()))
                    .collect()
            };
            let exprs = [vec![first.main.clone()], methods(first)].concat();
            let again = [vec![second.main.clone()], methods(&second)].concat();
            for (a, b) in exprs.iter().zip(&again) {
                assert_eq!(a, b, "{name}");
                assert_eq!(
                    mai_core::hash::fx_hash_of(a),
                    mai_core::hash::fx_hash_of(b),
                    "{name}: {a}"
                );
            }
        }
    }
}
