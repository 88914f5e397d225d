//! Abstract syntax of mediator programs, queries, and invariants.

use crate::directives::Declarations;
use hermes_common::{AttrPath, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A term: a variable or a ground constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A logic variable (`X`, `Ans`, `$tuple`).
    Var(Arc<str>),
    /// A ground value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for variables.
    pub fn var(name: impl Into<Arc<str>>) -> Self {
        Term::Var(name.into())
    }

    /// Convenience constructor for constants.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&Arc<str>> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant value, if ground.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            Term::Var(_) => None,
        }
    }

    /// True for [`Term::Var`].
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{}", c.to_literal()),
        }
    }
}

/// A term with an optional attribute-selection suffix, used as a comparison
/// operand: `Ans.1`, `Tuple.loc`, `P.name`, a bare variable, or a constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathTerm {
    /// The base variable or constant.
    pub base: Term,
    /// Attribute selectors applied to the base (empty for bare terms).
    pub path: AttrPath,
}

impl PathTerm {
    /// A bare term with no path.
    pub fn bare(base: Term) -> Self {
        PathTerm {
            base,
            path: AttrPath::empty(),
        }
    }

    /// A variable with a dotted path suffix.
    pub fn with_path(base: Term, path: AttrPath) -> Self {
        PathTerm { base, path }
    }

    /// The base variable name, if any.
    pub fn var_name(&self) -> Option<&Arc<str>> {
        self.base.as_var()
    }
}

impl fmt::Display for PathTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.base, self.path)
    }
}

/// A comparison operator. `=` in rule text and `==` are the same operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relop {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl Relop {
    /// Evaluates the operator on two ground values using the total order of
    /// [`Value`].
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        let ord = lhs.cmp(rhs);
        match self {
            Relop::Eq => ord.is_eq(),
            Relop::Ne => ord.is_ne(),
            Relop::Lt => ord.is_lt(),
            Relop::Le => ord.is_le(),
            Relop::Gt => ord.is_gt(),
            Relop::Ge => ord.is_ge(),
        }
    }

    /// The operator with its operands swapped (`<` becomes `>`).
    pub fn flipped(self) -> Relop {
        match self {
            Relop::Eq => Relop::Eq,
            Relop::Ne => Relop::Ne,
            Relop::Lt => Relop::Gt,
            Relop::Le => Relop::Ge,
            Relop::Gt => Relop::Lt,
            Relop::Ge => Relop::Le,
        }
    }

    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            Relop::Eq => "=",
            Relop::Ne => "!=",
            Relop::Lt => "<",
            Relop::Le => "<=",
            Relop::Gt => ">",
            Relop::Ge => ">=",
        }
    }
}

impl fmt::Display for Relop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A comparison condition `relop(V1, V2)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Condition {
    /// The operator.
    pub op: Relop,
    /// Left operand.
    pub lhs: PathTerm,
    /// Right operand.
    pub rhs: PathTerm,
}

impl Condition {
    /// Builds a condition.
    pub fn new(op: Relop, lhs: PathTerm, rhs: PathTerm) -> Self {
        Condition { op, lhs, rhs }
    }

    /// Variables mentioned by either operand.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        let mut s = BTreeSet::new();
        if let Some(v) = self.lhs.var_name() {
            s.insert(v.clone());
        }
        if let Some(v) = self.rhs.var_name() {
            s.insert(v.clone());
        }
        s
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}, {})", self.op, self.lhs, self.rhs)
    }
}

/// A (possibly non-ground) domain call `domain:function(t1, …, tN)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CallTemplate {
    /// The external domain name.
    pub domain: Arc<str>,
    /// The function exported by the domain.
    pub function: Arc<str>,
    /// Argument terms (variables or constants).
    pub args: Vec<Term>,
}

impl CallTemplate {
    /// Builds a template.
    pub fn new(
        domain: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        args: Vec<Term>,
    ) -> Self {
        CallTemplate {
            domain: domain.into(),
            function: function.into(),
            args,
        }
    }

    /// Variables appearing among the arguments.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        self.args
            .iter()
            .filter_map(|t| t.as_var().cloned())
            .collect()
    }
}

impl fmt::Display for CallTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}(", self.domain, self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// An ordinary predicate atom `p(t1, …, tn)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PredAtom {
    /// Predicate name.
    pub name: Arc<str>,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl PredAtom {
    /// Builds a predicate atom.
    pub fn new(name: impl Into<Arc<str>>, args: Vec<Term>) -> Self {
        PredAtom {
            name: name.into(),
            args,
        }
    }

    /// Variables appearing among the arguments.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        self.args
            .iter()
            .filter_map(|t| t.as_var().cloned())
            .collect()
    }

    /// `name/arity`, the predicate's identity.
    pub fn key(&self) -> (Arc<str>, usize) {
        (self.name.clone(), self.args.len())
    }
}

impl fmt::Display for PredAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// One conjunct of a rule body or query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BodyAtom {
    /// An IDB predicate atom.
    Pred(PredAtom),
    /// A domain-call membership atom `in(X, d:f(args))`. `target` is usually
    /// a variable (instantiated to each answer); a ground target turns the
    /// atom into a membership test that can prune the rest of the query.
    In {
        /// The answer variable (or ground membership probe).
        target: Term,
        /// The call.
        call: CallTemplate,
    },
    /// A comparison condition.
    Cond(Condition),
}

impl BodyAtom {
    /// Variables this atom can *bind* when evaluated left-to-right: predicate
    /// arguments and the `in` target. Conditions never bind (the rewriter
    /// turns binding equalities into substitutions beforehand).
    pub fn binds(&self) -> BTreeSet<Arc<str>> {
        match self {
            BodyAtom::Pred(p) => p.variables(),
            BodyAtom::In { target, .. } => target.as_var().cloned().into_iter().collect(),
            BodyAtom::Cond(_) => BTreeSet::new(),
        }
    }

    /// Variables this atom *requires* to be bound before it can run:
    /// domain-call arguments (calls must be ground, §3) and condition
    /// operands.
    pub fn requires(&self) -> BTreeSet<Arc<str>> {
        match self {
            BodyAtom::Pred(_) => BTreeSet::new(),
            BodyAtom::In { call, .. } => call.variables(),
            BodyAtom::Cond(c) => c.variables(),
        }
    }

    /// True if the atom can be evaluated once `bound` variables are ground.
    ///
    /// * Predicate atoms can always run (their defining rules produce
    ///   bindings).
    /// * `in` atoms need every call argument ground (§3: calls are ground).
    /// * Equality conditions can run when every path-bearing operand's base
    ///   is ground and **at least one side** is fully ground; they then act
    ///   as assignments to the bare variables of the other side.
    /// * Other comparisons need both operands fully ground.
    pub fn can_run(&self, bound: &BTreeSet<Arc<str>>) -> bool {
        let ground = |pt: &PathTerm| match pt.base.as_var() {
            Some(v) => bound.contains(v),
            None => true,
        };
        match self {
            BodyAtom::Pred(_) => true,
            BodyAtom::In { call, .. } => call
                .args
                .iter()
                .all(|t| t.as_var().is_none_or(|v| bound.contains(v))),
            BodyAtom::Cond(c) if c.op == Relop::Eq => {
                let lhs_ok = ground(&c.lhs);
                let rhs_ok = ground(&c.rhs);
                // A side with a path needs its base ground to evaluate at
                // all; assignment targets must be bare variables.
                let lhs_assignable = c.lhs.path.is_empty() && c.lhs.base.is_var();
                let rhs_assignable = c.rhs.path.is_empty() && c.rhs.base.is_var();
                (lhs_ok && (rhs_ok || rhs_assignable)) || (rhs_ok && lhs_assignable)
            }
            BodyAtom::Cond(c) => ground(&c.lhs) && ground(&c.rhs),
        }
    }

    /// The variables this atom newly binds when run with `bound` already
    /// ground. For equality conditions this is the bare variable of an
    /// unbound side (assignment semantics); for `in` atoms the target; for
    /// predicate atoms every argument variable.
    pub fn new_bindings(&self, bound: &BTreeSet<Arc<str>>) -> BTreeSet<Arc<str>> {
        let mut out = BTreeSet::new();
        self.for_each_binding(|v| {
            if !bound.contains(v) {
                out.insert(v.clone());
            }
        });
        out
    }

    /// Calls `f` with each variable that running the atom would bind,
    /// whether or not it is bound already; [`BodyAtom::new_bindings`]
    /// keeps the unbound ones.
    pub fn for_each_binding<'a>(&'a self, mut f: impl FnMut(&'a Arc<str>)) {
        match self {
            BodyAtom::Pred(p) => p.args.iter().filter_map(Term::as_var).for_each(f),
            BodyAtom::In { target, .. } => target.as_var().into_iter().for_each(f),
            BodyAtom::Cond(c) if c.op == Relop::Eq => {
                for side in [&c.lhs, &c.rhs] {
                    if let Some(v) = side.base.as_var().filter(|_| side.path.is_empty()) {
                        f(v);
                    }
                }
            }
            BodyAtom::Cond(_) => {}
        }
    }

    /// Calls `f` on each term, in one fixed order: a predicate's
    /// arguments; a call's target, then its arguments; a condition's left
    /// base, then its right. It is the first-occurrence order of
    /// [`Query::answer_variables`].
    pub fn for_each_term<'a>(&'a self, mut f: impl FnMut(&'a Term)) {
        match self {
            BodyAtom::Pred(p) => p.args.iter().for_each(f),
            BodyAtom::In { target, call } => {
                f(target);
                call.args.iter().for_each(f);
            }
            BodyAtom::Cond(c) => {
                f(&c.lhs.base);
                f(&c.rhs.base);
            }
        }
    }

    /// The atom with every term replaced by `f` of it, called in
    /// [`BodyAtom::for_each_term`] order; names and paths are kept.
    pub fn map_terms(&self, mut f: impl FnMut(&Term) -> Term) -> BodyAtom {
        match self {
            BodyAtom::Pred(p) => BodyAtom::Pred(PredAtom::new(
                p.name.clone(),
                p.args.iter().map(f).collect(),
            )),
            BodyAtom::In { target, call } => BodyAtom::In {
                target: f(target),
                call: CallTemplate::new(
                    call.domain.clone(),
                    call.function.clone(),
                    call.args.iter().map(f).collect(),
                ),
            },
            BodyAtom::Cond(c) => {
                let lhs = PathTerm::with_path(f(&c.lhs.base), c.lhs.path.clone());
                let rhs = PathTerm::with_path(f(&c.rhs.base), c.rhs.path.clone());
                BodyAtom::Cond(Condition::new(c.op, lhs, rhs))
            }
        }
    }

    /// All variables mentioned anywhere in the atom.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        let mut s = BTreeSet::new();
        self.for_each_term(|t| {
            if let Some(v) = t.as_var() {
                s.insert(v.clone());
            }
        });
        s
    }
}

impl fmt::Display for BodyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyAtom::Pred(p) => write!(f, "{p}"),
            BodyAtom::In { target, call } => write!(f, "in({target}, {call})"),
            BodyAtom::Cond(c) => write!(f, "{c}"),
        }
    }
}

/// A mediator rule `head :- body.`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: PredAtom,
    /// The body conjunction, in written order.
    pub body: Vec<BodyAtom>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: PredAtom, body: Vec<BodyAtom>) -> Self {
        Rule { head, body }
    }

    /// All variables mentioned in the rule.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        let mut s = self.head.variables();
        for a in &self.body {
            s.extend(a.variables());
        }
        s
    }

    /// Rewrites every variable occurrence (head and body, including
    /// condition bases and call arguments) through `f`, leaving constants
    /// and attribute paths untouched. With a bijective `f` this is
    /// alpha-renaming — the transformation subplan fingerprints must be
    /// invariant under.
    pub fn map_vars(&self, mut f: impl FnMut(&Arc<str>) -> Arc<str>) -> Rule {
        let mut term = |t: &Term| match t {
            Term::Var(v) => Term::Var(f(v)),
            Term::Const(_) => t.clone(),
        };
        let head = PredAtom::new(
            self.head.name.clone(),
            self.head.args.iter().map(&mut term).collect(),
        );
        let body = self.body.iter().map(|atom| atom.map_terms(&mut term));
        Rule::new(head, body.collect())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

/// A mediator program: an ordered list of rules and what its `%!` lines
/// declare.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
    /// The `%!` declarations; empty for a program built from rules.
    pub declarations: Declarations,
}

impl Program {
    /// Builds a program from rules, with no declarations.
    pub fn new(rules: Vec<Rule>) -> Self {
        Program {
            rules,
            declarations: Declarations::default(),
        }
    }

    /// Rules whose head matches `name/arity`.
    pub fn rules_for(&self, name: &str, arity: usize) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| r.head.name.as_ref() == name && r.head.args.len() == arity)
            .collect()
    }

    /// The set of IDB predicate identities defined by the program.
    pub fn defined_predicates(&self) -> BTreeSet<(Arc<str>, usize)> {
        self.rules.iter().map(|r| r.head.key()).collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// The definitions of one predicate identity, as a [`RuleIndex`] files
/// them.
#[derive(Clone, Debug)]
pub struct PredRules {
    name: Arc<str>,
    arity: usize,
    rules: Vec<usize>,
    facts: usize,
    fact_rows: Option<Arc<Vec<Vec<Value>>>>,
}

impl PredRules {
    /// The predicate's name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The predicate's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Positions in [`Program::rules`] of the rules whose head is this
    /// predicate, in source order.
    pub fn rule_positions(&self) -> &[usize] {
        &self.rules
    }

    /// True when at least one definition has a body (an access-path rule).
    pub fn has_path_rules(&self) -> bool {
        self.facts < self.rules.len()
    }

    /// True when the predicate is defined by facts *and* by rules.
    pub fn is_mixed(&self) -> bool {
        self.facts > 0 && self.has_path_rules()
    }

    /// The rows of a fact-defined predicate (every definition a ground
    /// fact), in source order. `None` for a rule-defined or mixed
    /// predicate, and for one with a non-ground fact, which
    /// [`validate_program`](crate::validate_program) rejects.
    pub fn fact_rows(&self) -> Option<&Arc<Vec<Vec<Value>>>> {
        self.fact_rows.as_ref()
    }
}

/// [`Program::rules_for`] answered from a table: built in one pass over a
/// program, then every lookup is a binary search instead of a scan that
/// collects a `Vec`. The index holds positions, not references, so it can
/// be stored beside the program it was built from; it describes that
/// program only.
#[derive(Clone, Debug, Default)]
pub struct RuleIndex {
    /// Sorted by `(name, arity)`.
    preds: Vec<PredRules>,
}

impl RuleIndex {
    /// Indexes `program`.
    pub fn new(program: &Program) -> Self {
        let head = |pos: usize| &program.rules[pos].head;
        // Stable, so the rules of one predicate stay in source order.
        let mut by_pred: Vec<usize> = (0..program.rules.len()).collect();
        by_pred.sort_by_key(|&pos| (head(pos).name.as_ref(), head(pos).args.len()));
        let mut preds: Vec<PredRules> = Vec::new();
        for pos in by_pred {
            let (name, arity) = (&head(pos).name, head(pos).args.len());
            if !matches!(preds.last(), Some(p) if p.name == *name && p.arity == arity) {
                preds.push(PredRules {
                    name: name.clone(),
                    arity,
                    rules: Vec::new(),
                    facts: 0,
                    fact_rows: None,
                });
            }
            let entry = preds.last_mut().expect("pushed above");
            entry.rules.push(pos);
            if program.rules[pos].body.is_empty() {
                entry.facts += 1;
            }
        }
        for entry in preds.iter_mut().filter(|p| !p.has_path_rules()) {
            let rows: Option<Vec<Vec<Value>>> = entry
                .rules
                .iter()
                .map(|&pos| {
                    head(pos)
                        .args
                        .iter()
                        .map(|t| t.as_const().cloned())
                        .collect()
                })
                .collect();
            entry.fact_rows = rows.map(Arc::new);
        }
        RuleIndex { preds }
    }

    /// The definitions of `name/arity`; `None` when no rule defines it.
    pub fn get(&self, name: &str, arity: usize) -> Option<&PredRules> {
        self.preds
            .binary_search_by(|p| (p.name.as_ref(), p.arity).cmp(&(name, arity)))
            .ok()
            .map(|at| &self.preds[at])
    }

    /// Every defined predicate, ordered by `(name, arity)` like
    /// [`Program::defined_predicates`].
    pub fn iter(&self) -> impl Iterator<Item = &PredRules> {
        self.preds.iter()
    }
}

/// A query: a conjunction of goals, `?- g1 & … & gk.`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// The goals, in written order.
    pub goals: Vec<BodyAtom>,
}

impl Query {
    /// Builds a query.
    pub fn new(goals: Vec<BodyAtom>) -> Self {
        Query { goals }
    }

    /// The *answer variables* of the query: every variable mentioned in any
    /// goal, in first-occurrence order.
    pub fn answer_variables(&self) -> Vec<Arc<str>> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for g in &self.goals {
            g.for_each_term(|t| {
                if let Some(v) = t.as_var().filter(|v| seen.insert(*v)) {
                    out.push(v.clone());
                }
            });
        }
        out
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- ")?;
        for (i, g) in self.goals.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, ".")
    }
}

/// The set relationship an invariant asserts between two domain calls (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvRel {
    /// Answer sets are identical.
    Equal,
    /// Answers of the left call are a **superset** of the right call's
    /// (`DC1 ⊇ DC2`): a cached right call gives a *partial* answer for the
    /// left call.
    Superset,
    /// Answers of the left call are a **subset** of the right call's
    /// (`DC1 ⊆ DC2`).
    Subset,
}

impl InvRel {
    /// The relation read right-to-left.
    pub fn flipped(self) -> InvRel {
        match self {
            InvRel::Equal => InvRel::Equal,
            InvRel::Superset => InvRel::Subset,
            InvRel::Subset => InvRel::Superset,
        }
    }

    /// True for [`InvRel::Superset`].
    pub fn is_superset(self) -> bool {
        matches!(self, InvRel::Superset)
    }

    /// Surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            InvRel::Equal => "=",
            InvRel::Superset => ">=",
            InvRel::Subset => "<=",
        }
    }
}

impl fmt::Display for InvRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An invariant `Condition ⇒ DomainCall1 R DomainCall2` (§4).
///
/// Invariants are *sound but not necessarily complete* rewrite rules: when
/// the condition holds under a substitution, the answer sets of the two
/// instantiated calls stand in relation `rel`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invariant {
    /// The guard conjunction (may be empty for unconditional invariants).
    pub conditions: Vec<Condition>,
    /// The left call.
    pub lhs: CallTemplate,
    /// The asserted relation.
    pub rel: InvRel,
    /// The right call.
    pub rhs: CallTemplate,
}

impl Invariant {
    /// Builds an invariant.
    pub fn new(
        conditions: Vec<Condition>,
        lhs: CallTemplate,
        rel: InvRel,
        rhs: CallTemplate,
    ) -> Self {
        Invariant {
            conditions,
            lhs,
            rel,
            rhs,
        }
    }

    /// Variables of the two calls.
    pub fn call_variables(&self) -> BTreeSet<Arc<str>> {
        let mut s = self.lhs.variables();
        s.extend(self.rhs.variables());
        s
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{c}")?;
        }
        if !self.conditions.is_empty() {
            write!(f, " ")?;
        }
        write!(f, "=> {} {} {}.", self.lhs, self.rel, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relop_eval_and_flip() {
        let a = Value::Int(3);
        let b = Value::Int(5);
        assert!(Relop::Lt.eval(&a, &b));
        assert!(!Relop::Ge.eval(&a, &b));
        assert!(Relop::Ne.eval(&a, &b));
        assert!(Relop::Lt.flipped().eval(&b, &a));
        assert_eq!(Relop::Eq.flipped(), Relop::Eq);
    }

    #[test]
    fn body_atom_binds_and_requires() {
        let atom = BodyAtom::In {
            target: Term::var("X"),
            call: CallTemplate::new("d", "f", vec![Term::var("A"), Term::constant(1)]),
        };
        assert_eq!(
            atom.binds().into_iter().collect::<Vec<_>>(),
            vec![Arc::from("X")]
        );
        assert_eq!(
            atom.requires().into_iter().collect::<Vec<_>>(),
            vec![Arc::from("A")]
        );
    }

    #[test]
    fn cond_never_binds() {
        let c = BodyAtom::Cond(Condition::new(
            Relop::Eq,
            PathTerm::bare(Term::var("X")),
            PathTerm::bare(Term::constant(1)),
        ));
        assert!(c.binds().is_empty());
        assert_eq!(c.requires().len(), 1);
    }

    #[test]
    fn display_round_trips_structure() {
        let rule = Rule::new(
            PredAtom::new("p", vec![Term::var("A"), Term::var("B")]),
            vec![
                BodyAtom::In {
                    target: Term::var("Ans"),
                    call: CallTemplate::new("d1", "p_ff", vec![]),
                },
                BodyAtom::Cond(Condition::new(
                    Relop::Eq,
                    PathTerm::with_path(Term::var("Ans"), AttrPath::parse("1")),
                    PathTerm::bare(Term::var("A")),
                )),
            ],
        );
        assert_eq!(
            rule.to_string(),
            "p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.1, A)."
        );
    }

    #[test]
    fn program_rules_for_filters_by_arity() {
        let p = Program::new(vec![
            Rule::new(PredAtom::new("p", vec![Term::var("A")]), vec![]),
            Rule::new(
                PredAtom::new("p", vec![Term::var("A"), Term::var("B")]),
                vec![],
            ),
        ]);
        assert_eq!(p.rules_for("p", 1).len(), 1);
        assert_eq!(p.rules_for("p", 2).len(), 1);
        assert_eq!(p.rules_for("q", 1).len(), 0);
        assert_eq!(p.defined_predicates().len(), 2);
    }

    #[test]
    fn rule_index_agrees_with_rules_for() {
        let fact =
            |name: &str, v: &str| Rule::new(PredAtom::new(name, vec![Term::constant(v)]), vec![]);
        let path = |name: &str, args: Vec<Term>| {
            Rule::new(
                PredAtom::new(name, args),
                vec![BodyAtom::In {
                    target: Term::var("A"),
                    call: CallTemplate::new("d", "f", vec![]),
                }],
            )
        };
        let p = Program::new(vec![
            fact("e", "a"),
            path("p", vec![Term::var("A")]),
            fact("e", "b"),
            path("p", vec![Term::var("A"), Term::var("A")]),
            fact("mix", "c"),
            path("mix", vec![Term::var("A")]),
            Rule::new(PredAtom::new("open", vec![Term::var("X")]), vec![]),
        ]);
        let index = RuleIndex::new(&p);
        // Same predicates, same order, same rules as the scans.
        let keys: Vec<(Arc<str>, usize)> = index
            .iter()
            .map(|d| (d.name().clone(), d.arity()))
            .collect();
        assert_eq!(keys, p.defined_predicates().into_iter().collect::<Vec<_>>());
        for defs in index.iter() {
            let indexed: Vec<&Rule> = defs.rule_positions().iter().map(|&i| &p.rules[i]).collect();
            assert_eq!(indexed, p.rules_for(defs.name(), defs.arity()));
            assert!(std::ptr::eq(
                index.get(defs.name(), defs.arity()).unwrap(),
                defs
            ));
        }
        assert!(index.get("q", 1).is_none());
        assert!(index.get("p", 3).is_none());

        let e = index.get("e", 1).unwrap();
        assert!(!e.has_path_rules() && !e.is_mixed());
        let rows = e.fact_rows().unwrap();
        assert_eq!(**rows, vec![vec![Value::str("a")], vec![Value::str("b")]]);
        let p1 = index.get("p", 1).unwrap();
        assert!(p1.has_path_rules() && !p1.is_mixed() && p1.fact_rows().is_none());
        let mix = index.get("mix", 1).unwrap();
        assert!(mix.is_mixed() && mix.fact_rows().is_none());
        // A fact with a variable has no rows (validation rejects it).
        assert!(index.get("open", 1).unwrap().fact_rows().is_none());
    }

    #[test]
    fn query_answer_variables_in_order() {
        let q = Query::new(vec![
            BodyAtom::Pred(PredAtom::new("m", vec![Term::var("C"), Term::var("A")])),
            BodyAtom::Pred(PredAtom::new("n", vec![Term::var("A"), Term::var("B")])),
        ]);
        let vars: Vec<String> = q
            .answer_variables()
            .into_iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(vars, vec!["C", "A", "B"]);
    }

    #[test]
    fn invariant_display() {
        let inv = Invariant::new(
            vec![Condition::new(
                Relop::Le,
                PathTerm::bare(Term::var("V1")),
                PathTerm::bare(Term::var("V2")),
            )],
            CallTemplate::new("r", "select_lt", vec![Term::var("T"), Term::var("V2")]),
            InvRel::Superset,
            CallTemplate::new("r", "select_lt", vec![Term::var("T"), Term::var("V1")]),
        );
        assert_eq!(
            inv.to_string(),
            "<=(V1, V2) => r:select_lt(T, V2) >= r:select_lt(T, V1)."
        );
        assert_eq!(inv.rel.flipped(), InvRel::Subset);
    }

    #[test]
    fn map_vars_renames_every_occurrence() {
        let rule = crate::parse_rule("p(A, B) :- in(B, d:f(A)) & >(B.size, A).").unwrap();
        let renamed = rule.map_vars(|v| Arc::from(format!("{v}_r").as_str()));
        assert_eq!(
            renamed.to_string(),
            "p(A_r, B_r) :- in(B_r, d:f(A_r)) & >(B_r.size, A_r)."
        );
        // Constants and paths are untouched; the identity map round-trips.
        assert_eq!(rule.map_vars(|v| v.clone()), rule);
    }
}
