//! The rule rewriter (§5): adornment-driven plan enumeration.
//!
//! Given a query and the mediator program, the rewriter produces every
//! executable flat plan (up to a configurable cap) by
//!
//! 1. **unfolding** IDB predicates through their rules — each non-fact rule
//!    of a predicate is an alternative *access path* to the same external
//!    relation (the paper's `p_ff` / `p_fb` / `p_bb` style, Example 5.1),
//!    so rule choice is a plan-branching decision, while fact-defined
//!    predicates contribute their rows;
//! 2. **reordering** generator atoms (domain calls, fact scans) in every
//!    order whose binding requirements are satisfied — a domain call can
//!    only run once all its arguments are ground (§3);
//! 3. **pushing conditions down** — every comparison is placed at the
//!    earliest point it can run, equality conditions acting as assignments
//!    when one side is still free;
//! 4. routing calls through CIM or directly, per the [`CimPolicy`].
//!
//! Recursive programs are rejected (the paper defers recursion to its
//! reference \[33\]); the verdict comes from the analyzer's dependency
//! graph ([`hermes_analysis::first_predicate_reaching_recursion`]).

use crate::plan::{Plan, PlanStep, Route};
pub use hermes_analysis::{fingerprint_body, fingerprint_rule, Fingerprint, SubplanKey};
use hermes_cim::{CimPolicy, RoutingDecision};
use hermes_common::{HermesError, PathStep, Result, Value};
use hermes_lang::{
    validate_program, BodyAtom, CallTemplate, Condition, PathTerm, PredRules, Program, Query,
    Relop, Rule, RuleIndex, Subst, Term, MAX_DEPTH,
};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, LazyLock};

/// A selection-pushdown rule (§5 transformation 2: "push selections to the
/// source"): a condition on a scan's output attribute can be *fused* into
/// a more selective source function.
///
/// If a plan would execute `in(X, d:scan(args…))` followed by
/// `op(X.field, V)` with `V` ground, the rewriter may instead emit
/// `in(X, d:fused[op](args…, 'field', V))` — e.g. the relational engine's
/// `all(T)` + `=(X.role, 'brandon')` becomes
/// `select_eq(T, 'role', 'brandon')`, evaluated by the source (with its
/// indexes) instead of by the mediator.
#[derive(Clone, Debug)]
pub struct PushdownRule {
    /// The domain the rule applies to.
    pub domain: Arc<str>,
    /// The scan function whose output can be filtered at the source.
    pub scan_function: Arc<str>,
    /// Comparison operator → fused function. The fused function takes the
    /// scan's arguments plus `(field-name, value)`.
    pub fused: BTreeMap<Relop, Arc<str>>,
}

impl PushdownRule {
    /// The standard rules for a [`RelationalDomain`]-style engine named
    /// `domain`: `all(T)` filtered on a field becomes the matching
    /// `select_*(T, field, value)` call.
    ///
    /// [`RelationalDomain`]: hermes_domains::relational::RelationalDomain
    pub fn relational(domain: impl Into<Arc<str>>) -> PushdownRule {
        let mut fused = BTreeMap::new();
        fused.insert(Relop::Eq, Arc::from("select_eq"));
        fused.insert(Relop::Lt, Arc::from("select_lt"));
        fused.insert(Relop::Le, Arc::from("select_le"));
        fused.insert(Relop::Gt, Arc::from("select_gt"));
        fused.insert(Relop::Ge, Arc::from("select_ge"));
        PushdownRule {
            domain: domain.into(),
            scan_function: Arc::from("all"),
            fused,
        }
    }
}

/// Rewriter limits. The rule expansions along one search path are capped
/// at [`MAX_DEPTH`], a constant the analyzer reads too (`HA011`).
#[derive(Clone, Copy, Debug)]
pub struct RewriteConfig {
    /// Maximum number of plans to emit.
    pub max_plans: usize,
    /// Stable-sort the enumerated plans by descending size of their
    /// largest *independence group* (see
    /// [`independence_groups`](crate::plan::independence_groups)), so
    /// orderings the parallel scheduler can overlap come first and win
    /// cost ties. Off by default: the paper's enumeration order is part
    /// of the pinned baseline.
    pub favor_parallel: bool,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            max_plans: 128,
            favor_parallel: false,
        }
    }
}

/// Enumerates all executable plans for `query` against `program`.
///
/// Returns at least one plan or an error explaining why none exists.
/// `program` is unchecked, so every call pays the program checks, builds
/// the rule index and compiles the rules; a caller that plans many
/// queries against one program builds a [`CheckedProgram`] once instead.
pub fn enumerate_plans(
    program: &Program,
    query: &Query,
    policy: &CimPolicy,
    config: RewriteConfig,
) -> Result<Vec<Plan>> {
    enumerate_plans_with_pushdowns(program, query, policy, config, &[])
}

/// [`enumerate_plans`] with selection-pushdown rules: wherever a scan's
/// output is filtered by a fusible condition, an additional plan variant
/// executes the fused, source-side selective call. `program` is anything
/// that derefs to one: a `&Program`, or a mediator's
/// [`program`](crate::Mediator::program) handle.
pub fn enumerate_plans_with_pushdowns(
    program: impl std::ops::Deref<Target = Program>,
    query: &Query,
    policy: &CimPolicy,
    config: RewriteConfig,
    pushdowns: &[PushdownRule],
) -> Result<Vec<Plan>> {
    let program = &*program;
    let index = RuleIndex::new(program);
    check_program(program, &index)?;
    let templates = compile_rules(program);
    Rewriter::new(program, &index, &templates, policy, config, pushdowns).plan(query)
}

/// A mediator program with everything the rewriter derives from the
/// program alone computed once, where the program is installed: the
/// verdict of the program checks (mixed definitions, rule validity, and
/// recursion, read off the analyzer's dependency graph), the rule index
/// the search reads, and every access-path rule compiled for unfolding
/// (its variables numbered, its head a pattern over them).
/// Planning a query against it ([`CheckedProgram::enumerate_plans`]) is
/// the search and nothing else.
///
/// The verdict is stored, not raised: a program that fails a check can
/// be installed, and every query against it fails with the check's
/// message — exactly what checking per query did.
#[derive(Clone, Debug)]
pub struct CheckedProgram {
    program: Program,
    index: RuleIndex,
    templates: Vec<Option<RuleTemplate>>,
    verdict: Result<()>,
}

impl CheckedProgram {
    /// Checks, indexes and compiles `program`.
    pub fn new(program: Program) -> Self {
        let index = RuleIndex::new(&program);
        let verdict = check_program(&program, &index);
        CheckedProgram {
            templates: compile_rules(&program),
            program,
            index,
            verdict,
        }
    }

    /// The program as it was handed in.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// [`enumerate_plans_with_pushdowns`] without the per-call program
    /// work: the same plans in the same order, the same errors.
    pub fn enumerate_plans(
        &self,
        query: &Query,
        policy: &CimPolicy,
        config: RewriteConfig,
        pushdowns: &[PushdownRule],
    ) -> Result<Vec<Plan>> {
        self.verdict.clone()?;
        let (program, index, templates) = (&self.program, &self.index, &self.templates);
        Rewriter::new(program, index, templates, policy, config, pushdowns).plan(query)
    }
}

/// The checks that depend on the program alone, first failure wins.
fn check_program(program: &Program, index: &RuleIndex) -> Result<()> {
    check_mixed_definitions(index)?;
    validate_program(program)?;
    reject_recursion(program)
}

/// Predicates defined by both facts and rules have ambiguous access-path
/// semantics — reject them with a clear message instead of silently
/// finding no plan.
fn check_mixed_definitions(index: &RuleIndex) -> Result<()> {
    match index.iter().find(|defs| defs.is_mixed()) {
        Some(mixed) => Err(HermesError::Plan(format!(
            "predicate `{}/{}` mixes facts and rules; define it by \
             facts only or by access-path rules only",
            mixed.name(),
            mixed.arity()
        ))),
        None => Ok(()),
    }
}

/// Rejects recursive programs, naming the first predicate (in name order)
/// from which a cycle of the dependency graph can be reached. The walk is
/// the analyzer's, the one its `HA001` check reads.
fn reject_recursion(program: &Program) -> Result<()> {
    match hermes_analysis::first_predicate_reaching_recursion(program) {
        Some((name, arity)) => Err(HermesError::Plan(format!(
            "predicate `{name}/{arity}` is recursive; recursion is not supported"
        ))),
        None => Ok(()),
    }
}

/// An access-path rule compiled where the program is installed: its
/// variables numbered once, so unfolding it for a query substitutes the
/// caller's terms by number and only names the rule's locals apart.
#[derive(Clone, Debug)]
struct RuleTemplate {
    /// The rule's variable names by number, in first-occurrence order.
    vars: Vec<Arc<str>>,
    /// Per head argument, its variable's number; `None` for a constant.
    head: Vec<Option<usize>>,
    /// Per body term, in [`BodyAtom::for_each_term`] order, its variable's
    /// number.
    body: Vec<Option<usize>>,
}

/// Compiles every access-path rule of `program`, by position; a fact
/// gets `None`.
fn compile_rules(program: &Program) -> Vec<Option<RuleTemplate>> {
    let compile = |rule: &Rule| {
        let mut vars: Vec<Arc<str>> = Vec::new();
        let mut number = |t: &Term| {
            let v = t.as_var()?;
            Some(vars.iter().position(|x| x == v).unwrap_or_else(|| {
                vars.push(v.clone());
                vars.len() - 1
            }))
        };
        let head = rule.head.args.iter().map(&mut number).collect();
        let mut body = Vec::new();
        for atom in &rule.body {
            atom.for_each_term(|t| body.push(number(t)));
        }
        RuleTemplate { vars, head, body }
    };
    let path_rule = |rule: &Rule| (!rule.body.is_empty()).then(|| compile(rule));
    program.rules.iter().map(path_rule).collect()
}

/// A variable of the search, by number. The query's variables are
/// `0..n`, in answer-variable order; an unfolding numbers its rule's
/// locals after the numbers in use on the path, and gives them back when
/// its branch is done.
type VarId = u32;

/// A term of a goal: a variable by number, or a constant borrowed from
/// the query, the program or a pushdown condition.
#[derive(Clone, Copy, PartialEq)]
enum Arg<'a> {
    Var(VarId),
    Const(&'a Value),
    /// A fused call's field-name argument, a string constant.
    Field(&'a Arc<str>),
}

impl Arg<'_> {
    fn var(self) -> Option<VarId> {
        match self {
            Arg::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// The atom of the equality that a repeated or constant head argument
/// induces, `=(_, _)` with both sides bare; its goal supplies the terms.
static EQUALITY: LazyLock<BodyAtom> = LazyLock::new(|| {
    let side = || PathTerm::bare(Term::Const(Value::Null));
    BodyAtom::Cond(Condition::new(Relop::Eq, side(), side()))
});

/// A goal of the search: an atom of the query or of a rule body as
/// written, over terms of its own. The atom's own terms are never read:
/// every unfolding of a rule shares the rule's atoms, with other terms.
struct Goal<'a> {
    atom: &'a BodyAtom,
    /// A fused call's function, in place of its scan's (`atom`).
    fused: Option<&'a Arc<str>>,
    /// A predicate atom's definitions; `None` when it has none.
    defs: Option<&'a PredRules>,
    /// Where its terms sit in [`Rewriter::args`], in
    /// [`BodyAtom::for_each_term`] order; a fused call adds its field name
    /// and value.
    terms: Range<usize>,
    /// Its structural hash ([`goal_hash`]): goals that build equal plan
    /// steps hash alike.
    hash: u64,
}

/// A placed goal: one step of the plan prefix.
struct Step {
    goal: usize,
    route: Route,
    /// The hash of the prefix that ends with this step.
    prefix: u64,
}

/// The bound variables: one bit per variable number, and a trail of the
/// numbers in binding order, so a branch unbinds exactly what it bound.
#[derive(Default)]
struct Bound {
    bits: Vec<u64>,
    trail: Vec<VarId>,
}

impl Bound {
    fn contains(&self, v: VarId) -> bool {
        self.bits[v as usize / 64] >> (v % 64) & 1 == 1
    }

    fn insert(&mut self, v: VarId) {
        let (word, bit) = (v as usize / 64, 1 << (v % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.trail.push(v);
        }
    }

    /// Makes room for the numbers `0..vars`.
    fn grow(&mut self, vars: usize) {
        let words = vars.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// The trail's length, to [`Bound::undo`] to.
    fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbinds what was bound after the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.bits[v as usize / 64] &= !(1 << (v % 64));
        }
    }
}

/// The prefix hash of a plan with no steps.
const EMPTY_PREFIX: u64 = 0;

/// One step of the Fx hash (the Rust compiler's: rotate, xor, multiply).
/// It is a dedup fingerprint whose equal values are always compared in
/// full, never the hasher of a map whose keys a client chooses.
fn fx_add(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// [`fx_add`] as a [`Hasher`], for the names and constants of a goal.
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.0 = fx_add(
                self.0,
                u64::from_le_bytes(word.try_into().expect("8 bytes")),
            );
        }
        for &b in words.remainder() {
            self.0 = fx_add(self.0, u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A goal's structural hash: its atom's kind, names, operator and paths,
/// then per term its variable's number or its constant. A number names
/// one variable for the whole search, so goals that build equal plan
/// steps hash alike.
fn goal_hash(atom: &BodyAtom, fused: Option<&Arc<str>>, args: &[Arg]) -> u64 {
    let mut h = Fx(0);
    std::mem::discriminant(atom).hash(&mut h);
    match atom {
        BodyAtom::Pred(p) => p.name.hash(&mut h),
        BodyAtom::In { call, .. } => {
            call.domain.hash(&mut h);
            fused.unwrap_or(&call.function).hash(&mut h);
        }
        BodyAtom::Cond(c) => {
            c.op.hash(&mut h);
            c.lhs.path.hash(&mut h);
            c.rhs.path.hash(&mut h);
        }
    }
    for arg in args {
        match *arg {
            Arg::Var(v) => h.0 = fx_add(h.0, u64::from(v)),
            Arg::Const(c) => c.hash(&mut h),
            Arg::Field(f) => Value::Str(f.clone()).hash(&mut h),
        }
    }
    h.finish()
}

/// The plan search: a depth-first walk over one state — the goals still
/// to place, the bound variables and the step prefix. A branch changes
/// the state on the way down and restores it on the way back: goals are
/// placed by number, their variables are numbered once, when the goal is
/// pushed, and a trail records what each branch bound. Beyond its
/// stacks' growth, a branch allocates only the names of a rule's locals
/// and a scan's fused variants; only a kept plan builds its steps.
struct Rewriter<'a> {
    program: &'a Program,
    index: &'a RuleIndex,
    templates: &'a [Option<RuleTemplate>],
    policy: &'a CimPolicy,
    config: RewriteConfig,
    pushdowns: &'a [PushdownRule],
    /// The query's goals, then those of the unfoldings and fused calls on
    /// the current path: a branch pops what it pushed.
    goals: Vec<Goal<'a>>,
    /// Every goal's terms, laid out goal after goal ([`Goal::terms`]).
    args: Vec<Arg<'a>>,
    /// Per variable number in use on the current path, its name.
    vars: Vec<Arc<str>>,
    /// The query's variables are the numbers `0..answers`.
    answers: usize,
    /// Their names, the answer columns every kept plan shares: built with
    /// the first kept plan.
    columns: Option<Arc<[Arc<str>]>>,
    /// The goals not yet placed, in textual order.
    remaining: Vec<usize>,
    bound: Bound,
    steps: Vec<Step>,
    /// Per pushed-down condition step, where in `remaining` it stood.
    taken: Vec<usize>,
    /// The rename counter: one per unfolding attempt, in walk order.
    fresh: u64,
    /// Per variable of the rule being unfolded, the term it stands for.
    map: Vec<Option<Arg<'a>>>,
    /// The plans kept so far, each with the hash of its steps.
    kept: Vec<(u64, Plan)>,
    /// The first predicate (in walk order) [`MAX_DEPTH`] left unexpanded.
    cut: Option<(Arc<str>, usize)>,
}

impl<'a> Rewriter<'a> {
    fn new(
        program: &'a Program,
        index: &'a RuleIndex,
        templates: &'a [Option<RuleTemplate>],
        policy: &'a CimPolicy,
        config: RewriteConfig,
        pushdowns: &'a [PushdownRule],
    ) -> Self {
        Rewriter {
            program,
            index,
            templates,
            policy,
            config,
            pushdowns,
            goals: Vec::new(),
            args: Vec::new(),
            vars: Vec::new(),
            answers: 0,
            columns: None,
            remaining: Vec::new(),
            bound: Bound::default(),
            steps: Vec::new(),
            taken: Vec::new(),
            fresh: 0,
            map: Vec::new(),
            kept: Vec::new(),
            cut: None,
        }
    }

    /// Every plan for `query`, or the error that says why there is none.
    fn plan(mut self, query: &'a Query) -> Result<Vec<Plan>> {
        self.walk(query);
        if self.kept.is_empty() {
            // Ask the analyzer *which* variable/subgoal blocks every ordering,
            // so the error names the culprit instead of guessing.
            let why = hermes_analysis::explain_infeasible_query(self.program, &query.goals)
                .or_else(|| {
                    let (name, arity) = self.cut.as_ref()?;
                    Some(format!(
                        "unfolding stopped at `{name}/{arity}`, max_depth ({MAX_DEPTH}) rule \
                         expansions deep"
                    ))
                })
                .unwrap_or_else(|| {
                    "a domain call argument can never become ground, or a \
                     predicate is undefined"
                        .to_string()
                });
            return Err(HermesError::Plan(format!(
                "no executable ordering found for query `{query}`: {why}"
            )));
        }
        let mut plans: Vec<Plan> = self.kept.into_iter().map(|(_, plan)| plan).collect();
        if self.config.favor_parallel {
            // Stable: plans with equally-sized largest groups keep the
            // paper's enumeration order.
            plans.sort_by_key(|p| {
                let widest = crate::plan::independence_groups(&p.steps)
                    .into_iter()
                    .map(|g| g.len())
                    .max()
                    .unwrap_or(0);
                std::cmp::Reverse(widest)
            });
        }
        Ok(plans)
    }

    /// Lays out the query's goals, numbering its variables in
    /// first-occurrence order (the answer variables' order), and searches.
    fn walk(&mut self, query: &'a Query) {
        let mut seen: BTreeMap<&str, VarId> = BTreeMap::new();
        for atom in &query.goals {
            let start = self.args.len();
            let (args, vars) = (&mut self.args, &mut self.vars);
            atom.for_each_term(|t| {
                args.push(match t {
                    Term::Var(v) => Arg::Var(*seen.entry(v).or_insert_with(|| {
                        vars.push(v.clone());
                        (vars.len() - 1) as VarId
                    })),
                    Term::Const(c) => Arg::Const(c),
                });
            });
            self.push_goal(atom, None, start);
        }
        self.answers = self.vars.len();
        self.bound.grow(self.answers);
        self.remaining.extend(0..self.goals.len());
        if !self.is_dead() {
            self.search(0);
        }
    }

    /// Pushes a goal of `atom` (a call fused into `fused`, if given); its
    /// terms were pushed onto `args` from `start` on.
    fn push_goal(&mut self, atom: &'a BodyAtom, fused: Option<&'a Arc<str>>, start: usize) {
        let defs = match atom {
            BodyAtom::Pred(p) => self.index.get(&p.name, p.args.len()),
            _ => None,
        };
        let terms = start..self.args.len();
        let hash = goal_hash(atom, fused, &self.args[terms.clone()]);
        self.goals.push(Goal {
            atom,
            fused,
            defs,
            terms,
            hash,
        });
    }

    /// Pops the goals from `len` on, with their terms.
    fn pop_goals(&mut self, len: usize) {
        if let Some(first) = self.goals.get(len) {
            self.args.truncate(first.terms.start);
        }
        self.goals.truncate(len);
    }

    /// Numbers a new variable named `name` after those in use.
    fn new_var(&mut self, name: Arc<str>) -> VarId {
        self.vars.push(name);
        self.bound.grow(self.vars.len());
        (self.vars.len() - 1) as VarId
    }

    /// True for a constant and a bound variable.
    fn ground(&self, arg: Arg) -> bool {
        arg.var().is_none_or(|v| self.bound.contains(v))
    }

    /// [`BodyAtom::can_run`] on the goal's terms: a call needs every
    /// argument ground; an equality, one side ground and the other ground
    /// or a bare variable to assign; another comparison, both sides ground.
    fn can_run(&self, g: usize) -> bool {
        let goal = &self.goals[g];
        let args = &self.args[goal.terms.clone()];
        match goal.atom {
            BodyAtom::Pred(_) => true,
            BodyAtom::In { .. } => args[1..].iter().all(|&a| self.ground(a)),
            BodyAtom::Cond(c) => {
                let (lhs, rhs) = (self.ground(args[0]), self.ground(args[1]));
                if c.op != Relop::Eq {
                    return lhs && rhs;
                }
                let assignable =
                    |side: &PathTerm, arg: Arg| side.path.is_empty() && arg.var().is_some();
                (lhs && (rhs || assignable(&c.rhs, args[1])))
                    || (rhs && assignable(&c.lhs, args[0]))
            }
        }
    }

    /// Binds what goal `g` binds when it runs
    /// ([`BodyAtom::for_each_binding`]).
    fn bind_results(&mut self, g: usize) {
        let goal = &self.goals[g];
        for (k, arg) in self.args[goal.terms.clone()].iter().enumerate() {
            let binds = match goal.atom {
                BodyAtom::Pred(_) => true,
                BodyAtom::In { .. } => k == 0,
                BodyAtom::Cond(c) => c.op == Relop::Eq && [&c.lhs, &c.rhs][k].path.is_empty(),
            };
            if let (true, Some(v)) = (binds, arg.var()) {
                self.bound.insert(v);
            }
        }
    }

    /// True when goal `g` is a predicate defined by access-path rules.
    fn expands(&self, g: usize) -> bool {
        let goal = &self.goals[g];
        matches!(goal.atom, BodyAtom::Pred(_)) && goal.defs.is_some_and(PredRules::has_path_rules)
    }

    /// True when no ordering of the remaining goals runs them all: the
    /// groundability fixpoint of [`hermes_lang::groundability`], on the
    /// numbered goals and seeded with the bound set, leaves one that can
    /// never run. Every goal that can run binds what it binds, until
    /// nothing changes; a predicate goal runs at once and binds all its
    /// arguments, so a goal still waiting then waits forever. The bound
    /// set is restored before returning.
    fn is_dead(&mut self) -> bool {
        let trail = self.bound.mark();
        loop {
            let before = self.bound.mark();
            for i in 0..self.remaining.len() {
                let g = self.remaining[i];
                if self.can_run(g) {
                    self.bind_results(g);
                }
            }
            if self.bound.mark() == before {
                break;
            }
        }
        let dead = self.remaining.iter().any(|&g| !self.can_run(g));
        self.bound.undo(trail);
        dead
    }

    fn route(&self, domain: &str, function: &str) -> Route {
        match self.policy.decide(domain, function) {
            RoutingDecision::UseCim => Route::Cim,
            RoutingDecision::Direct => Route::Direct,
        }
    }

    /// Appends goal `g` to the prefix, extending the prefix hash.
    fn push_step(&mut self, g: usize, route: Route) {
        let before = self.steps.last().map_or(EMPTY_PREFIX, |s| s.prefix);
        let prefix = fx_add(
            fx_add(before, self.goals[g].hash),
            u64::from(route == Route::Cim),
        );
        self.steps.push(Step {
            goal: g,
            route,
            prefix,
        });
    }

    /// DFS from the current state; leaves it as it found it.
    fn search(&mut self, depth: usize) {
        if self.kept.len() >= self.config.max_plans {
            return;
        }
        let (steps, trail) = (self.steps.len(), self.bound.mark());
        // Push every runnable condition down, in textual order, to a
        // fixpoint (assignments may enable further conditions).
        loop {
            let before = self.steps.len();
            let mut i = 0;
            while i < self.remaining.len() {
                let g = self.remaining[i];
                if matches!(self.goals[g].atom, BodyAtom::Cond(_)) && self.can_run(g) {
                    self.bind_results(g);
                    self.push_step(g, Route::Direct);
                    self.taken.push(i);
                    self.remaining.remove(i);
                } else {
                    i += 1;
                }
            }
            if self.steps.len() == before {
                break;
            }
        }
        self.branch(depth);
        // Put the pushed conditions back where they stood, last first.
        while self.steps.len() > steps {
            let step = self.steps.pop().expect("a pushed condition");
            let at = self.taken.pop().expect("one position per condition");
            self.remaining.insert(at, step.goal);
        }
        self.bound.undo(trail);
    }

    fn branch(&mut self, depth: usize) {
        if self.remaining.is_empty() {
            self.emit();
            return;
        }
        // Expand rule-defined predicates *eagerly and deterministically*:
        // expansion only inlines body atoms (ordering is decided later at
        // the generator level), so expansion order is irrelevant — and
        // branching on it would make the search exponential in the number
        // of IDB atoms. Only the *rule choice* (access path) branches.
        if let Some(i) = self.remaining.iter().position(|&g| self.expands(g)) {
            self.expand_pred(i, depth);
            return;
        }
        // Branch on every executable generator.
        for i in 0..self.remaining.len() {
            if self.kept.len() >= self.config.max_plans {
                return;
            }
            let g = self.remaining[i];
            match self.goals[g].atom {
                BodyAtom::In { .. } if self.can_run(g) => self.call_branches(i, depth),
                // Only fact-defined predicates reach here (rule-defined
                // ones were eagerly expanded above).
                BodyAtom::Pred(_) => self.fact_branch(i, depth),
                // A call or condition waiting for a generator to bind more.
                _ => {}
            }
        }
    }

    /// Places goal `g`, taken out of `remaining` by the caller, and
    /// searches on; then takes it back off.
    fn place(&mut self, g: usize, route: Route, depth: usize) {
        let trail = self.bound.mark();
        self.bind_results(g);
        self.push_step(g, route);
        self.search(depth);
        self.steps.pop();
        self.bound.undo(trail);
    }

    /// The prefix is a whole plan: keep it unless an equal one was kept.
    fn emit(&mut self) {
        let hash = self.steps.last().map_or(EMPTY_PREFIX, |s| s.prefix);
        self.keep(hash);
    }

    /// Keeps the prefix as a plan with hash `hash`, unless a kept plan of
    /// that hash equals it step for step. Only a kept plan builds its
    /// steps.
    fn keep(&mut self, hash: u64) {
        let mut kept = self.kept.iter();
        if kept.any(|(h, plan)| *h == hash && self.prefix_equals(&plan.steps)) {
            return;
        }
        let columns = self
            .columns
            .get_or_insert_with(|| self.vars[..self.answers].into())
            .clone();
        let plan = Plan {
            steps: self.steps.iter().map(|s| self.plan_step(s)).collect(),
            answer_vars: columns,
        };
        self.kept.push((hash, plan));
    }

    /// The term `arg` stands for.
    fn term(&self, arg: Arg) -> Term {
        match arg {
            Arg::Var(v) => Term::Var(self.vars[v as usize].clone()),
            Arg::Const(c) => Term::Const(c.clone()),
            Arg::Field(f) => Term::Const(Value::Str(f.clone())),
        }
    }

    /// True when `arg` stands for `term`.
    fn stands_for(&self, arg: Arg, term: &Term) -> bool {
        match (arg, term) {
            (Arg::Var(v), Term::Var(name)) => self.vars[v as usize] == *name,
            (Arg::Const(c), Term::Const(value)) => c == value,
            (Arg::Field(f), Term::Const(Value::Str(s))) => f == s,
            _ => false,
        }
    }

    /// True when the prefix's plan steps would equal `steps`, found
    /// without building them.
    fn prefix_equals(&self, steps: &[PlanStep]) -> bool {
        let terms_are = |args: &[Arg], terms: &[Term]| {
            args.len() == terms.len() && args.iter().zip(terms).all(|(&a, t)| self.stands_for(a, t))
        };
        let equal = |s: &Step, step: &PlanStep| {
            let goal = &self.goals[s.goal];
            let args = &self.args[goal.terms.clone()];
            match (goal.atom, step) {
                (
                    BodyAtom::In { call, .. },
                    PlanStep::Call {
                        target,
                        call: c,
                        route,
                    },
                ) => {
                    s.route == *route
                        && call.domain == c.domain
                        && *goal.fused.unwrap_or(&call.function) == c.function
                        && self.stands_for(args[0], target)
                        && terms_are(&args[1..], &c.args)
                }
                (BodyAtom::Cond(c), PlanStep::Cond(d)) => {
                    c.op == d.op
                        && c.lhs.path == d.lhs.path
                        && c.rhs.path == d.rhs.path
                        && self.stands_for(args[0], &d.lhs.base)
                        && self.stands_for(args[1], &d.rhs.base)
                }
                (
                    BodyAtom::Pred(p),
                    PlanStep::Facts {
                        pred,
                        args: a,
                        rows,
                    },
                ) => {
                    p.name == *pred
                        && terms_are(args, a)
                        && goal.defs.and_then(PredRules::fact_rows) == Some(rows)
                }
                _ => false,
            }
        };
        steps.len() == self.steps.len() && self.steps.iter().zip(steps).all(|(s, p)| equal(s, p))
    }

    fn plan_step(&self, s: &Step) -> PlanStep {
        let goal = &self.goals[s.goal];
        let args = &self.args[goal.terms.clone()];
        let terms = |args: &[Arg]| args.iter().map(|&a| self.term(a)).collect();
        match goal.atom {
            BodyAtom::In { call, .. } => PlanStep::Call {
                target: self.term(args[0]),
                call: CallTemplate {
                    domain: call.domain.clone(),
                    function: goal.fused.unwrap_or(&call.function).clone(),
                    args: terms(&args[1..]),
                },
                route: s.route,
            },
            BodyAtom::Cond(c) => PlanStep::Cond(Condition::new(
                c.op,
                PathTerm::with_path(self.term(args[0]), c.lhs.path.clone()),
                PathTerm::with_path(self.term(args[1]), c.rhs.path.clone()),
            )),
            BodyAtom::Pred(p) => PlanStep::Facts {
                pred: p.name.clone(),
                args: terms(args),
                rows: goal
                    .defs
                    .and_then(PredRules::fact_rows)
                    .expect("a placed predicate is fact-defined")
                    .clone(),
            },
        }
    }

    /// The branches of the runnable call at `remaining[i]`: its fused
    /// variants, then the call itself.
    fn call_branches(&mut self, i: usize, depth: usize) {
        let g = self.remaining[i];
        let scan = self.goals[g].atom;
        let BodyAtom::In { call, .. } = scan else {
            unreachable!("a call goal");
        };
        let route = self.route(&call.domain, &call.function);
        // Selection pushdown (§5): also branch into fused variants where a
        // condition on this scan's output moves into the source call.
        for (fused, j, field, value) in self.pushdown_variants(i) {
            // Take the higher position first, so the lower stays valid.
            let (hi, lo) = (i.max(j), i.min(j));
            let high = self.remaining.remove(hi);
            let low = self.remaining.remove(lo);
            let fused_route = self.route(&call.domain, fused);
            // The fused call's terms: the scan's, the field name, the value.
            let (start, goals) = (self.args.len(), self.goals.len());
            self.args.extend_from_within(self.goals[g].terms.clone());
            self.args.extend([Arg::Field(field), value]);
            self.push_goal(scan, Some(fused), start);
            self.place(goals, fused_route, depth);
            self.pop_goals(goals);
            self.remaining.insert(lo, low);
            self.remaining.insert(hi, high);
        }
        self.remaining.remove(i);
        self.place(g, route, depth);
        self.remaining.insert(i, g);
    }

    /// Finds the fusible variants for the scan at `remaining[i]`:
    /// conditions `op(Target.field, V)` (either orientation) where a
    /// pushdown rule maps `op` to a selective source function and `V` is
    /// ground at this point. Each is the fused function, the condition's
    /// index in `remaining`, the field and `V`.
    fn pushdown_variants(&self, i: usize) -> Vec<(&'a Arc<str>, usize, &'a Arc<str>, Arg<'a>)> {
        let goal = &self.goals[self.remaining[i]];
        let BodyAtom::In { call, .. } = goal.atom else {
            unreachable!("a call goal");
        };
        let Arg::Var(target) = self.args[goal.terms.start] else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for rule in self.pushdowns {
            if rule.domain != call.domain || rule.scan_function != call.function {
                continue;
            }
            for (j, &cond) in self.remaining.iter().enumerate() {
                let goal = &self.goals[cond];
                let BodyAtom::Cond(c) = goal.atom else {
                    continue;
                };
                let (lhs, rhs) = (self.args[goal.terms.start], self.args[goal.terms.start + 1]);
                // Orient so the path side references the scan target.
                let oriented = [
                    (c.op, &c.lhs, lhs, &c.rhs, rhs),
                    (c.op.flipped(), &c.rhs, rhs, &c.lhs, lhs),
                ];
                for (op, path_side, path_arg, value_side, value) in oriented {
                    let Some(fused) = rule.fused.get(&op) else {
                        continue;
                    };
                    // Path side: exactly `Target.field`.
                    if path_arg != Arg::Var(target) {
                        continue;
                    }
                    let [PathStep::Field(field)] = path_side.path.steps() else {
                        continue;
                    };
                    // Value side: bare, and ground by now.
                    if !value_side.path.is_empty() || !self.ground(value) {
                        continue;
                    }
                    out.push((fused, j, field, value));
                    break; // one orientation per condition
                }
            }
        }
        out
    }

    /// Expands the rule-defined predicate goal at `remaining[i]`: one
    /// search branch per access-path rule. (Fact-defined predicates are
    /// handled at the generator level, because a fact scan *does* occupy a
    /// position in the execution order.)
    fn expand_pred(&mut self, i: usize, depth: usize) {
        let g = self.remaining[i];
        if depth >= MAX_DEPTH {
            if let (None, BodyAtom::Pred(p)) = (&self.cut, self.goals[g].atom) {
                self.cut = Some(p.key());
            }
            return;
        }
        // The program checks reject mixed definitions before any search,
        // so every definition here is an access-path rule.
        let defs = self.goals[g].defs.expect("an expandable goal is defined");
        for &pos in defs.rule_positions() {
            if self.kept.len() >= self.config.max_plans {
                return;
            }
            let (goals, vars) = (self.goals.len(), self.vars.len());
            if self.instantiate_rule(pos, g) {
                // Inline the rule body where the atom stood, preserving
                // relative order as a heuristic (the search still reorders).
                let n = self.goals.len() - goals;
                self.remaining.remove(i);
                self.remaining.extend(goals..goals + n);
                self.remaining[i..].rotate_right(n);
                // Prune a dead unfolding once nothing is left to expand:
                // its subtree then renames no variable, so the plans after
                // it keep their names.
                if self.remaining.iter().any(|&g| self.expands(g)) || !self.is_dead() {
                    self.search(depth + 1);
                }
                self.remaining.drain(i..i + n);
                self.remaining.insert(i, g);
            }
            self.pop_goals(goals);
            self.vars.truncate(vars);
        }
    }

    /// Standardizes the rule at `pos` apart and unifies its head with the
    /// predicate goal `g`, pushing the rule's body goals after any
    /// equality conditions induced by repeated or constant head arguments.
    /// A head variable stands for the caller's term, and a local gets a
    /// new number. False when the head cannot match; the caller pops what
    /// was pushed.
    fn instantiate_rule(&mut self, pos: usize, g: usize) -> bool {
        self.fresh += 1;
        let suffix = self.fresh;
        let (program, templates) = (self.program, self.templates);
        let rule = &program.rules[pos];
        let template = templates[pos].as_ref().expect("an access-path rule");
        self.map.clear();
        self.map.resize(template.vars.len(), None);
        let caller = self.goals[g].terms.start;
        for (k, slot) in template.head.iter().enumerate() {
            let q = self.args[caller + k];
            match slot {
                None => {
                    let c = rule.head.args[k]
                        .as_const()
                        .expect("a constant head argument");
                    if q.var().is_some() {
                        self.push_equality(q, Arg::Const(c));
                    } else if q != Arg::Const(c) {
                        return false; // statically incompatible
                    }
                }
                Some(s) => match self.map[*s] {
                    None => self.map[*s] = Some(q),
                    Some(prev) if prev != q => self.push_equality(prev, q),
                    Some(_) => {}
                },
            }
        }
        // Name the body's locals apart.
        for s in 0..self.map.len() {
            if self.map[s].is_none() {
                let v = self.new_var(Arc::from(format!("{}#{suffix}", template.vars[s])));
                self.map[s] = Some(Arg::Var(v));
            }
        }
        let mut slots = template.body.iter();
        for atom in &rule.body {
            let start = self.args.len();
            let (map, args) = (&self.map, &mut self.args);
            atom.for_each_term(|t| {
                args.push(match *slots.next().expect("one slot per term") {
                    None => Arg::Const(t.as_const().expect("a constant")),
                    Some(s) => map[s].expect("every variable is mapped"),
                });
            });
            self.push_goal(atom, None, start);
        }
        true
    }

    /// Pushes the goal `=(lhs, rhs)`.
    fn push_equality(&mut self, lhs: Arg<'a>, rhs: Arg<'a>) {
        let start = self.args.len();
        self.args.extend([lhs, rhs]);
        self.push_goal(&EQUALITY, None, start);
    }

    /// Emits the fact-scan generator branch for the fact-defined
    /// predicate at `remaining[i]`.
    fn fact_branch(&mut self, i: usize, depth: usize) {
        let g = self.remaining[i];
        if self.goals[g].defs.and_then(PredRules::fact_rows).is_none() {
            return; // undefined: no plan through this branch
        }
        self.remaining.remove(i);
        self.place(g, Route::Direct, depth);
        self.remaining.insert(i, g);
    }
}

/// Substitutes query-level constants into a query before planning: any
/// answer variable bound in `bindings` is replaced by its constant. Used
/// by the mediator to support parameterized queries.
pub fn bind_query(query: &Query, bindings: &Subst) -> Query {
    let sub_term = |t: &Term| match t.as_var().and_then(|v| bindings.get(v)) {
        Some(val) => Term::Const(val.clone()),
        None => t.clone(),
    };
    Query::new(query.goals.iter().map(|g| g.map_terms(sub_term)).collect())
}

/// Tier-restricted planning support: the indices of the plans whose
/// every domain call is CIM-routed (`Plan::routes_calls_through_cim`).
/// Only those plans can possibly be served end-to-end by the `CacheOnly`
/// tier — a Direct-routed call bypasses the cache entirely, so a plan
/// containing one is guaranteed to come back with a `Downgraded` gap.
/// Returns an empty list when no plan qualifies; the caller keeps the
/// optimizer's choice and lets the executor fail soft per call.
pub fn cache_servable_plans(plans: &[Plan]) -> Vec<usize> {
    plans
        .iter()
        .enumerate()
        .filter(|(_, plan)| plan.routes_calls_through_cim())
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::{parse_program, parse_query};
    use std::collections::BTreeSet;

    fn m1() -> Program {
        parse_program(
            "
            m(A, C) :- p(A, B) & q(B, C).
            p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.1, A) & =(Ans.2, B).
            p(A, B) :- in(B, d1:p_bf(A)).
            p(A, B) :- in(X, d1:p_bb(A, B)).
            q(B, C) :- in(Ans, d2:q_ff()) & =(Ans.1, B) & =(Ans.2, C).
            q(B, C) :- in(C, d2:q_bf(B)).
            ",
        )
        .unwrap()
    }

    fn plans_for(src: &str) -> Vec<Plan> {
        enumerate_plans(
            &m1(),
            &parse_query(src).unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn example_5_1_produces_both_paper_plans() {
        let plans = plans_for("?- m('a', C).");
        // P8: p_bf('a') then q_bf(B). P12: q_ff() then p_bb('a', B). And
        // more (p_ff-based variants). All must be executable.
        assert!(plans.len() >= 2, "got {} plans", plans.len());
        let texts: Vec<String> = plans.iter().map(|p| p.to_string()).collect();
        let has_p8 = texts.iter().any(|t| {
            let bf = t.find("d1:p_bf('a')");
            let qbf = t.find("d2:q_bf(");
            matches!((bf, qbf), (Some(a), Some(b)) if a < b)
        });
        let has_p12 = texts.iter().any(|t| {
            let qff = t.find("d2:q_ff()");
            let pbb = t.find("d1:p_bb('a'");
            matches!((qff, pbb), (Some(a), Some(b)) if a < b)
        });
        assert!(has_p8, "P8 missing from:\n{}", texts.join("\n"));
        assert!(has_p12, "P12 missing from:\n{}", texts.join("\n"));
    }

    #[test]
    fn all_emitted_plans_are_executable() {
        // Replay binding analysis over each plan: every call's variables
        // must be bound by earlier steps.
        for plan in plans_for("?- m('a', C).") {
            let mut bound: BTreeSet<Arc<str>> = BTreeSet::new();
            for step in &plan.steps {
                match step {
                    PlanStep::Call { target, call, .. } => {
                        for v in call.variables() {
                            assert!(bound.contains(&v), "unbound {v} in {plan}");
                        }
                        if let Some(v) = target.as_var() {
                            bound.insert(v.clone());
                        }
                    }
                    PlanStep::Cond(c) => {
                        for pt in [&c.lhs, &c.rhs] {
                            if let Some(v) = pt.var_name() {
                                // Either bound (filter side) or bare
                                // assignment target of an Eq.
                                if !bound.contains(v) {
                                    assert!(c.op == Relop::Eq && pt.path.is_empty());
                                    bound.insert(v.clone());
                                }
                            }
                        }
                    }
                    PlanStep::Facts { args, .. } => {
                        for t in args {
                            if let Some(v) = t.as_var() {
                                bound.insert(v.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bound_query_enables_bb_access_path() {
        // With both arguments bound, the p_bb membership probe is usable.
        let plans = plans_for("?- p('a', 5).");
        assert!(plans
            .iter()
            .any(|p| p.to_string().contains("d1:p_bb('a', 5)")));
    }

    #[test]
    fn free_query_uses_only_ff_path() {
        // ?- p(A, B): p_bf needs A bound — not available; p_bb needs both.
        let plans = plans_for("?- p(A, B).");
        for p in &plans {
            let t = p.to_string();
            assert!(t.contains("d1:p_ff()"), "unexpected plan {t}");
        }
    }

    #[test]
    fn conditions_are_pushed_early() {
        let plans = plans_for("?- m('a', C) & =(C, 5).");
        for p in &plans {
            // The =(C,5) condition must survive into every plan, and it
            // may legitimately run *first* — as an assignment binding C to
            // 5 before any call (the most aggressive pushdown).
            let cond_at = p
                .steps
                .iter()
                .position(|s| matches!(s, PlanStep::Cond(c) if c.to_string() == "=(C, 5)"));
            assert!(cond_at.is_some(), "condition missing from {p}");
        }
        // At least one plan binds C := 5 before issuing any call.
        assert!(plans.iter().any(|p| matches!(
            p.steps.first(),
            Some(PlanStep::Cond(c)) if c.to_string() == "=(C, 5)"
        )));
    }

    #[test]
    fn cim_policy_routes_calls() {
        let plans = enumerate_plans(
            &m1(),
            &parse_query("?- m('a', C).").unwrap(),
            &CimPolicy::cache_everything(),
            RewriteConfig::default(),
        )
        .unwrap();
        for p in &plans {
            for s in &p.steps {
                if let PlanStep::Call { route, .. } = s {
                    assert_eq!(*route, Route::Cim);
                }
            }
        }
    }

    #[test]
    fn facts_expand_into_fact_steps() {
        let program = parse_program(
            "edge('a', 'b'). edge('b', 'c').
             reach(X, Y) :- edge(X, Y).",
        )
        .unwrap();
        let plans = enumerate_plans(
            &program,
            &parse_query("?- reach('a', Y).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap();
        assert_eq!(plans.len(), 1);
        match &plans[0].steps[0] {
            PlanStep::Facts { rows, .. } => assert_eq!(rows.len(), 2),
            other => panic!("expected facts step, got {other}"),
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let program = parse_program(
            "edge('a', 'b').
             reach(X, Y) :- edge(X, Y).
             reach(X, Y) :- reach(X, Z) & edge(Z, Y).",
        )
        .unwrap();
        let err = enumerate_plans(
            &program,
            &parse_query("?- reach('a', Y).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("recursive"));
    }

    #[test]
    fn recursion_error_names_the_first_predicate_that_reaches_a_cycle() {
        // The walk starts from `a/1` (name order) and runs into the
        // `b -> c -> b` cycle: `a/1` is named, not a member of the cycle.
        let program = parse_program(
            "c(X) :- b(X).
             b(X) :- c(X).
             a(X) :- b(X).
             ok(X) :- in(X, d:f()).",
        )
        .unwrap();
        let err = reject_recursion(&program).unwrap_err().to_string();
        assert!(err.contains("predicate `a/1` is recursive"), "{err}");
    }

    #[test]
    fn recursion_walk_agrees_with_reachability_on_random_programs() {
        // Reference: the first predicate in name order, among those with
        // a predicate in a body, from which some predicate on a cycle can
        // be reached — by transitive closure, not by a walk.
        const N: usize = 7;
        let mut rng = hermes_common::Rng64::new(1996);
        let (mut cyclic, mut acyclic) = (0, 0);
        for _ in 0..400 {
            let mut edge = [[false; N]; N];
            let mut src = String::new();
            for (from, row) in edge.iter_mut().enumerate() {
                for (to, e) in row.iter_mut().enumerate() {
                    if rng.chance(0.13) {
                        *e = true;
                        src.push_str(&format!("p{from}(X) :- p{to}(X).\n"));
                    }
                }
            }
            src.push_str("leaf(X) :- in(X, d:f()).\n");
            let mut reach = edge;
            for k in 0..N {
                for i in 0..N {
                    for j in 0..N {
                        reach[i][j] |= reach[i][k] && reach[k][j];
                    }
                }
            }
            let reaches_cycle =
                |i: usize| reach[i][i] || (0..N).any(|j| reach[i][j] && reach[j][j]);
            let expect = (0..N).find(|&i| reaches_cycle(i));
            let got = reject_recursion(&parse_program(&src).unwrap());
            match expect {
                Some(i) => {
                    cyclic += 1;
                    let msg = got.unwrap_err().to_string();
                    assert!(
                        msg.contains(&format!("`p{i}/1` is recursive")),
                        "{msg}\n{src}"
                    );
                }
                None => {
                    acyclic += 1;
                    assert!(got.is_ok(), "{src}");
                }
            }
        }
        assert!(
            cyclic > 50 && acyclic > 50,
            "{cyclic} cyclic, {acyclic} acyclic"
        );
    }

    #[test]
    fn checked_program_stores_the_first_failing_check() {
        // Mixed definitions are reported before an ungroundable rule, and
        // that before recursion — the order the checks always ran in.
        let mixed_and_recursive = parse_program(
            "mix('a').
             mix(X) :- in(X, d:f()).
             loop(X) :- loop(X).",
        )
        .unwrap();
        let query = parse_query("?- loop(X).").unwrap();
        let policy = CimPolicy::never();
        let checked = CheckedProgram::new(mixed_and_recursive.clone());
        assert_eq!(checked.program(), &mixed_and_recursive);
        let stored = checked
            .enumerate_plans(&query, &policy, RewriteConfig::default(), &[])
            .unwrap_err();
        assert!(stored.to_string().contains("`mix/1` mixes facts and rules"));
        let per_call = enumerate_plans(
            &mixed_and_recursive,
            &query,
            &policy,
            RewriteConfig::default(),
        );
        assert_eq!(per_call.unwrap_err(), stored);

        let unsafe_and_recursive = parse_program(
            "loop(X) :- loop(X).
             bad(X) :- in(X, d:f(Z)).",
        )
        .unwrap();
        let err = CheckedProgram::new(unsafe_and_recursive)
            .enumerate_plans(&query, &policy, RewriteConfig::default(), &[])
            .unwrap_err();
        assert!(err.to_string().contains("can never become ground"), "{err}");
    }

    #[test]
    fn impossible_binding_yields_clear_error() {
        // q_bf needs B bound and there is no other access path to bind it.
        let program =
            parse_program("only(C) :- in(C, d2:q_bf(B)) & in(B, d9:undefined_pred(C)).").unwrap();
        // d9 call needs C which needs B: circular; no ordering works.
        let err = enumerate_plans(
            &program,
            &parse_query("?- only(C).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no executable ordering"));
        // The analyzer names the blocked subgoal inside the rule instead of
        // a generic "something is unbound" guess.
        assert!(msg.contains("in rule `only(C)`"), "{msg}");
        assert!(msg.contains("`B`"), "{msg}");
    }

    #[test]
    fn max_plans_caps_enumeration() {
        let plans = enumerate_plans(
            &m1(),
            &parse_query("?- m(A, C).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig {
                max_plans: 2,
                ..RewriteConfig::default()
            },
        )
        .unwrap();
        assert!(plans.len() <= 2);
    }

    #[test]
    fn repeated_head_variables_induce_equality() {
        let program = parse_program(
            "same(X) :- pair(X, X).
             pair(A, B) :- in(Ans, d:pairs_ff()) & =(Ans.1, A) & =(Ans.2, B).",
        )
        .unwrap();
        let plans = enumerate_plans(
            &program,
            &parse_query("?- same(V).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap();
        // Some plan must carry an equality tying the two positions.
        assert!(!plans.is_empty());
    }

    #[test]
    fn constant_head_arg_matches_or_prunes() {
        let program = parse_program(
            "special('gold', X) :- in(X, d:gold_ff()).
             special('silver', X) :- in(X, d:silver_ff()).",
        )
        .unwrap();
        let plans = enumerate_plans(
            &program,
            &parse_query("?- special('gold', X).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap();
        assert_eq!(plans.len(), 1);
        assert!(plans[0].to_string().contains("d:gold_ff()"));
    }

    #[test]
    fn pushdown_fuses_scan_and_filter() {
        // The appendix's query4 shape: scan cast, filter role = Object.
        let program = parse_program(
            "actor_of(Object, Actor) :-
                 in(P, relation:all('cast')) & =(P.name, Actor) & =(P.role, Object).",
        )
        .unwrap();
        let plans = enumerate_plans_with_pushdowns(
            &program,
            &parse_query("?- actor_of('brandon', A).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
            &[PushdownRule::relational("relation")],
        )
        .unwrap();
        let texts: Vec<String> = plans.iter().map(|p| p.to_string()).collect();
        // The fused variant exists…
        assert!(
            texts
                .iter()
                .any(|t| t.contains("relation:select_eq('cast', 'role', 'brandon')")),
            "no fused plan in:\n{}",
            texts.join("\n")
        );
        // …and the unfused scan variant survives as an alternative.
        assert!(texts.iter().any(|t| t.contains("relation:all('cast')")));
        // In the fused plan the role condition is gone (it moved into the
        // source call) but the name assignment remains.
        let fused = plans
            .iter()
            .find(|p| p.to_string().contains("select_eq"))
            .unwrap();
        assert!(!fused.to_string().contains(".role"), "{fused}");
        assert!(fused.to_string().contains(".name"), "{fused}");
    }

    #[test]
    fn pushdown_handles_ranges_and_flipped_orientation() {
        let program =
            parse_program("low(T) :- in(T, relation:all('inventory')) & >(10, T.qty).").unwrap();
        let plans = enumerate_plans_with_pushdowns(
            &program,
            &parse_query("?- low(T).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
            &[PushdownRule::relational("relation")],
        )
        .unwrap();
        // >(10, T.qty) orients to T.qty < 10 → select_lt.
        assert!(plans.iter().any(|p| p
            .to_string()
            .contains("relation:select_lt('inventory', 'qty', 10)")));
    }

    #[test]
    fn pushdown_skips_unground_values_and_foreign_domains() {
        let program =
            parse_program("r(T, V) :- in(T, relation:all('t')) & =(T.f, V) & in(V, other:vals()).")
                .unwrap();
        let plans = enumerate_plans_with_pushdowns(
            &program,
            &parse_query("?- r(T, V).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
            &[PushdownRule::relational("relation")],
        )
        .unwrap();
        // V is only ground after other:vals() runs; a fused variant may
        // exist only in orderings where vals() precedes the scan.
        for p in &plans {
            let t = p.to_string();
            if let Some(fused_at) = t.find("select_eq") {
                let vals_at = t.find("other:vals()").expect("vals step present");
                assert!(vals_at < fused_at, "fused before V is bound:\n{t}");
            }
        }
    }

    /// A rewriter over `program`, with its index and templates built.
    fn searched<'a>(
        program: &'a Program,
        index: &'a RuleIndex,
        templates: &'a [Option<RuleTemplate>],
        policy: &'a CimPolicy,
        pushdowns: &'a [PushdownRule],
        query: &'a Query,
    ) -> Rewriter<'a> {
        let config = RewriteConfig::default();
        let mut r = Rewriter::new(program, index, templates, policy, config, pushdowns);
        r.walk(query);
        r
    }

    #[test]
    fn plans_of_one_hash_are_compared_in_full() {
        let (program, policy) = (Program::default(), CimPolicy::never());
        let index = RuleIndex::new(&program);
        let query = parse_query("?- in(X, d:f()) & in(Y, d:g()).").unwrap();
        let mut r = searched(&program, &index, &[], &policy, &[], &query);
        assert_eq!(r.kept.len(), 2);
        r.kept.clear();
        // Two orders of the same calls, kept under one hash: both stay,
        // and the first order a second time is dropped.
        for order in [[0, 1], [1, 0], [0, 1]] {
            for g in order {
                r.push_step(g, Route::Direct);
            }
            r.keep(7);
            r.steps.clear();
        }
        let texts: Vec<String> = r.kept.iter().map(|(_, p)| p.to_string()).collect();
        assert_eq!(texts.len(), 2, "{texts:?}");
        assert_ne!(texts[0], texts[1]);
        assert!(r.kept.iter().all(|(hash, _)| *hash == 7));
    }

    #[test]
    fn a_search_leaves_no_binding_and_no_goal_behind() {
        let pushdowns = [PushdownRule::relational("relation")];
        let cast = parse_program(
            "actor_of(Object, Actor) :-
                 in(P, relation:all('cast')) & =(P.name, Actor) & =(P.role, Object).",
        )
        .unwrap();
        // A plain join; one whose `p_bf` and `p_bb` unfoldings are dead
        // and pruned; one with a fused pushdown branch.
        for (program, text) in [
            (m1(), "?- m('a', C)."),
            (m1(), "?- p(A, B)."),
            (cast, "?- actor_of('brandon', A)."),
        ] {
            let index = RuleIndex::new(&program);
            let templates = compile_rules(&program);
            let policy = CimPolicy::cache_everything();
            let query = parse_query(text).unwrap();
            let r = searched(&program, &index, &templates, &policy, &pushdowns, &query);
            assert!(!r.kept.is_empty(), "{text}");
            assert!(r.bound.bits.iter().all(|&w| w == 0), "{text}");
            assert!(r.bound.trail.is_empty() && r.steps.is_empty(), "{text}");
            assert_eq!(r.goals.len(), query.goals.len(), "{text}");
            assert_eq!(r.vars, query.answer_variables(), "{text}");
            let terms = r.goals.last().map_or(0, |g| g.terms.end);
            assert_eq!(r.args.len(), terms, "{text}");
            assert_eq!(r.remaining, (0..query.goals.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bind_query_substitutes_constants() {
        let q = parse_query("?- m(A, C).").unwrap();
        let bound = bind_query(&q, &Subst::from_pairs([("A", Value::str("a"))]));
        assert_eq!(bound.to_string(), "?- m('a', C).");
    }
}
