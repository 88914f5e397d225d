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
    validate_program, BodyAtom, CallTemplate, Condition, PathTerm, PredAtom, Program, Query, Relop,
    Rule, RuleIndex, Subst, Term,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

/// Rewriter limits.
#[derive(Clone, Copy, Debug)]
pub struct RewriteConfig {
    /// Maximum number of plans to emit.
    pub max_plans: usize,
    /// Maximum predicate-unfolding depth (guards against deep chains).
    pub max_depth: usize,
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
            max_depth: 32,
            favor_parallel: false,
        }
    }
}

/// Enumerates all executable plans for `query` against `program`.
///
/// Returns at least one plan or an error explaining why none exists.
/// `program` is unchecked, so every call pays the program checks and
/// builds the rule index; a caller that plans many queries against one
/// program builds a [`CheckedProgram`] once instead.
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
/// executes the fused, source-side selective call.
pub fn enumerate_plans_with_pushdowns(
    program: &Program,
    query: &Query,
    policy: &CimPolicy,
    config: RewriteConfig,
    pushdowns: &[PushdownRule],
) -> Result<Vec<Plan>> {
    let index = RuleIndex::new(program);
    check_program(program, &index)?;
    search_plans(program, &index, query, policy, config, pushdowns)
}

/// A mediator program with everything the rewriter derives from the
/// program alone computed once, where the program is installed: the
/// verdict of the program checks (mixed definitions, rule validity, and
/// recursion, read off the analyzer's dependency graph) and the rule
/// index the search reads.
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
    verdict: Result<()>,
}

impl CheckedProgram {
    /// Checks and indexes `program`.
    pub fn new(program: Program) -> Self {
        let index = RuleIndex::new(&program);
        let verdict = check_program(&program, &index);
        CheckedProgram {
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
        search_plans(&self.program, &self.index, query, policy, config, pushdowns)
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

/// The plan search itself: what [`enumerate_plans_with_pushdowns`] and
/// [`CheckedProgram::enumerate_plans`] both run once the program checks
/// have passed.
fn search_plans(
    program: &Program,
    index: &RuleIndex,
    query: &Query,
    policy: &CimPolicy,
    config: RewriteConfig,
    pushdowns: &[PushdownRule],
) -> Result<Vec<Plan>> {
    let mut rw = Rewriter {
        program,
        index,
        policy,
        config,
        pushdowns,
        fresh: 0,
        plans: Vec::new(),
    };
    let answer_vars = query.answer_variables();
    let bound = BTreeSet::new();
    if !is_dead(&query.goals, &bound) {
        rw.search(query.goals.clone(), bound, Vec::new(), 0);
    }
    if rw.plans.is_empty() {
        // Ask the analyzer *which* variable/subgoal blocks every ordering,
        // so the error names the culprit instead of guessing.
        let why =
            hermes_analysis::explain_infeasible_query(program, &query.goals).unwrap_or_else(|| {
                "a domain call argument can never become ground, or a \
                 predicate is undefined"
                    .to_string()
            });
        return Err(HermesError::Plan(format!(
            "no executable ordering found for query `{query}`: {why}"
        )));
    }
    let mut plans = rw.plans;
    for p in &mut plans {
        p.answer_vars = answer_vars.clone();
    }
    if config.favor_parallel {
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

/// True when some call in `remaining` has an unbound argument variable that
/// no remaining goal could bind (a call binds its target; a condition or
/// predicate atom, any of its variables): no ordering of it runs every call.
fn is_dead(remaining: &[BodyAtom], bound: &BTreeSet<Arc<str>>) -> bool {
    let could_bind = |v: &Arc<str>| {
        remaining.iter().any(|atom| match atom {
            BodyAtom::In { target, .. } => target.as_var() == Some(v),
            BodyAtom::Pred(p) => p.args.iter().any(|t| t.as_var() == Some(v)),
            BodyAtom::Cond(c) => c.lhs.var_name() == Some(v) || c.rhs.var_name() == Some(v),
        })
    };
    remaining.iter().any(|atom| match atom {
        BodyAtom::In { call, .. } => call
            .args
            .iter()
            .filter_map(Term::as_var)
            .any(|v| !bound.contains(v) && !could_bind(v)),
        _ => false,
    })
}

struct Rewriter<'a> {
    program: &'a Program,
    index: &'a RuleIndex,
    policy: &'a CimPolicy,
    config: RewriteConfig,
    pushdowns: &'a [PushdownRule],
    fresh: u64,
    plans: Vec<Plan>,
}

impl Rewriter<'_> {
    /// DFS over (remaining atoms, bound variables, steps so far).
    fn search(
        &mut self,
        mut remaining: Vec<BodyAtom>,
        mut bound: BTreeSet<Arc<str>>,
        mut steps: Vec<PlanStep>,
        depth: usize,
    ) {
        if self.plans.len() >= self.config.max_plans {
            return;
        }
        // Push every runnable condition down, in textual order, to a
        // fixpoint (assignments may enable further conditions).
        loop {
            let mut advanced = false;
            let mut i = 0;
            while i < remaining.len() {
                if let BodyAtom::Cond(c) = &remaining[i] {
                    if remaining[i].can_run(&bound) {
                        for v in remaining[i].new_bindings(&bound) {
                            bound.insert(v);
                        }
                        steps.push(PlanStep::Cond(c.clone()));
                        remaining.remove(i);
                        advanced = true;
                        continue;
                    }
                }
                i += 1;
            }
            if !advanced {
                break;
            }
        }

        if remaining.is_empty() {
            let plan = Plan {
                steps,
                answer_vars: Vec::new(),
            };
            if !self.plans.contains(&plan) {
                self.plans.push(plan);
            }
            return;
        }

        // Expand rule-defined predicates *eagerly and deterministically*:
        // expansion only inlines body atoms (ordering is decided later at
        // the generator level), so expansion order is irrelevant — and
        // branching on it would make the search exponential in the number
        // of IDB atoms. Only the *rule choice* (access path) branches.
        if let Some(i) = self.expandable(&remaining) {
            let BodyAtom::Pred(atom) = remaining[i].clone() else {
                unreachable!("position matched a Pred");
            };
            self.expand_pred(&atom, i, &remaining, &bound, &steps, depth);
            return;
        }

        // Branch on every executable generator.
        for i in 0..remaining.len() {
            if self.plans.len() >= self.config.max_plans {
                return;
            }
            match &remaining[i] {
                BodyAtom::In { target, call } => {
                    if !remaining[i].can_run(&bound) {
                        continue;
                    }
                    let mut next_remaining = remaining.clone();
                    next_remaining.remove(i);
                    let mut next_bound = bound.clone();
                    if let Some(v) = target.as_var() {
                        next_bound.insert(v.clone());
                    }
                    let route = match self.policy.decide(&call.domain, &call.function) {
                        RoutingDecision::UseCim => Route::Cim,
                        RoutingDecision::Direct => Route::Direct,
                    };
                    let mut next_steps = steps.clone();
                    next_steps.push(PlanStep::Call {
                        target: target.clone(),
                        call: call.clone(),
                        route,
                    });
                    // Selection pushdown (§5): also branch into fused
                    // variants where a condition on this scan's output
                    // moves into the source call.
                    for (fused_call, cond_idx) in
                        self.pushdown_variants(target, call, &remaining, i, &bound)
                    {
                        let mut fused_remaining = remaining.clone();
                        // Remove the higher index first to keep positions
                        // valid, then the lower.
                        let (hi, lo) = if cond_idx > i {
                            (cond_idx, i)
                        } else {
                            (i, cond_idx)
                        };
                        fused_remaining.remove(hi);
                        fused_remaining.remove(lo);
                        let fused_route =
                            match self.policy.decide(&fused_call.domain, &fused_call.function) {
                                RoutingDecision::UseCim => Route::Cim,
                                RoutingDecision::Direct => Route::Direct,
                            };
                        let mut fused_steps = steps.clone();
                        fused_steps.push(PlanStep::Call {
                            target: target.clone(),
                            call: fused_call,
                            route: fused_route,
                        });
                        self.search(fused_remaining, next_bound.clone(), fused_steps, depth);
                    }
                    self.search(next_remaining, next_bound, next_steps, depth);
                }
                BodyAtom::Pred(p) => {
                    // Only fact-defined predicates reach here (rule-defined
                    // ones were eagerly expanded above).
                    let p = p.clone();
                    self.fact_branch(&p, i, &remaining, &bound, &steps, depth);
                }
                BodyAtom::Cond(_) => {} // not runnable yet; a generator must bind more
            }
        }
    }

    /// The first rule-defined predicate atom, expanded before any ordering.
    fn expandable(&self, remaining: &[BodyAtom]) -> Option<usize> {
        remaining.iter().position(|a| {
            matches!(a, BodyAtom::Pred(p)
                if self
                    .index
                    .get(&p.name, p.args.len())
                    .is_some_and(|rules| rules.has_path_rules()))
        })
    }

    /// Finds fusible `(fused call, condition index)` variants for a scan
    /// atom: conditions `op(Target.field, V)` (either orientation) where a
    /// pushdown rule maps `op` to a selective source function and `V` is
    /// ground at this point.
    fn pushdown_variants(
        &self,
        target: &Term,
        call: &CallTemplate,
        remaining: &[BodyAtom],
        call_idx: usize,
        bound: &BTreeSet<Arc<str>>,
    ) -> Vec<(CallTemplate, usize)> {
        let Some(target_var) = target.as_var() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for rule in self.pushdowns {
            if rule.domain != call.domain || rule.scan_function != call.function {
                continue;
            }
            for (j, atom) in remaining.iter().enumerate() {
                if j == call_idx {
                    continue;
                }
                let BodyAtom::Cond(c) = atom else { continue };
                // Orient so the path side references the scan target.
                let oriented = [(c.op, &c.lhs, &c.rhs), (c.op.flipped(), &c.rhs, &c.lhs)];
                for (op, path_side, value_side) in oriented {
                    let Some(fused_fn) = rule.fused.get(&op) else {
                        continue;
                    };
                    // Path side: exactly `Target.field`.
                    if path_side.var_name() != Some(target_var) {
                        continue;
                    }
                    let [PathStep::Field(field)] = path_side.path.steps() else {
                        continue;
                    };
                    // Value side: bare, and ground by now.
                    if !value_side.path.is_empty() {
                        continue;
                    }
                    let groundable = match &value_side.base {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    };
                    if !groundable {
                        continue;
                    }
                    let mut args = call.args.clone();
                    args.push(Term::Const(Value::str(field.as_ref())));
                    args.push(value_side.base.clone());
                    out.push((
                        CallTemplate::new(call.domain.clone(), fused_fn.clone(), args),
                        j,
                    ));
                    break; // one orientation per condition
                }
            }
        }
        out
    }

    /// Expands the rule-defined predicate atom at `remaining[i]`: one
    /// search branch per access-path rule. (Fact-defined predicates are
    /// handled at the generator level, because a fact scan *does* occupy a
    /// position in the execution order.)
    fn expand_pred(
        &mut self,
        atom: &PredAtom,
        i: usize,
        remaining: &[BodyAtom],
        bound: &BTreeSet<Arc<str>>,
        steps: &[PlanStep],
        depth: usize,
    ) {
        if depth >= self.config.max_depth {
            return;
        }
        // The program checks reject mixed definitions before any search,
        // so every definition here is an access-path rule.
        let Some(rules) = self.index.get(&atom.name, atom.args.len()) else {
            return;
        };
        for &pos in rules.rule_positions() {
            if self.plans.len() >= self.config.max_plans {
                return;
            }
            if let Some(new_atoms) = self.instantiate_rule(&self.program.rules[pos], atom) {
                let mut next_remaining = remaining.to_vec();
                next_remaining.remove(i);
                // Inline the rule body where the atom stood, preserving
                // relative order as a heuristic (the search still reorders).
                for (k, a) in new_atoms.into_iter().enumerate() {
                    next_remaining.insert(i + k, a);
                }
                // Prune a dead unfolding once nothing is left to expand:
                // its subtree then renames no variable, so the plans after
                // it keep their names.
                if self.expandable(&next_remaining).is_none() && is_dead(&next_remaining, bound) {
                    continue;
                }
                self.search(next_remaining, bound.clone(), steps.to_vec(), depth + 1);
            }
        }
    }

    /// Emits the fact-scan generator branch for a fact-defined predicate.
    fn fact_branch(
        &mut self,
        atom: &PredAtom,
        i: usize,
        remaining: &[BodyAtom],
        bound: &BTreeSet<Arc<str>>,
        steps: &[PlanStep],
        depth: usize,
    ) {
        let rows = self.index.get(&atom.name, atom.args.len());
        let Some(rows) = rows.and_then(|rules| rules.fact_rows()) else {
            return; // undefined: no plan through this branch
        };
        let mut next_remaining = remaining.to_vec();
        next_remaining.remove(i);
        let mut next_bound = bound.clone();
        for v in atom.variables() {
            next_bound.insert(v);
        }
        let mut next_steps = steps.to_vec();
        next_steps.push(PlanStep::Facts {
            pred: atom.name.clone(),
            args: atom.args.clone(),
            rows: rows.clone(),
        });
        self.search(next_remaining, next_bound, next_steps, depth);
    }

    /// Standardizes a rule apart and unifies its head with `atom`,
    /// returning the instantiated body atoms (plus any equality conditions
    /// induced by repeated or constant head arguments). `None` when the
    /// head cannot match the atom.
    fn instantiate_rule(&mut self, rule: &Rule, atom: &PredAtom) -> Option<Vec<BodyAtom>> {
        self.fresh += 1;
        let suffix = self.fresh;

        // Mapping from rule variables to query-level terms.
        let mut map: BTreeMap<Arc<str>, Term> = BTreeMap::new();
        let mut extra_conditions: Vec<Condition> = Vec::new();
        for (h, q) in rule.head.args.iter().zip(&atom.args) {
            match h {
                Term::Const(c) => match q {
                    Term::Const(d) => {
                        if c != d {
                            return None; // statically incompatible
                        }
                    }
                    Term::Var(_) => extra_conditions.push(Condition::new(
                        Relop::Eq,
                        PathTerm::bare(q.clone()),
                        PathTerm::bare(Term::Const(c.clone())),
                    )),
                },
                Term::Var(hv) => match map.get(hv) {
                    None => {
                        map.insert(hv.clone(), q.clone());
                    }
                    Some(prev) => {
                        if prev != q {
                            extra_conditions.push(Condition::new(
                                Relop::Eq,
                                PathTerm::bare(prev.clone()),
                                PathTerm::bare(q.clone()),
                            ));
                        }
                    }
                },
            }
        }

        // Rename body-local variables apart.
        let rename = |t: &Term, map: &mut BTreeMap<Arc<str>, Term>| -> Term {
            match t {
                Term::Const(_) => t.clone(),
                Term::Var(v) => map
                    .entry(v.clone())
                    .or_insert_with(|| Term::var(format!("{v}#{suffix}")))
                    .clone(),
            }
        };
        let rename_pt = |pt: &PathTerm, map: &mut BTreeMap<Arc<str>, Term>| PathTerm {
            base: rename(&pt.base, map),
            path: pt.path.clone(),
        };

        let mut out: Vec<BodyAtom> = extra_conditions.into_iter().map(BodyAtom::Cond).collect();
        for a in &rule.body {
            out.push(match a {
                BodyAtom::Pred(p) => BodyAtom::Pred(PredAtom::new(
                    p.name.clone(),
                    p.args.iter().map(|t| rename(t, &mut map)).collect(),
                )),
                BodyAtom::In { target, call } => BodyAtom::In {
                    target: rename(target, &mut map),
                    call: CallTemplate::new(
                        call.domain.clone(),
                        call.function.clone(),
                        call.args.iter().map(|t| rename(t, &mut map)).collect(),
                    ),
                },
                BodyAtom::Cond(c) => BodyAtom::Cond(Condition::new(
                    c.op,
                    rename_pt(&c.lhs, &mut map),
                    rename_pt(&c.rhs, &mut map),
                )),
            });
        }
        Some(out)
    }
}

/// The canonical subplan fingerprint of a query's goal conjunction (see
/// [`hermes_analysis::fingerprint`]): the key under which a subplan result
/// cache would file this query's answers. Stable across variable renaming,
/// reordering of independent goals, and symmetric comparison spelling, so
/// the rewriter, the analyzer's `HA070`-series inventory, and any future
/// materialized-view store all speak the same 64-bit keys. Queries start
/// with no bindings (parameter substitution happens in [`bind_query`]
/// first), so the entry-binding seed is empty.
pub fn query_fingerprint(query: &Query) -> SubplanKey {
    fingerprint_body(&query.goals, &BTreeSet::new())
}

/// Substitutes query-level constants into a query before planning: any
/// answer variable bound in `bindings` is replaced by its constant. Used
/// by the mediator to support parameterized queries.
pub fn bind_query(query: &Query, bindings: &Subst) -> Query {
    let sub_term = |t: &Term| match t {
        Term::Var(v) => match bindings.get(v) {
            Some(val) => Term::Const(val.clone()),
            None => t.clone(),
        },
        Term::Const(_) => t.clone(),
    };
    let sub_pt = |pt: &PathTerm| PathTerm {
        base: sub_term(&pt.base),
        path: pt.path.clone(),
    };
    Query::new(
        query
            .goals
            .iter()
            .map(|g| match g {
                BodyAtom::Pred(p) => BodyAtom::Pred(PredAtom::new(
                    p.name.clone(),
                    p.args.iter().map(sub_term).collect(),
                )),
                BodyAtom::In { target, call } => BodyAtom::In {
                    target: sub_term(target),
                    call: CallTemplate::new(
                        call.domain.clone(),
                        call.function.clone(),
                        call.args.iter().map(sub_term).collect(),
                    ),
                },
                BodyAtom::Cond(c) => {
                    BodyAtom::Cond(Condition::new(c.op, sub_pt(&c.lhs), sub_pt(&c.rhs)))
                }
            })
            .collect(),
    )
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

    #[test]
    fn bind_query_substitutes_constants() {
        let q = parse_query("?- m(A, C).").unwrap();
        let bound = bind_query(&q, &Subst::from_pairs([("A", Value::str("a"))]));
        assert_eq!(bound.to_string(), "?- m('a', C).");
    }
}
