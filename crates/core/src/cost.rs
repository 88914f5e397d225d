//! The rule cost estimator (§7): plan cost from per-call DCSM estimates.
//!
//! Under pipelined nested-loops with no duplicate elimination (the paper's
//! assumptions 3(a) and 3(b)), a plan's cost vector combines per-step
//! vectors as
//!
//! ```text
//! T_all   = Σ_i (Π_{j<i} Card_j) · T_all,i
//! T_first = Σ_i T_first,i
//! Card    = Π_i Card_i
//! ```
//!
//! Each call step's `[T_first, T_all, Card]` comes from
//! [`hermes_dcsm::Dcsm::cost`] on the step's call *pattern* (constants stay constants,
//! variables become `$b`). Fact scans are costed exactly; conditions apply
//! a configurable selectivity.

use crate::plan::{independence_groups, Plan, PlanStep};
use hermes_common::{CallPattern, PatArg};
use hermes_dcsm::{overlap_makespan, CostSource, CostVector};
use hermes_lang::{CallTemplate, Relop, Term};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Cost-model knobs.
#[derive(Clone, Copy, Debug)]
pub struct CostConfig {
    /// Cardinality multiplier for a ground comparison acting as a filter.
    /// The paper's formulas ignore filters (selectivity 1.0); a mild
    /// default keeps pushed-down selections from looking free.
    pub filter_selectivity: f64,
    /// Simulated milliseconds per fact row scanned.
    pub fact_row_ms: f64,
    /// Concurrency the executor will grant an independence group. At the
    /// default `1` the estimate is the paper's sequential formula exactly;
    /// `k > 1` charges each group its overlap makespan over `k` virtual
    /// slots instead of the members' sequential sum (cardinalities still
    /// multiply — overlap changes time, not answers).
    pub max_parallel_calls: usize,
    /// Mediator-side milliseconds to put one group call in flight (must
    /// mirror [`ExecConfig::dispatch_overhead_ms`]).
    ///
    /// [`ExecConfig::dispatch_overhead_ms`]: crate::exec::ExecConfig::dispatch_overhead_ms
    pub dispatch_overhead_ms: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            filter_selectivity: 0.4,
            fact_row_ms: 0.002,
            max_parallel_calls: 1,
            dispatch_overhead_ms: 0.05,
        }
    }
}

/// The DCSM call patterns of every call step of `plan`, in step order —
/// the per-execution work a materialized subplan saves
/// ([`CostSource::estimate_subplan_savings`]).
pub(crate) fn plan_patterns(plan: &Plan) -> Vec<CallPattern> {
    plan.steps
        .iter()
        .filter_map(|step| match step {
            PlanStep::Call { call, .. } => Some(step_pattern(call)),
            _ => None,
        })
        .collect()
}

/// The DCSM call pattern of a plan call step: constants stay constants,
/// variables become `$b`.
fn step_pattern(call: &CallTemplate) -> CallPattern {
    CallPattern::new(
        call.domain.clone(),
        call.function.clone(),
        call.args
            .iter()
            .map(|t| match t {
                Term::Const(v) => PatArg::Const(v.clone()),
                Term::Var(_) => PatArg::Bound,
            })
            .collect(),
    )
}

/// The cardinality contribution of a call step, binding its target.
/// Membership probes (ground target) yield at most one extension per
/// input row.
fn step_cardinality(target: &Term, estimated: f64, bound: &mut BTreeSet<Arc<str>>) -> f64 {
    let is_probe = match target {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    };
    let card = if is_probe {
        estimated.min(1.0)
    } else {
        bound.insert(target.as_var().expect("non-probe target is a var").clone());
        estimated
    };
    card.max(0.0)
}

/// True if two call steps ask the DCSM the same pattern: same function,
/// variables at the same positions, and equal constants of the same
/// variant elsewhere (so a source estimator that tells `1` from `1.0`
/// still sees what it was asked).
fn same_pattern(a: &CallTemplate, b: &CallTemplate) -> bool {
    a.domain == b.domain
        && a.function == b.function
        && a.args.len() == b.args.len()
        && a.args.iter().zip(&b.args).all(|pair| match pair {
            (Term::Var(_), Term::Var(_)) => true,
            (Term::Const(x), Term::Const(y)) => {
                std::mem::discriminant(x) == std::mem::discriminant(y) && x == y
            }
            _ => false,
        })
}

/// The §7 estimate for `plan`, as a complete cost vector. Asks the DCSM
/// once per call step; [`choose_plan`] asks once per distinct pattern.
///
/// Generic over the cost source, so a plain `Dcsm` and a `ShardedDcsm`
/// (including `dyn DcsmView`) both plug in unchanged.
pub fn estimate_plan<C: CostSource + ?Sized>(
    plan: &Plan,
    dcsm: &C,
    config: &CostConfig,
) -> CostVector {
    fold_plan(plan, config, |call| dcsm.cost(&step_pattern(call)).vector)
}

/// The §7 fold of `plan`'s steps into one cost vector, with each call
/// step priced by `call_cost` (a complete vector).
fn fold_plan<'p>(
    plan: &'p Plan,
    config: &CostConfig,
    mut call_cost: impl FnMut(&'p CallTemplate) -> CostVector,
) -> CostVector {
    let complete = |v: Option<f64>| v.expect("a DCSM estimate is complete");
    let mut bound: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut t_first = 0.0f64;
    let mut t_all = 0.0f64;
    let mut prefix_card = 1.0f64;
    let groups: HashMap<usize, Range<usize>> = if config.max_parallel_calls > 1 {
        independence_groups(&plan.steps)
            .into_iter()
            .map(|r| (r.start, r))
            .collect()
    } else {
        HashMap::new()
    };

    let mut i = 0;
    while i < plan.steps.len() {
        if let Some(group) = groups.get(&i) {
            // Overlap-aware group charge: the executor dispatches these
            // calls together, so the group costs its makespan over the
            // configured slots — a barrier, hence the same charge toward
            // T_first — while cardinalities multiply exactly as in the
            // sequential formula.
            let entry_card = prefix_card;
            let mut durations = Vec::new();
            for idx in group.clone() {
                let PlanStep::Call { target, call, .. } = &plan.steps[idx] else {
                    continue;
                };
                let est = call_cost(call);
                durations.push(complete(est.t_all_ms));
                prefix_card *= step_cardinality(target, complete(est.cardinality), &mut bound);
            }
            let t_group = overlap_makespan(
                &durations,
                config.max_parallel_calls,
                config.dispatch_overhead_ms,
            );
            t_all += entry_card * t_group;
            t_first += t_group;
            i = group.end;
            continue;
        }
        match &plan.steps[i] {
            PlanStep::Call { target, call, .. } => {
                let est = call_cost(call);
                t_all += prefix_card * complete(est.t_all_ms);
                t_first += complete(est.t_first_ms);
                prefix_card *= step_cardinality(target, complete(est.cardinality), &mut bound);
            }
            PlanStep::Facts { args, rows, .. } => {
                // Exact: count rows compatible with the constant positions.
                let matching = rows
                    .iter()
                    .filter(|row| {
                        args.iter().zip(row.iter()).all(|(t, v)| match t {
                            Term::Const(c) => c == v,
                            Term::Var(_) => true,
                        })
                    })
                    .count() as f64;
                // Bound-variable positions act as probes: estimate with
                // the mean duplication factor per distinct value.
                let mut card = matching;
                for (i, t) in args.iter().enumerate() {
                    if let Term::Var(v) = t {
                        if bound.contains(v) {
                            let distinct: BTreeSet<_> = rows.iter().map(|r| r[i].clone()).collect();
                            if !distinct.is_empty() {
                                card /= distinct.len() as f64;
                            }
                        } else {
                            bound.insert(v.clone());
                        }
                    }
                }
                let scan_ms = rows.len() as f64 * config.fact_row_ms;
                t_all += prefix_card * scan_ms;
                t_first += config.fact_row_ms;
                prefix_card *= card;
            }
            PlanStep::Cond(c) => {
                // An equality with an unbound bare-variable side is an
                // assignment: binds, no cardinality change.
                let mut assigned = false;
                if c.op == Relop::Eq {
                    for pt in [&c.lhs, &c.rhs] {
                        if pt.path.is_empty() {
                            if let Some(v) = pt.var_name() {
                                if !bound.contains(v) {
                                    bound.insert(v.clone());
                                    assigned = true;
                                }
                            }
                        }
                    }
                }
                if !assigned {
                    prefix_card *= config.filter_selectivity;
                }
            }
        }
        i += 1;
    }
    CostVector::full(t_first, t_all, prefix_card)
}

/// Picks the cheapest plan for the given mode: all-answers mode minimizes
/// `T_all`, interactive (first-answer) mode minimizes `T_first`. Returns
/// the winning index and the per-plan estimates.
///
/// The plans of one query share a handful of call patterns, so the DCSM
/// is asked once per distinct pattern, in order of first appearance, and
/// every plan is folded from those answers. The estimates are
/// [`estimate_plan`]'s, bit for bit; one choice also reads each pattern's
/// statistics at one moment, even while other threads record.
pub fn choose_plan<C: CostSource + ?Sized>(
    plans: &[Plan],
    dcsm: &C,
    config: &CostConfig,
    optimize_first_answer: bool,
) -> (usize, Vec<CostVector>) {
    let mut priced: Vec<(&CallTemplate, CostVector)> = Vec::new();
    let mut call_cost = |call| {
        if let Some((_, v)) = priced.iter().find(|(seen, _)| same_pattern(seen, call)) {
            return *v;
        }
        let v = dcsm.cost(&step_pattern(call)).vector;
        priced.push((call, v));
        v
    };
    let estimates: Vec<CostVector> = plans
        .iter()
        .map(|p| fold_plan(p, config, &mut call_cost))
        .collect();
    let key = |v: &CostVector| {
        if optimize_first_answer {
            v.t_first_ms.unwrap_or(f64::MAX)
        } else {
            v.t_all_ms.unwrap_or(f64::MAX)
        }
    };
    let best = estimates
        .iter()
        .enumerate()
        .min_by(|a, b| key(a.1).total_cmp(&key(b.1)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    (best, estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::{enumerate_plans, RewriteConfig};
    use hermes_cim::CimPolicy;
    use hermes_common::{GroundCall, SimInstant, Value};
    use hermes_dcsm::Dcsm;
    use hermes_lang::{parse_program, parse_query};

    /// DCSM warmed with the Example 6.1 statistics.
    fn warmed_dcsm() -> Dcsm {
        let mut d = Dcsm::new();
        let t = SimInstant::EPOCH;
        // d1:p_bf('a'): T_a 2.1, card 3.
        for (ta, card) in [(2.0, 3.0), (2.2, 3.0)] {
            d.record(
                &GroundCall::new("d1", "p_bf", vec![Value::str("a")]),
                Some(1.0),
                Some(ta),
                Some(card),
                t,
            );
        }
        // d2:q_bf($b): T_a ~1.2, card ~2.3.
        for (b, ta, card) in [(1i64, 1.10, 2.0), (2, 1.30, 3.0), (3, 1.15, 2.0)] {
            d.record(
                &GroundCall::new("d2", "q_bf", vec![Value::Int(b)]),
                Some(0.5),
                Some(ta),
                Some(card),
                t,
            );
        }
        // d2:q_ff(): T_a 5.2, card 7.
        for ta in [5.0, 5.4] {
            d.record(
                &GroundCall::new("d2", "q_ff", vec![]),
                Some(2.0),
                Some(ta),
                Some(7.0),
                t,
            );
        }
        // d1:p_bb($b,$b): T_a 0.2, card ~0.75.
        for (ta, card) in [(0.20, 1.0), (0.22, 1.0), (0.21, 1.0), (0.18, 0.0)] {
            d.record(
                &GroundCall::new("d1", "p_bb", vec![Value::str("a"), Value::Int(1)]),
                Some(0.1),
                Some(ta),
                Some(card),
                t,
            );
        }
        d
    }

    fn paper_plans() -> Vec<Plan> {
        let program = parse_program(
            "
            m(A, C) :- p(A, B) & q(B, C).
            p(A, B) :- in(B, d1:p_bf(A)).
            p(A, B) :- in(X, d1:p_bb(A, B)).
            q(B, C) :- in(Ans, d2:q_ff()) & =(Ans.1, B) & =(Ans.2, C).
            q(B, C) :- in(C, d2:q_bf(B)).
            ",
        )
        .unwrap();
        enumerate_plans(
            &program,
            &parse_query("?- m('a', C).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn example_7_1_formula_for_p8() {
        // P8 = p_bf('a') then q_bf($b):
        // T_all = T_a(p_bf('a')) + Card(p_bf('a')) * T_a(q_bf($b))
        //       = 2.1 + 3 * (3.55/3) = 2.1 + 3.55 = 5.65
        let dcsm = warmed_dcsm();
        let plans = paper_plans();
        let p8 = plans
            .iter()
            .find(|p| {
                let t = p.to_string();
                let a = t.find("d1:p_bf('a')");
                let b = t.find("d2:q_bf(");
                matches!((a, b), (Some(x), Some(y)) if x < y) && p.call_count() == 2
            })
            .expect("P8 plan present");
        let est = estimate_plan(p8, &dcsm, &CostConfig::default());
        assert!(
            (est.t_all_ms.unwrap() - 5.65).abs() < 1e-6,
            "got {}",
            est.t_all_ms.unwrap()
        );
        // T_first = 1.0 + 0.5.
        assert!((est.t_first_ms.unwrap() - 1.5).abs() < 1e-6);
        // Card = 3 * (7/3).
        assert!((est.cardinality.unwrap() - 7.0 / 3.0 * 3.0).abs() < 1e-6);
    }

    #[test]
    fn example_7_1_formula_for_p12() {
        // P12 = q_ff() then p_bb('a', $b) (probe):
        // T_all = 5.2 + 7 * 0.2025 = 6.6175
        let dcsm = warmed_dcsm();
        let plans = paper_plans();
        let p12 = plans
            .iter()
            .find(|p| {
                let t = p.to_string();
                let a = t.find("d2:q_ff()");
                let b = t.find("d1:p_bb('a'");
                matches!((a, b), (Some(x), Some(y)) if x < y)
            })
            .expect("P12 plan present");
        let est = estimate_plan(p12, &dcsm, &CostConfig::default());
        assert!(
            (est.t_all_ms.unwrap() - (5.2 + 7.0 * 0.2025)).abs() < 1e-6,
            "got {}",
            est.t_all_ms.unwrap()
        );
    }

    #[test]
    fn choose_plan_picks_cheaper_for_each_mode() {
        let dcsm = warmed_dcsm();
        let plans = paper_plans();
        let (best_all, ests) = choose_plan(&plans, &dcsm, &CostConfig::default(), false);
        // P8 (5.65) beats P12 (6.62) for all-answers.
        let t = plans[best_all].to_string();
        assert!(t.contains("d1:p_bf('a')"), "chose {t}");
        // Estimates vector aligns with plans.
        assert_eq!(ests.len(), plans.len());
        let (best_first, _) = choose_plan(&plans, &dcsm, &CostConfig::default(), true);
        // First-answer mode may pick a different plan; it must be valid.
        assert!(best_first < plans.len());
    }

    #[test]
    fn membership_probe_caps_cardinality() {
        let dcsm = warmed_dcsm();
        let plans = paper_plans();
        let p12 = plans
            .iter()
            .find(|p| p.to_string().contains("d1:p_bb('a'"))
            .unwrap();
        let est = estimate_plan(p12, &dcsm, &CostConfig::default());
        // p_bb is a probe: overall cardinality ≤ q_ff's 7.
        assert!(est.cardinality.unwrap() <= 7.0 + 1e-9);
    }

    #[test]
    fn filters_reduce_cardinality() {
        let program = parse_program("r(B) :- in(B, d1:p_bf('a')) & >(B, 100).").unwrap();
        let plans = enumerate_plans(
            &program,
            &parse_query("?- r(B).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap();
        let dcsm = warmed_dcsm();
        let cfg = CostConfig::default();
        let est = estimate_plan(&plans[0], &dcsm, &cfg);
        assert!((est.cardinality.unwrap() - 3.0 * cfg.filter_selectivity).abs() < 1e-9);
    }

    #[test]
    fn overlap_cost_charges_group_makespan() {
        use crate::plan::Route;
        let dcsm = warmed_dcsm();
        // Two independent calls (constant args, distinct fresh targets).
        let plan = Plan {
            steps: vec![
                PlanStep::Call {
                    target: Term::var("B"),
                    call: CallTemplate::new("d1", "p_bf", vec![Term::constant("a")]),
                    route: Route::Direct,
                },
                PlanStep::Call {
                    target: Term::var("C"),
                    call: CallTemplate::new("d2", "q_ff", vec![]),
                    route: Route::Direct,
                },
            ],
            answer_vars: vec![Arc::from("B"), Arc::from("C")],
        };
        let seq = estimate_plan(&plan, &dcsm, &CostConfig::default());
        // Sequential §7 formula: 2.1 + 3 · 5.2 = 17.7.
        assert!((seq.t_all_ms.unwrap() - 17.7).abs() < 1e-6);
        let par_cfg = CostConfig {
            max_parallel_calls: 2,
            dispatch_overhead_ms: 0.0,
            ..CostConfig::default()
        };
        let par = estimate_plan(&plan, &dcsm, &par_cfg);
        // Overlapped: the group costs max(2.1, 5.2) = 5.2.
        assert!(
            (par.t_all_ms.unwrap() - 5.2).abs() < 1e-6,
            "got {:?}",
            par.t_all_ms
        );
        // Overlap changes time, not answers.
        assert!((par.cardinality.unwrap() - seq.cardinality.unwrap()).abs() < 1e-9);
        // Dispatch overhead is charged per call.
        let with_overhead = CostConfig {
            max_parallel_calls: 2,
            dispatch_overhead_ms: 0.5,
            ..CostConfig::default()
        };
        let est = estimate_plan(&plan, &dcsm, &with_overhead);
        assert!((est.t_all_ms.unwrap() - 5.7).abs() < 1e-6);
    }

    #[test]
    fn unknown_calls_fall_back_to_prior() {
        let program = parse_program("r(B) :- in(B, dx:mystery_bf('z')).").unwrap();
        let plans = enumerate_plans(
            &program,
            &parse_query("?- r(B).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap();
        let dcsm = Dcsm::new();
        let est = estimate_plan(&plans[0], &dcsm, &CostConfig::default());
        assert_eq!(est.t_all_ms.unwrap(), 1_000.0); // the default prior
    }
}
