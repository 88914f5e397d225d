//! Summary-table maintenance: which dimensions are worth keeping, and
//! which tables are worth materializing (§6.2.2).
//!
//! Two mechanisms from the paper:
//!
//! * [`droppable_dimensions`] — "a procedure that inspects the given
//!   mediator program and decides which attributes may ever be
//!   instantiated to a specific constant during the rewriting phase"; all
//!   other dimensions can be dropped losslessly *for that workload*.
//! * [`AccessTracker`] — "watch the access patterns for the tables and
//!   decide which tables are needed very frequently … alternatively, drop
//!   the tables that are not accessed very often."

use crate::vectordb::with_stack_slice;
use hermes_common::{CallPattern, PatArg, PatternShape};
use hermes_lang::{BodyAtom, Program, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// Computes, for `domain:function/arity`, which argument positions can
/// ever be a *known constant* at planning time in `program` (Example 6.2).
///
/// A planning-time constant originates either from a literal in a rule or
/// from the user's query — but a query can only instantiate *exported*
/// predicates (those no rule body uses; `p` and `q` in (M1) are "hidden
/// from the user"). Constant-instantiability is propagated top-down from
/// exported predicate positions through rule heads into bodies with a
/// fixpoint. The returned mask is the dimension set worth keeping
/// (`true` = keep); every `false` position can be dropped from summaries
/// without ever being missed by the cost estimator.
pub fn droppable_dimensions(
    program: &Program,
    domain: &str,
    function: &str,
    arity: usize,
) -> Vec<bool> {
    use std::collections::{BTreeMap, BTreeSet};

    // Predicate identity → set of head positions (0-based) that can be a
    // known constant at planning time.
    type Key = (std::sync::Arc<str>, usize);
    let defined: BTreeSet<Key> = program.defined_predicates().into_iter().collect();
    let used_in_bodies: BTreeSet<Key> = program
        .rules
        .iter()
        .flat_map(|r| r.body.iter())
        .filter_map(|a| match a {
            BodyAtom::Pred(p) => Some(p.key()),
            _ => None,
        })
        .collect();

    let mut instantiable: BTreeMap<Key, BTreeSet<usize>> = BTreeMap::new();
    // Exported predicates: defined but never used in a body. The query can
    // put constants in any of their positions.
    for key in &defined {
        if !used_in_bodies.contains(key) {
            instantiable.insert(key.clone(), (0..key.1).collect());
        }
    }

    let mut keep = vec![false; arity];
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &program.rules {
            // Variables of this rule that can be planning-time constants:
            // head variables at instantiable positions.
            let head_positions = instantiable
                .get(&rule.head.key())
                .cloned()
                .unwrap_or_default();
            let const_vars: BTreeSet<_> = rule
                .head
                .args
                .iter()
                .enumerate()
                .filter(|(i, _)| head_positions.contains(i))
                .filter_map(|(_, t)| t.as_var().cloned())
                .collect();
            for atom in &rule.body {
                match atom {
                    BodyAtom::Pred(p) => {
                        for (i, arg) in p.args.iter().enumerate() {
                            let inst = match arg {
                                Term::Const(_) => true,
                                Term::Var(v) => const_vars.contains(v),
                            };
                            if inst && instantiable.entry(p.key()).or_default().insert(i) {
                                changed = true;
                            }
                        }
                    }
                    BodyAtom::In { call, .. } => {
                        if call.domain.as_ref() != domain
                            || call.function.as_ref() != function
                            || call.args.len() != arity
                        {
                            continue;
                        }
                        for (i, arg) in call.args.iter().enumerate() {
                            let inst = match arg {
                                Term::Const(_) => true,
                                Term::Var(v) => const_vars.contains(v),
                            };
                            if inst && !keep[i] {
                                keep[i] = true;
                                changed = true;
                            }
                        }
                    }
                    BodyAtom::Cond(_) => {}
                }
            }
        }
    }
    keep
}

/// Counts cost-estimator lookups per pattern shape, to drive table
/// creation/dropping decisions.
///
/// A lookup is one [`Dcsm::cost`](crate::Dcsm::cost) call. The planner
/// prices each distinct call pattern once per plan choice, so a shape is
/// counted once per choice that asks for it, however many of the choice's
/// plans contain it.
#[derive(Clone, Debug, Default)]
pub struct AccessTracker {
    /// Lookups by domain, then function, then constant mask — nested so
    /// that a shape seen before is found from a pattern's borrowed parts.
    counts: HashMap<Arc<str>, HashMap<Arc<str>, MaskCounts>>,
}

/// One function's lookups per constant mask.
type MaskCounts = HashMap<Vec<bool>, u64>;

impl AccessTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        AccessTracker::default()
    }

    /// Notes one lookup of `pattern`; allocates only for a shape it has
    /// not seen.
    pub fn touch(&mut self, pattern: &CallPattern) {
        let mask = || pattern.args.iter().map(|a| matches!(a, PatArg::Const(_)));
        let masks = self
            .counts
            .get_mut(&pattern.domain)
            .and_then(|functions| functions.get_mut(&pattern.function));
        if let Some(masks) = masks {
            let seen = with_stack_slice(mask(), || false, |key| masks.get_mut(key));
            if let Some(count) = seen {
                *count += 1;
                return;
            }
        }
        let masks = self.counts.entry(pattern.domain.clone()).or_default();
        let counts = masks.entry(pattern.function.clone()).or_default();
        *counts.entry(mask().collect()).or_default() += 1;
    }

    /// Lookups recorded for a shape.
    pub fn count(&self, shape: &PatternShape) -> u64 {
        self.counts
            .get(&shape.domain)
            .and_then(|functions| functions.get(&shape.function))
            .and_then(|masks| masks.get(&shape.const_mask))
            .copied()
            .unwrap_or(0)
    }

    /// Shapes with at least `min_count` lookups, hottest first — the
    /// candidates worth materializing as summary tables.
    pub fn hot_shapes(&self, min_count: u64) -> Vec<(PatternShape, u64)> {
        let mut v = Vec::new();
        for (domain, functions) in &self.counts {
            for (function, masks) in functions {
                for (mask, &c) in masks.iter().filter(|(_, c)| **c >= min_count) {
                    let shape = PatternShape::new(domain.clone(), function.clone(), mask.clone());
                    v.push((shape, c));
                }
            }
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Of `existing` table shapes, those colder than `min_count` —
    /// candidates to drop.
    pub fn cold_shapes<'a>(
        &self,
        existing: impl Iterator<Item = &'a PatternShape>,
        min_count: u64,
    ) -> Vec<PatternShape> {
        existing
            .filter(|s| self.count(s) < min_count)
            .cloned()
            .collect()
    }

    /// Clears all counters (e.g. per maintenance epoch).
    pub fn reset(&mut self) {
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::PatArg;
    use hermes_common::Value;
    use hermes_lang::parse_program;

    #[test]
    fn example_6_2_b_is_droppable() {
        // In (M1), q_bf's only argument is the join variable B, which is
        // "hidden" (never in a head) — so it can never be a planning-time
        // constant and its dimension can be dropped.
        let program = parse_program(
            "
            m(A, C) :- p(A, B) & q(B, C).
            p(A, B) :- in(B, d1:p_bf(A)).
            q(B, C) :- in(C, d2:q_bf(B)).
            ",
        )
        .unwrap();
        let keep = droppable_dimensions(&program, "d2", "q_bf", 1);
        assert_eq!(keep, vec![false]);
        // p_bf's argument is A, a head variable: the query can bind it to
        // a known constant, so it must stay a dimension.
        let keep_p = droppable_dimensions(&program, "d1", "p_bf", 1);
        assert_eq!(keep_p, vec![true]);
    }

    #[test]
    fn constants_in_rules_keep_dimensions() {
        let program = parse_program(
            "r(X) :- in(X, video:frames_to_objects('rope', First, Last)) & p(First, Last).
             p(F, L) :- in(F, d:f()) & in(L, d:f()).",
        )
        .unwrap();
        let keep = droppable_dimensions(&program, "video", "frames_to_objects", 3);
        // 'rope' is a literal constant; First/Last are body-local.
        assert_eq!(keep, vec![true, false, false]);
    }

    #[test]
    fn unknown_function_keeps_nothing() {
        let program = parse_program("p('a').").unwrap();
        assert_eq!(
            droppable_dimensions(&program, "d", "f", 2),
            vec![false, false]
        );
    }

    #[test]
    fn tracker_counts_and_ranks() {
        let mut t = AccessTracker::new();
        let hot = CallPattern::new("d", "f", vec![PatArg::Const(Value::Int(1))]);
        let cold = CallPattern::new("d", "g", vec![PatArg::Bound]);
        for _ in 0..5 {
            t.touch(&hot);
        }
        t.touch(&cold);
        assert_eq!(t.count(&hot.shape()), 5);
        let ranked = t.hot_shapes(2);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].1, 5);
        let existing = [hot.shape(), cold.shape()];
        let colds = t.cold_shapes(existing.iter(), 2);
        assert_eq!(colds, vec![cold.shape()]);
        t.reset();
        assert_eq!(t.count(&hot.shape()), 0);
    }
}
