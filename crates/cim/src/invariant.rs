//! Invariant matching against the cache (§4.1, the θ machinery).
//!
//! Given a concrete call `C` and an invariant `Cond ⇒ DC1 R DC2`, the
//! manager can use the invariant in *both* directions:
//!
//! * unify `C` with `DC1` (relation read as written), or
//! * unify `C` with `DC2` (relation flipped).
//!
//! After unifying with one side (substitution θ₁), the other side's
//! template is matched against the cache: any entry whose call unifies
//! (extending θ₁ to θ₂) and whose fully-instantiated condition holds is a
//! hit. The relation then says what the cached answers *are* for `C`:
//! identical (`=`), a subset (`⊇` toward the cached side), or a superset
//! (`⊆`, unusable for sound answers and therefore only counted).
//!
//! ## Indexing (DESIGN.md §11)
//!
//! Matching never iterates the whole cache. At [`InvariantStore::add`]
//! time each usable direction is bucketed by the `(domain, function)` of
//! its *own* side (the side the probe call unifies with) and classified
//! into a probe plan against the *other* side:
//!
//! * **Ground** — the other side has no free variables once θ₁ is known:
//!   one exact cache probe (the paper's `range(…, 142)` equality).
//! * **Monotone** — exactly one free variable at one argument position,
//!   constrained by at most one `<`/`≤`/`>`/`≥`/`=` condition: a range
//!   probe against the cache's ordered index for that position (posting
//!   list fallback when no index is registered).
//! * **Posting** — anything else: scan only the cached calls of the other
//!   side's `(domain, function)` posting list.
//!
//! `InvariantStore::find_hits_naive` / `InvariantStore::substitutes_naive`
//! (built only with the `spec` feature, and for this crate's tests) retain
//! the full-scan reference semantics; equivalence tests assert the indexed
//! paths return identical hit sets.

use crate::cache::AnswerCache;
use hermes_common::GroundCall;
use hermes_lang::{CallTemplate, InvRel, Invariant, Relop, Subst};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// One way the cache can serve a call through an invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantHit {
    /// A cached call with an answer set *equal* to the wanted call's.
    Equal {
        /// The cached call to read.
        cached: GroundCall,
        /// Index of the invariant that proved it.
        invariant: usize,
    },
    /// A cached call whose answers are a *subset* of the wanted call's —
    /// a fast partial answer (§4.1 step 3).
    Partial {
        /// The cached call to read.
        cached: GroundCall,
        /// Index of the invariant that proved it.
        invariant: usize,
    },
}

impl InvariantHit {
    /// The cached call this hit reads.
    pub fn cached(&self) -> &GroundCall {
        match self {
            InvariantHit::Equal { cached, .. } | InvariantHit::Partial { cached, .. } => cached,
        }
    }

    /// True for [`InvariantHit::Equal`].
    pub fn is_equal(&self) -> bool {
        matches!(self, InvariantHit::Equal { .. })
    }
}

/// A comparison a free variable's value range can be probed with (every
/// [`Relop`] except `!=`, whose complement is not contiguous).
#[derive(Clone, Copy, Debug)]
enum RangeOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

impl RangeOp {
    fn from_relop(op: Relop) -> Option<RangeOp> {
        match op {
            Relop::Lt => Some(RangeOp::Lt),
            Relop::Le => Some(RangeOp::Le),
            Relop::Gt => Some(RangeOp::Gt),
            Relop::Ge => Some(RangeOp::Ge),
            Relop::Eq => Some(RangeOp::Eq),
            Relop::Ne => None,
        }
    }
}

/// The single range condition of a monotone probe, normalized so it reads
/// `candidate-pivot op bound`.
#[derive(Clone, Copy, Debug)]
struct RangeCond {
    /// Index into the invariant's condition list.
    index: usize,
    /// Normalized comparison (pivot on the left).
    op: RangeOp,
    /// True when the bound expression is the condition's *lhs* (the bare
    /// free variable sat on the rhs and the comparison was flipped).
    bound_on_lhs: bool,
}

/// Probe plan for the free variable of a monotone direction.
#[derive(Clone, Debug)]
struct MonotonePlan {
    /// Argument position of the free variable in the other side's template.
    pos: usize,
    /// The range condition over that variable; `None` means unconstrained
    /// (the whole ordered group qualifies).
    cond: Option<RangeCond>,
}

/// How a direction probes the cache for candidates of its other side.
#[derive(Clone, Debug)]
enum ProbePlan {
    /// No free variables: the other side grounds to a single call.
    Ground,
    /// One free variable at one position: ordered-index range probe.
    Monotone(MonotonePlan),
    /// General shape: scan the `(domain, function)` posting list.
    Posting,
}

/// One usable direction of one invariant, bucketed under its own side's
/// `(domain, function)`. Directions whose effective relation is `⊆` are
/// never stored (unusable for sound answers).
#[derive(Clone, Debug)]
struct Direction {
    /// Index of the invariant in the store.
    inv: usize,
    /// True when the own (probe) side is the invariant's lhs.
    own_is_lhs: bool,
    /// Effective relation after any flip.
    rel: InvRel,
    /// How to find candidate cached calls for the other side.
    plan: ProbePlan,
}

impl Direction {
    /// `(own, other)` templates of this direction.
    fn sides<'a>(&self, inv: &'a Invariant) -> (&'a CallTemplate, &'a CallTemplate) {
        if self.own_is_lhs {
            (&inv.lhs, &inv.rhs)
        } else {
            (&inv.rhs, &inv.lhs)
        }
    }
}

/// The invariant store plus its matching algorithms.
#[derive(Clone, Debug, Default)]
pub struct InvariantStore {
    invariants: Vec<Invariant>,
    /// Usable directions bucketed by the own side's `(domain, function)`,
    /// in `(invariant index, lhs-first)` order within each bucket.
    directions: HashMap<Arc<str>, HashMap<Arc<str>, Vec<Direction>>>,
}

impl InvariantStore {
    /// An empty store.
    pub fn new() -> Self {
        InvariantStore::default()
    }

    /// Adds a validated invariant and returns its index. Both directions
    /// are classified and bucketed here, so later lookups probe only the
    /// directions whose own side matches the call's `(domain, function)`.
    pub fn add(&mut self, inv: Invariant) -> hermes_common::Result<usize> {
        hermes_lang::validate_invariant(&inv)?;
        let idx = self.invariants.len();
        for (own_is_lhs, own, other, rel) in [
            (true, &inv.lhs, &inv.rhs, inv.rel),
            (false, &inv.rhs, &inv.lhs, inv.rel.flipped()),
        ] {
            // ⊆ toward the cached side means the cached answers are a
            // superset of the wanted set — not soundly usable, never stored.
            if rel == InvRel::Subset {
                continue;
            }
            let plan = Self::classify(&inv, own, other);
            self.directions
                .entry(own.domain.clone())
                .or_default()
                .entry(own.function.clone())
                .or_default()
                .push(Direction {
                    inv: idx,
                    own_is_lhs,
                    rel,
                    plan,
                });
        }
        self.invariants.push(inv);
        Ok(idx)
    }

    /// The ordered-index registrations the cache needs for this store's
    /// monotone directions: `(domain, function, position)` of each other
    /// side probed by value range. [`crate::Cim::add_invariant`] forwards
    /// these to [`AnswerCache::register_ordered_index`].
    pub fn ordered_index_specs(&self) -> Vec<(Arc<str>, Arc<str>, usize)> {
        let mut specs = Vec::new();
        for by_fn in self.directions.values() {
            for dirs in by_fn.values() {
                for d in dirs {
                    if let ProbePlan::Monotone(plan) = &d.plan {
                        let (_, other) = d.sides(&self.invariants[d.inv]);
                        specs.push((other.domain.clone(), other.function.clone(), plan.pos));
                    }
                }
            }
        }
        specs
    }

    /// The stored invariants.
    pub fn all(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Number of stored invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// True if no invariants are stored.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Finds every way the cache can serve `call` through an invariant.
    /// `Equal` hits sort before `Partial` hits; among equals, more recent
    /// cache entries first. Probes only the bucketed directions for the
    /// call's `(domain, function)` — never the whole cache.
    pub fn find_hits(&self, call: &GroundCall, cache: &AnswerCache) -> Vec<InvariantHit> {
        let mut hits = Vec::new();
        for d in self.directions_for(call) {
            let inv = &self.invariants[d.inv];
            let (own, other) = d.sides(inv);
            let Some(theta1) = Subst::new().match_call(own, call) else {
                continue;
            };
            let probe = Probe {
                inv,
                d,
                other,
                theta1: &theta1,
                cache,
                call,
            };
            match &d.plan {
                ProbePlan::Ground => probe.ground(&mut hits),
                ProbePlan::Monotone(plan) => probe.monotone(plan, &mut hits),
                ProbePlan::Posting => probe.postings(&mut hits),
            }
        }
        Self::sort_hits(&mut hits, cache);
        hits
    }

    /// The full-scan reference implementation of [`InvariantStore::find_hits`]:
    /// a *single* pass over the cache evaluates every applicable invariant
    /// direction per entry (equality and partial hits are collected
    /// together; the final sort orders them). Kept for the equivalence
    /// tests and as the executable specification of the indexed path.
    #[cfg(any(test, feature = "spec"))]
    pub fn find_hits_naive(&self, call: &GroundCall, cache: &AnswerCache) -> Vec<InvariantHit> {
        // Unify the call with each usable direction once, up front.
        let mut dirs = Vec::new();
        for (idx, inv) in self.invariants.iter().enumerate() {
            for (own, other, rel) in [
                (&inv.lhs, &inv.rhs, inv.rel),
                (&inv.rhs, &inv.lhs, inv.rel.flipped()),
            ] {
                if rel == InvRel::Subset {
                    continue;
                }
                if let Some(theta1) = Subst::new().match_call(own, call) {
                    dirs.push((idx, inv, other, rel, theta1));
                }
            }
        }
        let mut hits = Vec::new();
        for (cached_call, entry) in cache.iter() {
            if cached_call == call {
                continue; // exact hits are handled before invariants
            }
            for (idx, inv, other, rel, theta1) in &dirs {
                let Some(theta2) = theta1.match_call(other, cached_call) else {
                    continue;
                };
                if !inv
                    .conditions
                    .iter()
                    .all(|c| theta2.eval_condition(c) == Some(true))
                {
                    continue;
                }
                Self::push_hit(*rel, entry.complete, cached_call, *idx, &mut hits);
            }
        }
        Self::sort_hits(&mut hits, cache);
        hits
    }

    /// Equality invariants whose *other* side becomes fully ground under
    /// the match — candidate substitute calls that could be executed
    /// instead of `call` (the paper's range-shrinking example). The
    /// returned calls are distinct from `call` itself.
    pub fn substitutes(&self, call: &GroundCall) -> Vec<GroundCall> {
        let mut out = Vec::new();
        for d in self.directions_for(call) {
            if d.rel != InvRel::Equal {
                continue;
            }
            let inv = &self.invariants[d.inv];
            let (own, other) = d.sides(inv);
            let Some(theta) = Subst::new().match_call(own, call) else {
                continue;
            };
            // All conditions must be decidable and true under θ alone.
            if !inv
                .conditions
                .iter()
                .all(|c| theta.eval_condition(c) == Some(true))
            {
                continue;
            }
            if let Some(sub) = theta.ground_call(other) {
                if &sub != call && !out.contains(&sub) {
                    out.push(sub);
                }
            }
        }
        out
    }

    /// The all-invariants reference implementation of
    /// [`InvariantStore::substitutes`], kept for the equivalence tests.
    #[cfg(any(test, feature = "spec"))]
    pub fn substitutes_naive(&self, call: &GroundCall) -> Vec<GroundCall> {
        let mut out = Vec::new();
        for inv in &self.invariants {
            if inv.rel != InvRel::Equal {
                continue;
            }
            for (own, other) in [(&inv.lhs, &inv.rhs), (&inv.rhs, &inv.lhs)] {
                let Some(theta) = Subst::new().match_call(own, call) else {
                    continue;
                };
                if !inv
                    .conditions
                    .iter()
                    .all(|c| theta.eval_condition(c) == Some(true))
                {
                    continue;
                }
                if let Some(sub) = theta.ground_call(other) {
                    if &sub != call && !out.contains(&sub) {
                        out.push(sub);
                    }
                }
            }
        }
        out
    }

    /// Directions bucketed under the call's `(domain, function)`.
    fn directions_for(&self, call: &GroundCall) -> impl Iterator<Item = &Direction> {
        self.directions
            .get(call.domain.as_ref())
            .and_then(|m| m.get(call.function.as_ref()))
            .into_iter()
            .flatten()
    }

    /// Classifies how a direction's other side can be probed.
    fn classify(inv: &Invariant, own: &CallTemplate, other: &CallTemplate) -> ProbePlan {
        let own_vars = own.variables();
        let other_vars = other.variables();
        let free: Vec<Arc<str>> = other_vars.difference(&own_vars).cloned().collect();
        if free.is_empty() {
            return ProbePlan::Ground;
        }
        if free.len() > 1 {
            return ProbePlan::Posting;
        }
        let var = &free[0];
        let positions: Vec<usize> = other
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (t.as_var() == Some(var)).then_some(i))
            .collect();
        // A repeated free variable cannot be probed through one position.
        if positions.len() != 1 {
            return ProbePlan::Posting;
        }
        let pos = positions[0];
        let mut cond: Option<RangeCond> = None;
        for (ci, c) in inv.conditions.iter().enumerate() {
            if !c.variables().contains(var) {
                continue;
            }
            if cond.is_some() {
                // Two conditions over the free variable: not one range.
                return ProbePlan::Posting;
            }
            let lhs_var = c.lhs.var_name() == Some(var);
            let rhs_var = c.rhs.var_name() == Some(var);
            let (raw_op, bound_on_lhs, var_side) = match (lhs_var, rhs_var) {
                (true, false) => (c.op, false, &c.lhs),
                (false, true) => (c.op.flipped(), true, &c.rhs),
                // The variable on both sides of one comparison.
                _ => return ProbePlan::Posting,
            };
            // An attribute path on the variable breaks monotonicity in the
            // pivot value's total order.
            if !var_side.path.is_empty() {
                return ProbePlan::Posting;
            }
            let Some(op) = RangeOp::from_relop(raw_op) else {
                return ProbePlan::Posting;
            };
            cond = Some(RangeCond {
                index: ci,
                op,
                bound_on_lhs,
            });
        }
        ProbePlan::Monotone(MonotonePlan { pos, cond })
    }

    /// Builds the hit for an effective relation (only complete entries can
    /// prove `Equal`; incomplete ones still give a sound partial answer)
    /// and appends it if new.
    fn push_hit(
        rel: InvRel,
        complete: bool,
        cached: &GroundCall,
        invariant: usize,
        hits: &mut Vec<InvariantHit>,
    ) {
        let hit = match rel {
            InvRel::Equal if complete => InvariantHit::Equal {
                cached: cached.clone(),
                invariant,
            },
            // An equality proof over an incomplete entry still gives a
            // sound subset of the answers.
            InvRel::Equal | InvRel::Superset => InvariantHit::Partial {
                cached: cached.clone(),
                invariant,
            },
            InvRel::Subset => return,
        };
        if !hits.contains(&hit) {
            hits.push(hit);
        }
    }

    /// Equal hits first; break ties by freshness.
    fn sort_hits(hits: &mut [InvariantHit], cache: &AnswerCache) {
        hits.sort_by_key(|h| {
            let fresh = cache
                .peek(h.cached())
                .map(|e| u64::MAX - e.inserted_at.as_micros())
                .unwrap_or(u64::MAX);
            (!h.is_equal() as u8, fresh)
        });
    }
}

/// One direction of one invariant, matched against the probed call: what
/// each probe plan reads.
#[derive(Clone, Copy)]
struct Probe<'a> {
    inv: &'a Invariant,
    d: &'a Direction,
    /// The direction's other side, whose cached calls may serve `call`.
    other: &'a CallTemplate,
    /// The bindings from matching the own side against `call`.
    theta1: &'a Subst,
    cache: &'a AnswerCache,
    call: &'a GroundCall,
}

impl Probe<'_> {
    /// Ground plan: the other side instantiates to exactly one call.
    fn ground(&self, hits: &mut Vec<InvariantHit>) {
        let Probe {
            inv,
            d,
            other,
            theta1,
            cache,
            call,
        } = *self;
        // θ₂ = θ₁ here (matching a fully-determined template binds nothing
        // new), so the conditions are decidable already.
        if !inv
            .conditions
            .iter()
            .all(|c| theta1.eval_condition(c) == Some(true))
        {
            return;
        }
        let Some(target) = theta1.ground_call(other) else {
            return;
        };
        if &target == call {
            return; // exact hits are handled before invariants
        }
        if let Some(entry) = cache.peek(&target) {
            InvariantStore::push_hit(d.rel, entry.complete, &target, d.inv, hits);
        }
    }

    /// Monotone plan: range-probe the ordered index for the free variable's
    /// position; falls back to the posting list when no index is registered.
    fn monotone(&self, plan: &MonotonePlan, hits: &mut Vec<InvariantHit>) {
        let Probe {
            inv,
            d,
            other,
            theta1,
            cache,
            call,
        } = *self;
        // Ground every non-pivot position of the other template.
        let mut rest = Vec::with_capacity(other.args.len().saturating_sub(1));
        for (i, t) in other.args.iter().enumerate() {
            if i == plan.pos {
                continue;
            }
            match theta1.term(t) {
                Some(v) => rest.push(v),
                // Defensive: a non-pivot position failed to ground (should
                // be impossible for a classified monotone direction).
                None => {
                    self.postings(hits);
                    return;
                }
            }
        }
        // Conditions not involving the pivot must hold under θ₁ alone; they
        // are identical for every candidate.
        for (ci, c) in inv.conditions.iter().enumerate() {
            if plan.cond.is_some_and(|rc| rc.index == ci) {
                continue;
            }
            if theta1.eval_condition(c) != Some(true) {
                return;
            }
        }
        // Resolve the range bound. An unresolvable bound means the range
        // condition is undecidable for every candidate: no hits.
        let range = match &plan.cond {
            None => None,
            Some(rc) => {
                let c = &inv.conditions[rc.index];
                let side = if rc.bound_on_lhs { &c.lhs } else { &c.rhs };
                match theta1.path_term(side) {
                    Some(bound) => Some((rc.op, bound)),
                    None => return,
                }
            }
        };
        match cache.ordered_group(&other.domain, &other.function, plan.pos, &rest) {
            // No ordered index registered at this position: posting scan.
            None => self.postings(hits),
            Some(None) => {}
            Some(Some(group)) => {
                let candidates: Box<dyn Iterator<Item = &GroundCall>> = match &range {
                    None => Box::new(group.values()),
                    Some((op, b)) => match op {
                        RangeOp::Eq => Box::new(group.get(b).into_iter()),
                        RangeOp::Lt => Box::new(
                            group
                                .range((Bound::Unbounded, Bound::Excluded(b.clone())))
                                .map(|(_, c)| c),
                        ),
                        RangeOp::Le => Box::new(
                            group
                                .range((Bound::Unbounded, Bound::Included(b.clone())))
                                .map(|(_, c)| c),
                        ),
                        RangeOp::Gt => Box::new(
                            group
                                .range((Bound::Excluded(b.clone()), Bound::Unbounded))
                                .map(|(_, c)| c),
                        ),
                        RangeOp::Ge => Box::new(
                            group
                                .range((Bound::Included(b.clone()), Bound::Unbounded))
                                .map(|(_, c)| c),
                        ),
                    },
                };
                for cached_call in candidates {
                    if cached_call == call {
                        continue;
                    }
                    if let Some(entry) = cache.peek(cached_call) {
                        InvariantStore::push_hit(d.rel, entry.complete, cached_call, d.inv, hits);
                    }
                }
            }
        }
    }

    /// Posting plan (and fallback): scan only the cached calls of the other
    /// side's `(domain, function)`.
    fn postings(&self, hits: &mut Vec<InvariantHit>) {
        let Probe {
            inv,
            d,
            other,
            theta1,
            cache,
            call,
        } = *self;
        for cached_call in cache.calls_for(&other.domain, &other.function) {
            if cached_call == call {
                continue;
            }
            let Some(theta2) = theta1.match_call(other, cached_call) else {
                continue;
            };
            if !inv
                .conditions
                .iter()
                .all(|c| theta2.eval_condition(c) == Some(true))
            {
                continue;
            }
            if let Some(entry) = cache.peek(cached_call) {
                InvariantStore::push_hit(d.rel, entry.complete, cached_call, d.inv, hits);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{SimInstant, Value};
    use hermes_lang::parse_invariant;

    fn lt_call(v: i64) -> GroundCall {
        GroundCall::new(
            "rel",
            "select_lt",
            vec![Value::str("inv"), Value::str("qty"), Value::Int(v)],
        )
    }

    fn store_with_monotone_invariant() -> InvariantStore {
        let mut s = InvariantStore::new();
        s.add(
            parse_invariant("V1 <= V2 => rel:select_lt(T, A, V2) >= rel:select_lt(T, A, V1).")
                .unwrap(),
        )
        .unwrap();
        s
    }

    /// Registers the store's ordered indexes on a cache (what
    /// `Cim::add_invariant` does), so tests exercise the indexed path.
    fn indexed_cache(s: &InvariantStore) -> AnswerCache {
        let mut cache = AnswerCache::new();
        for (d, f, pos) in s.ordered_index_specs() {
            cache.register_ordered_index(d, f, pos);
        }
        cache
    }

    #[test]
    fn superset_invariant_gives_partial_hit_for_wider_call() {
        let s = store_with_monotone_invariant();
        let mut cache = indexed_cache(&s);
        cache.insert(lt_call(10), vec![Value::Int(1)], true, SimInstant::EPOCH);
        // Wanted: select_lt(..., 99). Cached lt(10) ⊆ lt(99): partial.
        let hits = s.find_hits(&lt_call(99), &cache);
        assert_eq!(hits.len(), 1);
        assert!(matches!(&hits[0], InvariantHit::Partial { cached, .. } if *cached == lt_call(10)));
        assert_eq!(hits, s.find_hits_naive(&lt_call(99), &cache));
    }

    #[test]
    fn narrower_call_cannot_use_wider_cache_entry() {
        let s = store_with_monotone_invariant();
        let mut cache = indexed_cache(&s);
        cache.insert(lt_call(99), vec![Value::Int(1)], true, SimInstant::EPOCH);
        // Wanted lt(10) ⊆ cached lt(99): superset direction, unusable.
        let hits = s.find_hits(&lt_call(10), &cache);
        assert!(hits.is_empty());
        assert!(s.find_hits_naive(&lt_call(10), &cache).is_empty());
    }

    #[test]
    fn condition_violation_blocks_hit() {
        let s = store_with_monotone_invariant();
        let mut cache = indexed_cache(&s);
        cache.insert(lt_call(10), vec![Value::Int(1)], true, SimInstant::EPOCH);
        // Same value: V1 <= V2 holds with equality — hit expected for 10.
        // But the exact call is skipped by invariant scanning.
        assert!(s.find_hits(&lt_call(10), &cache).is_empty());
    }

    #[test]
    fn monotone_probe_without_registered_index_falls_back() {
        // A plain cache (no ordered index): the posting list answers.
        let s = store_with_monotone_invariant();
        let mut cache = AnswerCache::new();
        cache.insert(lt_call(10), vec![Value::Int(1)], true, SimInstant::EPOCH);
        cache.insert(lt_call(50), vec![Value::Int(2)], true, SimInstant::EPOCH);
        let mut hits = s.find_hits(&lt_call(99), &cache);
        assert_eq!(hits.len(), 2);
        // Both hits tie on the sort key (same kind, same insertion time),
        // so compare as sets.
        let key = |h: &InvariantHit| (h.is_equal(), h.cached().clone());
        let mut naive = s.find_hits_naive(&lt_call(99), &cache);
        hits.sort_by_key(key);
        naive.sort_by_key(key);
        assert_eq!(hits, naive);
    }

    #[test]
    fn equality_invariant_full_hit() {
        // The paper's §4 range example: huge ranges equal the 142 range.
        let mut s = InvariantStore::new();
        s.add(
            parse_invariant(
                "Dist > 142 => spatial:range(F, X, Y, Dist) = spatial:range(F, X, Y, 142).",
            )
            .unwrap(),
        )
        .unwrap();
        let cached = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(0),
                Value::Int(0),
                Value::Int(142),
            ],
        );
        let mut cache = AnswerCache::new();
        cache.insert(cached.clone(), vec![Value::Int(1)], true, SimInstant::EPOCH);
        let wanted = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(0),
                Value::Int(0),
                Value::Int(500),
            ],
        );
        let hits = s.find_hits(&wanted, &cache);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].is_equal());
        assert_eq!(hits[0].cached(), &cached);
    }

    #[test]
    fn equality_invariant_reverse_direction() {
        // Cache holds the *wide* call; the 142 call equals it.
        let mut s = InvariantStore::new();
        s.add(
            parse_invariant(
                "Dist > 142 => spatial:range(F, X, Y, Dist) = spatial:range(F, X, Y, 142).",
            )
            .unwrap(),
        )
        .unwrap();
        let wide = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(0),
                Value::Int(0),
                Value::Int(500),
            ],
        );
        let mut cache = indexed_cache(&s);
        cache.insert(wide.clone(), vec![Value::Int(1)], true, SimInstant::EPOCH);
        let narrow = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(0),
                Value::Int(0),
                Value::Int(142),
            ],
        );
        let hits = s.find_hits(&narrow, &cache);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].is_equal());
        assert_eq!(hits, s.find_hits_naive(&narrow, &cache));
    }

    #[test]
    fn incomplete_equal_entry_degrades_to_partial() {
        let mut s = InvariantStore::new();
        s.add(parse_invariant("=> d:f(X) = d:g(X).").unwrap())
            .unwrap();
        let mut cache = AnswerCache::new();
        let g = GroundCall::new("d", "g", vec![Value::Int(5)]);
        cache.insert(g.clone(), vec![Value::Int(1)], false, SimInstant::EPOCH);
        let hits = s.find_hits(&GroundCall::new("d", "f", vec![Value::Int(5)]), &cache);
        assert_eq!(hits.len(), 1);
        assert!(!hits[0].is_equal());
    }

    #[test]
    fn equal_hits_sort_before_partial() {
        let mut s = InvariantStore::new();
        s.add(parse_invariant("=> d:f(X) = d:g(X).").unwrap())
            .unwrap();
        s.add(parse_invariant("X <= Y => d:f(Y) >= d:h(X).").unwrap())
            .unwrap();
        let mut cache = indexed_cache(&s);
        cache.insert(
            GroundCall::new("d", "h", vec![Value::Int(1)]),
            vec![],
            true,
            SimInstant::EPOCH,
        );
        cache.insert(
            GroundCall::new("d", "g", vec![Value::Int(5)]),
            vec![],
            true,
            SimInstant::EPOCH,
        );
        let hits = s.find_hits(&GroundCall::new("d", "f", vec![Value::Int(5)]), &cache);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].is_equal());
        assert!(!hits[1].is_equal());
    }

    #[test]
    fn substitutes_ground_equality() {
        let mut s = InvariantStore::new();
        s.add(
            parse_invariant(
                "Dist > 142 => spatial:range(F, X, Y, Dist) = spatial:range(F, X, Y, 142).",
            )
            .unwrap(),
        )
        .unwrap();
        let wanted = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(3),
                Value::Int(4),
                Value::Int(999),
            ],
        );
        let subs = s.substitutes(&wanted);
        assert_eq!(subs.len(), 1);
        assert_eq!(
            subs[0],
            GroundCall::new(
                "spatial",
                "range",
                vec![
                    Value::str("points"),
                    Value::Int(3),
                    Value::Int(4),
                    Value::Int(142)
                ],
            )
        );
        assert_eq!(subs, s.substitutes_naive(&wanted));
        // Below the threshold: no substitute.
        let small = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(3),
                Value::Int(4),
                Value::Int(100),
            ],
        );
        assert!(s.substitutes(&small).is_empty());
    }

    #[test]
    fn substitutes_skip_self_and_non_equality() {
        let mut s = store_with_monotone_invariant(); // superset inv only
        assert!(s.substitutes(&lt_call(5)).is_empty());
        s.add(parse_invariant("=> d:f(X) = d:f(X).").unwrap())
            .unwrap();
        // Identity equality maps the call to itself: filtered out.
        assert!(s
            .substitutes(&GroundCall::new("d", "f", vec![Value::Int(1)]))
            .is_empty());
    }

    #[test]
    fn invalid_invariant_rejected_on_add() {
        let mut s = InvariantStore::new();
        let bad = parse_invariant("W > 1 => d:f(X) = d:g(X).").unwrap();
        assert!(s.add(bad).is_err());
        assert!(s.is_empty());
        assert!(s.ordered_index_specs().is_empty());
    }

    #[test]
    fn monotone_index_probe_matches_naive_on_mixed_groups() {
        // Two (T, A) groups with several thresholds each, plus an
        // unrelated function that must never surface.
        let s = store_with_monotone_invariant();
        let mut cache = indexed_cache(&s);
        let call = |t: &str, v: i64| {
            GroundCall::new(
                "rel",
                "select_lt",
                vec![Value::str(t), Value::str("qty"), Value::Int(v)],
            )
        };
        for (t, v, complete) in [
            ("inv", 5, true),
            ("inv", 20, false),
            ("inv", 80, true),
            ("other", 10, true),
            ("other", 90, true),
        ] {
            cache.insert(call(t, v), vec![Value::Int(v)], complete, SimInstant::EPOCH);
        }
        cache.insert(
            GroundCall::new("rel", "noise", vec![Value::Int(1)]),
            vec![],
            true,
            SimInstant::EPOCH,
        );
        for probe in [
            call("inv", 50),
            call("inv", 5),
            call("inv", 200),
            call("other", 10),
            call("missing", 7),
        ] {
            let mut indexed = s.find_hits(&probe, &cache);
            let mut naive = s.find_hits_naive(&probe, &cache);
            // Tie order among equal sort keys is representation-dependent;
            // compare as sets.
            let key = |h: &InvariantHit| (h.is_equal(), h.cached().clone());
            indexed.sort_by_key(key);
            naive.sort_by_key(key);
            assert_eq!(indexed, naive, "probe {probe}");
        }
    }
}
