//! The CIM itself: the §4.1 lookup pipeline plus its (small but non-zero)
//! processing-cost model.

use crate::cache::{AnswerCache, CacheStats};
use crate::invariant::{InvariantHit, InvariantStore};
use hermes_common::{GroundCall, Result, SimDuration, SimInstant, Value};
use hermes_lang::Invariant;
use std::sync::Arc;

/// The simulated cost of CIM processing.
///
/// The paper's Figure 5 shows cache hits are fast but not free (~300 ms to
/// the first answer vs ~1.8 s for the real call): the mediator still pays
/// query initialization, local copy, and display time. Invariant hits pay
/// extra matching and — for partial hits — answer-set comparison ("CIM must
/// keep the answers from the cache in memory and compare them with the
/// answers from the actual call").
#[derive(Clone, Copy, Debug)]
pub struct CimCostModel {
    /// Fixed cost of probing the cache (hit or miss), ms.
    pub probe_ms: f64,
    /// Cost per answer returned from the cache (copy + display), ms.
    pub per_answer_ms: f64,
    /// Cost of scanning one cache entry against one invariant, ms.
    pub invariant_scan_per_entry_ms: f64,
    /// Cost per cached answer merged/deduplicated on a partial hit, ms.
    pub merge_per_answer_ms: f64,
}

impl Default for CimCostModel {
    fn default() -> Self {
        CimCostModel {
            probe_ms: 2.0,
            per_answer_ms: 0.8,
            invariant_scan_per_entry_ms: 0.35,
            merge_per_answer_ms: 0.25,
        }
    }
}

/// How CIM resolved a lookup (§4.1).
#[derive(Clone, Debug, PartialEq)]
pub enum CimResolution {
    /// The call itself was cached (step 1): answers are complete. The
    /// answer slice is shared with the cache entry — no copy on the hit
    /// path.
    ExactHit {
        /// The cached answers.
        answers: Arc<[Value]>,
    },
    /// An equality invariant mapped the call onto a cached call with the
    /// same answer set (step 2): answers are complete.
    EqualHit {
        /// The cached call that served the answers.
        via: GroundCall,
        /// The cached answers (shared with the cache entry).
        answers: Arc<[Value]>,
    },
    /// A subset invariant found a cached partial answer set (step 3). The
    /// actual call is still required for the remaining answers unless the
    /// caller stops early (interactive mode).
    PartialHit {
        /// The cached call that served the partial answers.
        via: GroundCall,
        /// The partial answers (shared with the cache entry).
        answers: Arc<[Value]>,
    },
    /// Nothing in the cache applies. `substitute`, when present, is an
    /// equivalent (by an equality invariant) ground call that may be
    /// cheaper to execute than the original.
    Miss {
        /// An equivalent call worth executing instead, if any.
        substitute: Option<GroundCall>,
    },
}

/// A side-effect-free preview of a lookup's outcome; see [`Cim::preview`].
#[derive(Clone, Debug, PartialEq)]
pub enum CimPreview {
    /// An exact or equality hit: no network call would be needed.
    Hit,
    /// A subset invariant applies: the actual call is still required for
    /// completeness, so a network call would follow the cached prefix.
    Partial,
    /// Nothing cached applies; `executed` is the ground call that would
    /// actually go over the wire (the substitute, if one exists).
    Miss {
        /// The call that would be executed on the network.
        executed: GroundCall,
    },
}

/// Cumulative CIM counters, per resolution kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CimStats {
    /// Step-1 hits.
    pub exact_hits: u64,
    /// Step-2 hits.
    pub equal_hits: u64,
    /// Step-3 hits.
    pub partial_hits: u64,
    /// Full misses.
    pub misses: u64,
    /// Misses that carried a substitute call.
    pub substituted_misses: u64,
    /// Answer sets stored.
    pub stores: u64,
}

/// The Cache and Invariant Manager.
///
/// During execution the CIM "behaves like any other domain" (§4.1): the
/// executor directs a domain call here first; the resolution tells it
/// whether a real call is still needed.
#[derive(Clone, Debug, Default)]
pub struct Cim {
    cache: AnswerCache,
    invariants: InvariantStore,
    cost: CimCostModel,
    stats: CimStats,
    serve_stale: bool,
}

impl Cim {
    /// A CIM with an unbounded cache and default cost model.
    pub fn new() -> Self {
        Cim::default()
    }

    /// Overrides the processing-cost model.
    pub fn with_cost_model(mut self, cost: CimCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Adds a validated invariant and registers the ordered indexes its
    /// monotone directions probe (idempotent; pre-existing cache entries
    /// are back-indexed).
    pub fn add_invariant(&mut self, inv: Invariant) -> Result<usize> {
        let idx = self.invariants.add(inv)?;
        for (domain, function, pos) in self.invariants.ordered_index_specs() {
            self.cache.register_ordered_index(domain, function, pos);
        }
        Ok(idx)
    }

    /// Enables serving stale (incomplete) cached entries when the source
    /// is unreachable: a possibly-partial old answer beats total failure.
    /// Off by default — stale answers are only ever served on outage, and
    /// the caller must flag the result incomplete.
    pub fn set_serve_stale_on_outage(&mut self, on: bool) {
        self.serve_stale = on;
    }

    /// The stale fallback: any exact-key cached entry, complete or not,
    /// without touching LRU order or hit counters. `None` when the knob is
    /// off or nothing is cached under the call. The slice is shared with
    /// the cache entry.
    pub fn stale_answers(&self, call: &GroundCall) -> Option<Arc<[Value]>> {
        if !self.serve_stale {
            return None;
        }
        self.cache.peek(call).map(|e| e.answers.clone())
    }

    /// Read access to the cache (diagnostics, tests).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Mutable access to the cache (invalidation, expiry).
    pub fn cache_mut(&mut self) -> &mut AnswerCache {
        &mut self.cache
    }

    /// The stored invariants.
    pub fn invariants(&self) -> &InvariantStore {
        &self.invariants
    }

    /// Counters.
    pub fn stats(&self) -> CimStats {
        self.stats
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A non-mutating preview of what [`Cim::lookup`] would resolve to:
    /// no hit counters move, no LRU order changes, no simulated time is
    /// charged. The parallel scheduler peeks before dispatching a group so
    /// it only puts real network calls (misses) in flight; the member's
    /// later `lookup` performs the authoritative, charged resolution.
    pub fn preview(&self, call: &GroundCall) -> CimPreview {
        if self.cache.peek(call).is_some_and(|e| e.complete) {
            return CimPreview::Hit;
        }
        if !self.invariants.is_empty() {
            if let Some(hit) = self.invariants.find_hits(call, &self.cache).first() {
                return match hit {
                    InvariantHit::Equal { .. } => CimPreview::Hit,
                    InvariantHit::Partial { .. } => CimPreview::Partial,
                };
            }
        }
        let executed = self
            .invariants
            .substitutes(call)
            .into_iter()
            .next()
            .unwrap_or_else(|| call.clone());
        CimPreview::Miss { executed }
    }

    /// The §4.1 lookup pipeline. Returns the resolution and the simulated
    /// CIM processing time it took.
    pub fn lookup(&mut self, call: &GroundCall, _now: SimInstant) -> (CimResolution, SimDuration) {
        let mut cost_ms = self.cost.probe_ms;

        // Step 1: exact match.
        let exact = self
            .cache
            .get(call)
            .filter(|e| e.complete)
            .map(|e| e.answers.clone());
        if let Some(answers) = exact {
            cost_ms += self.cost.per_answer_ms * answers.len() as f64;
            self.stats.exact_hits += 1;
            return (
                CimResolution::ExactHit { answers },
                SimDuration::from_millis_f64(cost_ms),
            );
        }

        // Steps 2 and 3: invariants. The *simulated* matching cost keeps
        // the paper's scan model (entries × invariants) so plan choices and
        // reported timings are bit-identical; only the wall-clock matching
        // below is indexed.
        if !self.invariants.is_empty() {
            cost_ms += self.cost.invariant_scan_per_entry_ms
                * (self.cache.len() as f64)
                * (self.invariants.len() as f64);
            let hits = self.invariants.find_hits(call, &self.cache);
            if let Some(hit) = hits.first() {
                let answers: Arc<[Value]> = self
                    .cache
                    .peek(hit.cached())
                    .map(|e| e.answers.clone())
                    .unwrap_or_else(|| Vec::new().into());
                cost_ms += self.cost.per_answer_ms * answers.len() as f64;
                return match hit {
                    InvariantHit::Equal { cached, .. } => {
                        self.stats.equal_hits += 1;
                        (
                            CimResolution::EqualHit {
                                via: cached.clone(),
                                answers,
                            },
                            SimDuration::from_millis_f64(cost_ms),
                        )
                    }
                    InvariantHit::Partial { cached, .. } => {
                        self.stats.partial_hits += 1;
                        (
                            CimResolution::PartialHit {
                                via: cached.clone(),
                                answers,
                            },
                            SimDuration::from_millis_f64(cost_ms),
                        )
                    }
                };
            }
        }

        // Step 4: miss, possibly with a cheaper equivalent call.
        let substitute = self.invariants.substitutes(call).into_iter().next();
        self.stats.misses += 1;
        if substitute.is_some() {
            self.stats.substituted_misses += 1;
        }
        (
            CimResolution::Miss { substitute },
            SimDuration::from_millis_f64(cost_ms),
        )
    }

    /// Stores an answer set for future lookups. Accepts either an owned
    /// `Vec<Value>` or an already-shared `Arc<[Value]>` (the executor hands
    /// back the same allocation it streams from — zero-copy).
    pub fn store(
        &mut self,
        call: GroundCall,
        answers: impl Into<Arc<[Value]>>,
        complete: bool,
        now: SimInstant,
    ) {
        self.stats.stores += 1;
        self.cache.insert(call, answers, complete, now);
    }

    /// A structurally identical *empty* CIM: same invariants, cost model,
    /// staleness policy, cache budget, and registered ordered indexes, but
    /// no cached entries and zeroed counters. Shard facades replicate a
    /// template into every shard with this; it copies the settings only,
    /// so its cost does not grow with the entries the template holds.
    pub fn fork_empty(&self) -> Cim {
        Cim {
            cache: self.cache.fork_empty(),
            invariants: self.invariants.clone(),
            cost: self.cost,
            stats: CimStats::default(),
            serve_stale: self.serve_stale,
        }
    }

    /// Merges partial (cached) answers with the actual call's answers,
    /// returning the deduplicated remainder (actual minus cached) and the
    /// simulated comparison cost — the §8 observation that "the size of the
    /// partial answer returned plays a significant role".
    pub fn merge_partial(&self, cached: &[Value], actual: &[Value]) -> (Vec<Value>, SimDuration) {
        let cached_set: std::collections::HashSet<&Value> = cached.iter().collect();
        let compared = actual.len() + cached.len();
        let remainder: Vec<Value> = actual
            .iter()
            .filter(|a| !cached_set.contains(*a))
            .cloned()
            .collect();
        (
            remainder,
            SimDuration::from_millis_f64(self.cost.merge_per_answer_ms * compared as f64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::parse_invariant;

    fn call(v: i64) -> GroundCall {
        GroundCall::new(
            "rel",
            "select_lt",
            vec![Value::str("inv"), Value::str("qty"), Value::Int(v)],
        )
    }

    #[test]
    fn exact_hit_pipeline() {
        let mut cim = Cim::new();
        cim.store(call(10), vec![Value::Int(1)], true, SimInstant::EPOCH);
        let (res, cost) = cim.lookup(&call(10), SimInstant::EPOCH);
        assert_eq!(
            res,
            CimResolution::ExactHit {
                answers: vec![Value::Int(1)].into()
            }
        );
        assert!(cost > SimDuration::ZERO);
        assert_eq!(cim.stats().exact_hits, 1);
    }

    #[test]
    fn incomplete_exact_entry_is_not_a_full_hit() {
        let mut cim = Cim::new();
        cim.store(call(10), vec![Value::Int(1)], false, SimInstant::EPOCH);
        let (res, _) = cim.lookup(&call(10), SimInstant::EPOCH);
        assert!(matches!(res, CimResolution::Miss { .. }));
    }

    #[test]
    fn partial_hit_via_superset_invariant() {
        let mut cim = Cim::new();
        cim.add_invariant(
            parse_invariant("V1 <= V2 => rel:select_lt(T, A, V2) >= rel:select_lt(T, A, V1).")
                .unwrap(),
        )
        .unwrap();
        cim.store(call(10), vec![Value::Int(1)], true, SimInstant::EPOCH);
        let (res, _) = cim.lookup(&call(99), SimInstant::EPOCH);
        match res {
            CimResolution::PartialHit { via, answers } => {
                assert_eq!(via, call(10));
                assert_eq!(answers[..], [Value::Int(1)]);
            }
            other => panic!("expected partial hit, got {other:?}"),
        }
        assert_eq!(cim.stats().partial_hits, 1);
    }

    #[test]
    fn equality_hit_and_substitute_on_miss() {
        let mut cim = Cim::new();
        cim.add_invariant(
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
                Value::str("p"),
                Value::Int(0),
                Value::Int(0),
                Value::Int(999),
            ],
        );
        // Empty cache: miss, but with the 142-substitute.
        let (res, _) = cim.lookup(&wanted, SimInstant::EPOCH);
        match &res {
            CimResolution::Miss {
                substitute: Some(sub),
            } => {
                assert_eq!(sub.args[3], Value::Int(142));
            }
            other => panic!("expected substituted miss, got {other:?}"),
        }
        assert_eq!(cim.stats().substituted_misses, 1);
        // Cache the substitute; now the wanted call is an equality hit.
        let sub = match res {
            CimResolution::Miss {
                substitute: Some(s),
            } => s,
            _ => unreachable!(),
        };
        cim.store(sub.clone(), vec![Value::Int(7)], true, SimInstant::EPOCH);
        let (res2, _) = cim.lookup(&wanted, SimInstant::EPOCH);
        match res2 {
            CimResolution::EqualHit { via, answers } => {
                assert_eq!(via, sub);
                assert_eq!(answers[..], [Value::Int(7)]);
            }
            other => panic!("expected equal hit, got {other:?}"),
        }
    }

    #[test]
    fn miss_without_invariants_is_cheap() {
        let mut cim = Cim::new();
        let (res, cost) = cim.lookup(&call(5), SimInstant::EPOCH);
        assert_eq!(res, CimResolution::Miss { substitute: None });
        assert_eq!(cost, SimDuration::from_millis_f64(2.0));
    }

    #[test]
    fn invariant_scan_cost_grows_with_cache() {
        let mut cim = Cim::new();
        cim.add_invariant(
            parse_invariant("V1 <= V2 => rel:select_lt(T, A, V2) >= rel:select_lt(T, A, V1).")
                .unwrap(),
        )
        .unwrap();
        let (_, cost_empty) = cim.lookup(&call(999), SimInstant::EPOCH);
        for i in 0..100 {
            cim.store(
                GroundCall::new("other", "f", vec![Value::Int(i)]),
                vec![],
                true,
                SimInstant::EPOCH,
            );
        }
        let (_, cost_full) = cim.lookup(&call(999), SimInstant::EPOCH);
        assert!(cost_full > cost_empty);
    }

    #[test]
    fn merge_partial_dedups_and_costs() {
        let cim = Cim::new();
        let cached = vec![Value::Int(1), Value::Int(2)];
        let actual = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let (rest, cost) = cim.merge_partial(&cached, &actual);
        assert_eq!(rest, vec![Value::Int(3)]);
        assert!(cost > SimDuration::ZERO);
    }

    #[test]
    fn stale_answers_gated_by_knob() {
        let mut cim = Cim::new();
        cim.store(call(10), vec![Value::Int(1)], false, SimInstant::EPOCH);
        // Knob off: nothing is served stale.
        assert_eq!(cim.stale_answers(&call(10)), None);
        cim.set_serve_stale_on_outage(true);
        // Incomplete entries qualify; unknown calls still do not.
        assert_eq!(
            cim.stale_answers(&call(10)).as_deref(),
            Some(&[Value::Int(1)][..])
        );
        assert_eq!(cim.stale_answers(&call(99)), None);
    }

    #[test]
    fn store_counts() {
        let mut cim = Cim::new();
        cim.store(call(1), vec![], true, SimInstant::EPOCH);
        cim.store(call(2), vec![], false, SimInstant::EPOCH);
        assert_eq!(cim.stats().stores, 2);
        assert_eq!(cim.cache().len(), 2);
    }
}
