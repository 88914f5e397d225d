//! The **matcache**: a runtime cache of materialized subplan results.
//!
//! The CIM caches *ground source calls*; everything above them — joins,
//! selections, the whole flat plan — is recomputed for every query. This
//! module caches whole-plan answer sets keyed by the canonical subplan
//! fingerprints PR 7 introduced ([`Plan::fingerprint`](crate::Plan)), so a
//! repeated query costs one lookup instead of a re-execution, and
//! concurrent identical queries coalesce into a single computation.
//!
//! ## Safety gating (HA070/HA071)
//!
//! A snapshot of a subplan's answers is only sound when every source it
//! reads has an invalidation signal, and the plan itself says which do: a
//! call routed through the CIM ([`Route::Cim`](crate::plan::Route)) is
//! invalidated there, while a call routed around it (`Route::Direct`,
//! §4.1) has no cache entry to invalidate — HA071's "routed around the
//! CIM". The cache therefore issues a [`MatTicket`] — the capability to
//! look up, coalesce, or store — only for a plan that makes at least one
//! call and routes every call through the CIM
//! (`Plan::routes_calls_through_cim`). No ticket, no entry: a plan that
//! reads a source directly can never produce a cache hit, by construction,
//! whichever mediator shares the cache and whatever routing it has. A
//! routing change on any mediator drops the entries that read a call it
//! now routes around the CIM (`MatCache::invalidate_direct`).
//!
//! The gate needs nothing from the program, so it also admits calls the
//! program never names: a pushdown-fused call (`select_eq`…) in a
//! CIM-routed plan is cached by the CIM and may be materialized too.
//!
//! ## Admission and demotion
//!
//! Entries are priced at store time with the analyzer's own HA073 measure
//! ([`CostSource::estimate_subplan_savings`]). Every complete result whose
//! answer set fits the constant 4 MiB budget is admitted, and when the
//! budget overflows the *lowest-savings* entries are demoted first — the
//! same rule the DCSM uses to rank sharing opportunities.
//!
//! [`CostSource::estimate_subplan_savings`]: hermes_dcsm::CostSource::estimate_subplan_savings
//!
//! ## Invalidation (HA074)
//!
//! Each entry records the `(domain, function)` sources its plan reads
//! ([`SubplanKey::calls`]). [`MatCache::invalidate_source`] drops exactly
//! the entries that read the updated source — the runtime realization of
//! the HA074 invalidation scope — and leaves a tombstone so the next query
//! that re-materializes the subplan can report *why* it missed
//! (`TraceEvent::SubplanInvalidated`).
//!
//! ## Single-flight coalescing
//!
//! Concurrent identical queries coalesce on the one single-flight
//! primitive, [`crate::flight::Flights`], keyed by subplan: one leader
//! computes, followers share its rows ([`MatRows`]). A leader stores *before*
//! publishing, so there is no window in which a follower resolves but a
//! fresh query misses. The store lock is never held across plan execution
//! or together with a flight lock.

use crate::flight::{FlightRole, Flights};
use crate::plan::Plan;
use hermes_analysis::SubplanKey;
use hermes_cim::{CimPolicy, RoutingDecision};
use hermes_common::sync::Mutex;
use hermes_common::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Call = (Arc<str>, Arc<str>);

/// A materialized answer set: one row per answer, in the plan's
/// answer-column order.
pub type MatRows = Arc<[Vec<Value>]>;

/// Byte budget for materialized answer sets.
const BUDGET_BYTES: usize = 4 * 1024 * 1024;

/// Identity of a materialized subplan. The fingerprint alone is stable
/// across variable renaming, but the stored rows are over *this* plan's
/// slot list (its variables numbered as the executor numbers them: the
/// answer variables first, then the rest in order of first appearance) —
/// so the key also pins the canonical form and that list by name, and an
/// alpha-renamed twin takes a clean miss instead of rows it cannot read.
/// Only [`MatCache::ticket`] makes one.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatKey {
    fingerprint: u64,
    canonical: String,
    vars: String,
}

/// The capability to use the matcache for one plan: issued by
/// [`MatCache::ticket`] only for plans that route every call through the
/// CIM.
#[derive(Clone, Debug)]
pub struct MatTicket {
    key: MatKey,
    sub: SubplanKey,
}

impl MatTicket {
    /// The plan's canonical fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.sub.fingerprint.0
    }
}

/// One materialized entry.
#[derive(Debug)]
struct Entry {
    answers: MatRows,
    calls: Vec<Call>,
    bytes: usize,
    savings_ms: f64,
}

#[derive(Debug, Default)]
struct Store {
    entries: HashMap<MatKey, Entry>,
    /// HA074 reverse index: source call → keys whose plans read it.
    by_call: BTreeMap<Call, BTreeSet<MatKey>>,
    /// Keys evicted by [`MatCache::invalidate_source`], with the call
    /// that dirtied them; consumed by the next lookup so the recomputing
    /// query can trace the invalidation.
    tombstones: HashMap<MatKey, Call>,
    bytes: usize,
    budget_bytes: usize,
}

impl Store {
    fn remove(&mut self, key: &MatKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.bytes -= entry.bytes;
        for call in &entry.calls {
            if let Some(set) = self.by_call.get_mut(call) {
                set.remove(key);
                if set.is_empty() {
                    self.by_call.remove(call);
                }
            }
        }
        Some(entry)
    }

    /// Demotes the lowest-savings entries, sparing `keep`, while the byte
    /// budget overflows. Returns how many were demoted.
    fn demote_to_budget(&mut self, keep: &MatKey) -> u64 {
        let mut demoted = 0;
        while self.bytes > self.budget_bytes {
            let Some(victim) = self
                .entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by(|a, b| a.1.savings_ms.total_cmp(&b.1.savings_ms))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&victim);
            demoted += 1;
        }
        demoted
    }
}

/// Counter snapshot (see [`MatCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatCacheStats {
    /// Lookups served from a materialized entry.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Complete plan results admitted into the cache.
    pub materialized: u64,
    /// Queries served by another query's in-flight computation
    /// (single-flight followers whose wait returned answers).
    pub coalesced: u64,
    /// Stores refused because the answer set alone exceeds the budget.
    pub rejected: u64,
    /// Entries demoted to make room under the byte budget.
    pub demoted: u64,
    /// Entries dropped by source invalidation.
    pub invalidated: u64,
    /// Plans refused a ticket because a call they make bypasses the CIM,
    /// so the source it reads has no invalidation signal.
    pub volatile_skips: u64,
    /// Live entries.
    pub entries: usize,
    /// Live bytes.
    pub bytes: usize,
}

/// A lookup's result.
#[derive(Debug)]
pub enum MatLookup {
    /// A materialized entry; share and serve.
    Hit(MatRows),
    /// No entry. `invalidated` names the source update that evicted a
    /// previous materialization of this exact subplan, if one did.
    Miss {
        /// The `(domain, function)` whose invalidation caused this miss.
        invalidated: Option<Call>,
    },
}

/// The subplan materialization cache. Thread-safe; shared by every query
/// of a [`crate::Mediator`] (behind `Arc`), and by the mediators
/// `to_concurrent` makes from it.
#[derive(Debug)]
pub struct MatCache {
    store: Mutex<Store>,
    flights: Flights<MatKey, MatRows>,
    hits: AtomicU64,
    misses: AtomicU64,
    materialized: AtomicU64,
    rejected: AtomicU64,
    demoted: AtomicU64,
    invalidated: AtomicU64,
    volatile_skips: AtomicU64,
}

impl Default for MatCache {
    fn default() -> Self {
        MatCache::with_budget(BUDGET_BYTES)
    }
}

impl MatCache {
    /// An empty cache under `budget_bytes`: [`BUDGET_BYTES`] outside the
    /// unit tests, which demote under a small one.
    fn with_budget(budget_bytes: usize) -> Self {
        MatCache {
            store: Mutex::new(Store {
                budget_bytes,
                ..Store::default()
            }),
            flights: Flights::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            materialized: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            demoted: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            volatile_skips: AtomicU64::new(0),
        }
    }

    /// Issues the capability to use the cache for `plan`: `None` when the
    /// plan makes no source calls, or when it routes any call around the
    /// CIM (the HA070/HA071 gate).
    pub fn ticket(&self, plan: &Plan) -> Option<MatTicket> {
        if plan.call_count() == 0 {
            return None;
        }
        if !plan.routes_calls_through_cim() {
            self.volatile_skips.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let sub = plan.fingerprint();
        let key = MatKey {
            fingerprint: sub.fingerprint.0,
            canonical: sub.canonical.clone(),
            vars: plan.variables().join(","),
        };
        Some(MatTicket { key, sub })
    }

    /// Looks the ticket's subplan up.
    pub fn lookup(&self, ticket: &MatTicket) -> MatLookup {
        let mut store = self.store.lock();
        if let Some(entry) = store.entries.get(&ticket.key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return MatLookup::Hit(entry.answers.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let invalidated = store.tombstones.remove(&ticket.key);
        MatLookup::Miss { invalidated }
    }

    /// Joins the flight for the ticket's subplan, becoming its leader or
    /// a follower.
    pub fn join(&self, ticket: &MatTicket) -> FlightRole<'_, MatKey, MatRows> {
        self.flights.join(&ticket.key)
    }

    /// Stores a complete plan result priced at the caller's DCSM savings
    /// estimate, demoting lowest-savings entries while the byte budget
    /// overflows. False when the answer set alone exceeds the budget.
    pub fn store(&self, ticket: &MatTicket, answers: MatRows, savings_ms: f64) -> bool {
        let bytes: usize = answers.iter().flatten().map(Value::size_bytes).sum();
        let mut store = self.store.lock();
        if bytes > store.budget_bytes {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        store.remove(&ticket.key);
        store.tombstones.remove(&ticket.key);
        for call in &ticket.sub.calls {
            store
                .by_call
                .entry(call.clone())
                .or_default()
                .insert(ticket.key.clone());
        }
        store.bytes += bytes;
        store.entries.insert(
            ticket.key.clone(),
            Entry {
                answers,
                calls: ticket.sub.calls.clone(),
                bytes,
                savings_ms,
            },
        );
        // Never demote the incoming entry: it already fits and is the
        // freshest evidence of reuse.
        let demoted = store.demote_to_budget(&ticket.key);
        self.demoted.fetch_add(demoted, Ordering::Relaxed);
        self.materialized.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drops exactly the entries whose plans read `domain:function` — the
    /// HA074 invalidation scope, realized. Returns the number of entries
    /// dropped; each leaves a tombstone so the recomputing query can
    /// trace why it missed.
    pub fn invalidate_source(&self, domain: &str, function: &str) -> usize {
        let call: Call = (Arc::from(domain), Arc::from(function));
        let mut store = self.store.lock();
        let victims: Vec<MatKey> = store
            .by_call
            .get(&call)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default();
        for key in &victims {
            store.remove(key);
            store.tombstones.insert(key.clone(), call.clone());
        }
        self.invalidated
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        victims.len()
    }

    /// Drops every entry that reads a call `policy` routes around the CIM,
    /// counting each in `invalidated`: those reads no longer have an
    /// invalidation signal. Returns the number of entries dropped.
    pub(crate) fn invalidate_direct(&self, policy: &CimPolicy) -> usize {
        let mut store = self.store.lock();
        let victims: BTreeSet<MatKey> = store
            .by_call
            .iter()
            .filter(|((d, f), _)| policy.decide(d, f) == RoutingDecision::Direct)
            .flat_map(|(_, keys)| keys.iter().cloned())
            .collect();
        for key in &victims {
            store.remove(key);
        }
        self.invalidated
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        victims.len()
    }

    /// Empties the cache (entries, index, tombstones); counters persist.
    pub fn clear(&self) {
        let mut store = self.store.lock();
        store.entries.clear();
        store.by_call.clear();
        store.tombstones.clear();
        store.bytes = 0;
    }

    /// Counter snapshot plus live entry/byte counts.
    pub fn stats(&self) -> MatCacheStats {
        let (entries, bytes) = {
            let store = self.store.lock();
            (store.entries.len(), store.bytes)
        };
        MatCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            materialized: self.materialized.load(Ordering::Relaxed),
            coalesced: self.flights.followers_served(),
            rejected: self.rejected.load(Ordering::Relaxed),
            demoted: self.demoted.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            volatile_skips: self.volatile_skips.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first plan for `src` under `policy`.
    fn plan_under(src: &str, policy: &CimPolicy) -> Plan {
        let program = hermes_lang::parse_program(
            "p(A, B) :- in(A, d:f('k')) & in(B, e:g(A)).\n\
             v(A) :- in(A, feed:price('x')).",
        )
        .unwrap();
        let query = hermes_lang::parse_query(src).unwrap();
        let plans =
            crate::rewrite::enumerate_plans(&program, &query, policy, Default::default()).unwrap();
        plans.into_iter().next().unwrap()
    }

    /// The first plan for `src` with every call through the CIM.
    fn plan_for(src: &str) -> Plan {
        plan_under(src, &CimPolicy::cache_everything())
    }

    /// Every call through the CIM except those to `domain`.
    fn direct(domain: &str) -> CimPolicy {
        let mut policy = CimPolicy::cache_everything();
        policy.set_domain(domain, RoutingDecision::Direct);
        policy
    }

    fn answers(n: i64) -> MatRows {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect::<Vec<_>>()
            .into()
    }

    #[test]
    fn volatile_subplans_are_refused_a_ticket() {
        let cache = MatCache::default();
        let plan = plan_under("?- v(A).", &direct("feed"));
        assert!(cache.ticket(&plan).is_none());
        assert_eq!(cache.stats().volatile_skips, 1);
        // The same subplan read through the CIM gets one.
        assert!(cache.ticket(&plan_for("?- v(A).")).is_some());
    }

    #[test]
    fn store_then_hit_shares_the_allocation() {
        let cache = MatCache::default();
        let plan = plan_for("?- p(A, B).");
        let ticket = cache.ticket(&plan).unwrap();
        assert!(matches!(
            cache.lookup(&ticket),
            MatLookup::Miss { invalidated: None }
        ));
        let ans = answers(3);
        assert!(cache.store(&ticket, ans.clone(), 5.0));
        match cache.lookup(&ticket) {
            MatLookup::Hit(got) => assert!(Arc::ptr_eq(&got, &ans)),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.materialized), (1, 1, 1));
    }

    #[test]
    fn invalidation_scope_is_per_source_and_leaves_a_tombstone() {
        let cache = MatCache::default();
        let plan = plan_for("?- p(A, B).");
        let ticket = cache.ticket(&plan).unwrap();
        cache.store(&ticket, answers(2), 5.0);
        // An unrelated source evicts nothing.
        assert_eq!(cache.invalidate_source("nowhere", "seen"), 0);
        assert!(matches!(cache.lookup(&ticket), MatLookup::Hit(_)));
        // A source the plan reads evicts exactly this entry.
        assert_eq!(cache.invalidate_source("e", "g"), 1);
        match cache.lookup(&ticket) {
            MatLookup::Miss {
                invalidated: Some((d, f)),
            } => assert_eq!((d.as_ref(), f.as_ref()), ("e", "g")),
            other => panic!("expected tombstoned miss, got {other:?}"),
        }
        // The tombstone is consumed.
        assert!(matches!(
            cache.lookup(&ticket),
            MatLookup::Miss { invalidated: None }
        ));
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn admission_floor_and_budget_demotion() {
        // Room for two 32-byte answer sets, not three.
        let cache = MatCache::with_budget(80);
        let ticket = |src| cache.ticket(&plan_for(src)).unwrap();
        let cheap = ticket("?- p(A, B).");
        let dear = ticket("?- v(A).");
        let fresh = ticket("?- p(A, C).");
        assert!(
            !cache.store(&cheap, answers(100), 50.0),
            "larger than the whole budget"
        );
        assert!(cache.store(&cheap, answers(2), 0.5));
        assert!(cache.store(&dear, answers(2), 50.0));
        // A third entry overflows the budget: the lowest-savings entry
        // goes, and the incoming one stays however little it saves.
        assert!(cache.store(&fresh, answers(2), 0.1));
        assert!(matches!(cache.lookup(&cheap), MatLookup::Miss { .. }));
        assert!(matches!(cache.lookup(&dear), MatLookup::Hit(_)));
        assert!(matches!(cache.lookup(&fresh), MatLookup::Hit(_)));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.demoted, stats.rejected), (2, 1, 1));
    }

    #[test]
    fn flight_leader_publishes_to_followers() {
        let cache = Arc::new(MatCache::default());
        let plan = plan_for("?- p(A, B).");
        let ticket = cache.ticket(&plan).unwrap();
        let FlightRole::Leader(leader) = cache.join(&ticket) else {
            panic!("first join leads");
        };
        let FlightRole::Follower(follower) = cache.join(&ticket) else {
            panic!("second join follows");
        };
        let ans = answers(4);
        leader.publish(ans.clone());
        let got = follower.wait().expect("published");
        assert!(Arc::ptr_eq(&got, &ans));
        // The flight is closed: the next join leads again.
        assert!(matches!(cache.join(&ticket), FlightRole::Leader(_)));
        assert_eq!(cache.stats().coalesced, 1);
    }

    #[test]
    fn abandoned_flight_releases_followers() {
        let cache = MatCache::default();
        let plan = plan_for("?- p(A, B).");
        let ticket = cache.ticket(&plan).unwrap();
        let FlightRole::Leader(leader) = cache.join(&ticket) else {
            panic!("lead");
        };
        let FlightRole::Follower(follower) = cache.join(&ticket) else {
            panic!("follow");
        };
        drop(leader);
        assert!(follower.wait().is_none());
        assert!(matches!(cache.join(&ticket), FlightRole::Leader(_)));
        // The follower joined but was served nothing.
        assert_eq!(cache.stats().coalesced, 0);
    }

    #[test]
    fn policy_change_sweeps_newly_volatile_entries() {
        let empty = hermes_lang::parse_program("").unwrap();
        let mediator = crate::Mediator::new(empty, hermes_net::Network::new(1)).unwrap();
        let cache = mediator.caches().subplans();
        for src in ["?- p(A, B).", "?- v(A)."] {
            let ticket = cache.ticket(&plan_for(src)).unwrap();
            cache.store(&ticket, answers(2), 5.0);
        }
        assert_eq!(cache.stats().entries, 2);
        // New routing: domain `e` bypasses the CIM, so `p`'s snapshot has
        // lost its invalidation signal; `v`'s has not.
        mediator
            .caches()
            .policy()
            .routing(direct("e"))
            .apply()
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidated), (1, 1));
        let policy = &mediator.snapshot().policy;
        assert!(
            cache.ticket(&plan_under("?- p(A, B).", policy)).is_none(),
            "now direct: no ticket"
        );
    }
}
