//! Concurrent CIM access: the [`CimView`] trait and the [`ShardedCim`]
//! facade.
//!
//! A single [`Cim`] is a plain mutable structure. Behind one lock, a
//! mediator serving many clients would funnel *every* cache probe through
//! that lock. `ShardedCim` partitions the cache by `(domain, function)`
//! hash into N independently locked shards, so concurrent queries touching
//! different functions never contend. A mediator starts with one shard
//! and reshards with [`ShardedCim::reshard`].
//!
//! The `(domain, function)` key is load-bearing: every structure that must
//! see *all* cached calls of one function — the invariant posting lists and
//! ordered indexes from the indexed lookup paths — lives whole inside a
//! single shard. Invariant hits, substitutes, and partial-hit merges for a
//! call therefore behave exactly as they do in an unsharded CIM, because
//! all candidate entries share the probe's shard. The one semantic
//! narrowing: an invariant relating *different* functions that hash to
//! different shards cannot produce a cross-shard hit — the probe simply
//! misses and performs a real call, which is always sound (the cache is an
//! optimization, never an oracle).
//!
//! Invariants are replicated into every shard (they are small, read-only
//! rewrite rules); cache entries are partitioned.

use crate::cache::CacheStats;
use crate::invariant::InvariantStore;
use crate::manager::{Cim, CimPreview, CimResolution, CimStats};
use crate::persist::{self, SavedEntry};
use hermes_common::sync::{Mutex, Shards};
use hermes_common::{GroundCall, Result, SimDuration, SimInstant, Value};
use hermes_lang::Invariant;
use std::path::Path;
use std::sync::Arc;

/// Shared-state access to a CIM.
///
/// The executor holds `&dyn CimView`: in a mediator, a [`ShardedCim`]; in
/// tests, a wrapper that changes one behaviour. All methods take `&self`;
/// implementations provide interior mutability.
pub trait CimView {
    /// The §4.1 lookup pipeline: exact hit, equality-invariant hit,
    /// partial hit, or miss (possibly with a cheaper substitute call).
    fn lookup(&self, call: &GroundCall, now: SimInstant) -> (CimResolution, SimDuration);

    /// Stores an answer set for future lookups.
    fn store(&self, call: GroundCall, answers: Arc<[Value]>, complete: bool, now: SimInstant);

    /// A stale (possibly evicted-policy-exempt) answer set for `call`, if
    /// serve-stale-on-outage is enabled.
    fn stale_answers(&self, call: &GroundCall) -> Option<Arc<[Value]>>;

    /// Deduplicates `actual` against a cached prefix for `call`, returning
    /// the remainder and the simulated comparison cost.
    fn merge_partial(
        &self,
        call: &GroundCall,
        cached: &[Value],
        actual: &[Value],
    ) -> (Vec<Value>, SimDuration);

    /// Non-mutating routing preview for the group dispatcher.
    fn preview(&self, call: &GroundCall) -> CimPreview;
}

/// N independently locked CIM shards partitioned by `(domain, function)`
/// (one [`Shards`] container; see its lock order).
#[derive(Debug)]
pub struct ShardedCim {
    shards: Shards<Cim>,
    /// Held while invariants are added (taken before any shard lock), so
    /// concurrent adds reach every shard in one order and a check for a
    /// held invariant stays true until the add.
    adding: Mutex<()>,
}

impl ShardedCim {
    /// `n` empty default shards (`n` is clamped to at least 1).
    pub fn new(n: usize) -> Self {
        ShardedCim::from_template(&Cim::new(), n)
    }

    /// `n` shards forked from `template`: every shard replicates the
    /// template's invariants, cost model, staleness policy, and ordered
    /// indexes; the template's cache *entries* are partitioned by shard
    /// key. Per-entry LRU age and hit counts start fresh.
    ///
    /// Note the cache byte budget is per shard, so aggregate capacity is
    /// `n ×` the template's budget.
    pub fn from_template(template: &Cim, n: usize) -> Self {
        let sharded = ShardedCim {
            shards: Shards::new((0..n.max(1)).map(|_| template.fork_empty()).collect()),
            adding: Mutex::new(()),
        };
        sharded.carry(template);
        sharded
    }

    /// The same cache over `n` shards: forks of shard 0's settings (see
    /// [`ShardedCim::from_template`]) holding every shard's entries.
    pub fn reshard(&self, n: usize) -> Self {
        let fresh = ShardedCim::from_template(&self.shards.first().fork_empty(), n);
        for shard in self.shards.each() {
            fresh.carry(&shard);
        }
        fresh
    }

    /// Adds `from`'s entries to the shards that own them.
    fn carry(&self, from: &Cim) {
        self.shards.distribute(
            from.cache().iter(),
            |(call, _)| (&*call.domain, &*call.function),
            |shard, entries| {
                let cache = shard.cache_mut();
                for (call, e) in entries {
                    cache.insert(call.clone(), e.answers.clone(), e.complete, e.inserted_at);
                }
            },
        );
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    /// Runs `f` over the invariant store, which every shard holds whole.
    pub fn with_invariants<R>(&self, f: impl FnOnce(&InvariantStore) -> R) -> R {
        f(self.shards.first().invariants())
    }

    /// Registers an invariant in **every** shard (invariants are
    /// replicated, entries are partitioned). Returns the index reported by
    /// the first shard; all shards hold identical invariant stores, so the
    /// indexes agree.
    pub fn add_invariant(&self, inv: &Invariant) -> Result<usize> {
        let _adding = self.adding.lock();
        self.add_to_every_shard(inv)
    }

    /// Registers, as [`ShardedCim::add_invariant`] does, each of
    /// `invariants` the store did not hold before this call, in one step:
    /// two concurrent calls naming the same invariant add it once.
    pub fn add_missing(&self, invariants: &[Invariant]) -> Result<()> {
        let _adding = self.adding.lock();
        let installed = self.with_invariants(|store| store.all().to_vec());
        for inv in invariants.iter().filter(|inv| !installed.contains(inv)) {
            self.add_to_every_shard(inv)?;
        }
        Ok(())
    }

    fn add_to_every_shard(&self, inv: &Invariant) -> Result<usize> {
        let each = self
            .shards
            .each()
            .map(|mut shard| shard.add_invariant(inv.clone()));
        each.collect::<Result<Vec<_>>>().map(|indexes| indexes[0])
    }

    /// Toggles serve-stale-on-outage in every shard.
    pub fn set_serve_stale_on_outage(&self, on: bool) {
        for mut shard in self.shards.each() {
            shard.set_serve_stale_on_outage(on);
        }
    }

    /// Aggregate §4.1 pipeline counters across shards.
    pub fn stats(&self) -> CimStats {
        let mut total = CimStats::default();
        for shard in self.shards.each() {
            let s = shard.stats();
            total.exact_hits += s.exact_hits;
            total.equal_hits += s.equal_hits;
            total.partial_hits += s.partial_hits;
            total.misses += s.misses;
            total.substituted_misses += s.substituted_misses;
            total.stores += s.stores;
        }
        total
    }

    /// Aggregate answer-cache counters across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.each() {
            let s = shard.cache_stats();
            total.inserts += s.inserts;
            total.evictions += s.evictions;
            total.hits += s.hits;
            total.misses += s.misses;
            total.bytes_shared += s.bytes_shared;
            total.bytes_copied += s.bytes_copied;
        }
        total
    }

    /// Total cached entries across shards.
    pub fn len(&self) -> usize {
        self.shards.each().map(|s| s.cache().len()).sum()
    }

    /// True if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached answer bytes across shards.
    pub fn bytes(&self) -> usize {
        self.shards.each().map(|s| s.cache().bytes()).sum()
    }

    /// Drops every entry of `domain` in every shard; returns entries
    /// removed.
    pub fn invalidate_domain(&self, domain: &str) -> usize {
        self.shards
            .each()
            .map(|mut s| s.cache_mut().invalidate_domain(domain))
            .sum()
    }

    /// Drops every cached entry for one `(domain, function)`. Only the
    /// owning shard is visited.
    pub fn invalidate_function(&self, domain: &str, function: &str) -> usize {
        self.shards
            .owner(domain, function)
            .cache_mut()
            .invalidate_function(domain, function)
    }

    /// Drops entries older than `max_age` in every shard; returns entries
    /// removed.
    pub fn expire(&self, now: SimInstant, max_age: SimDuration) -> usize {
        self.shards
            .each()
            .map(|mut s| s.cache_mut().expire(now, max_age))
            .sum()
    }

    /// Empties every shard.
    pub fn clear(&self) {
        for mut shard in self.shards.each() {
            shard.cache_mut().clear();
        }
    }

    /// Writes every shard's entries into one answer-cache file, replacing
    /// it whole or not at all: the file one shard holding them writes.
    pub fn save_to_path(&self, path: &Path) -> Result<()> {
        let one = ShardedCim::new(1);
        for shard in self.shards.each() {
            one.carry(&shard);
        }
        let merged = one.shards.first();
        persist::save_to_path(merged.cache(), path)
    }

    /// Replaces every shard's entries with `entries`, each inserted, in
    /// order, into the shard that owns its call (see [`persist::load_into`]).
    pub fn load_entries(&self, entries: Vec<SavedEntry>) {
        self.shards.distribute(
            entries,
            |(call, ..)| (&*call.domain, &*call.function),
            |shard, entries| {
                persist::replace(shard.cache_mut(), entries);
            },
        );
    }

    /// Blocking shard-lock acquisitions so far (the throughput bench
    /// reports this as its contention metric).
    pub fn lock_contention(&self) -> u64 {
        self.shards.contention()
    }

    /// Runs `f` over each shard in index order (read-only; one shard
    /// locked at a time). Tests use this to check per-shard coherence.
    pub fn for_each_shard(&self, mut f: impl FnMut(usize, &Cim)) {
        for (i, shard) in self.shards.each().enumerate() {
            f(i, &shard);
        }
    }

    /// Runs `f` over each shard in index order with mutable access (one
    /// shard locked at a time). For configuration that must reach every
    /// shard, e.g. per-shard cache budgets.
    pub fn for_each_shard_mut(&self, mut f: impl FnMut(usize, &mut Cim)) {
        for (i, mut shard) in self.shards.each().enumerate() {
            f(i, &mut shard);
        }
    }
}

impl CimView for ShardedCim {
    fn lookup(&self, call: &GroundCall, now: SimInstant) -> (CimResolution, SimDuration) {
        self.shards
            .owner(&call.domain, &call.function)
            .lookup(call, now)
    }

    fn store(&self, call: GroundCall, answers: Arc<[Value]>, complete: bool, now: SimInstant) {
        self.shards
            .owner(&call.domain, &call.function)
            .store(call, answers, complete, now);
    }

    fn stale_answers(&self, call: &GroundCall) -> Option<Arc<[Value]>> {
        self.shards
            .owner(&call.domain, &call.function)
            .stale_answers(call)
    }

    fn merge_partial(
        &self,
        call: &GroundCall,
        cached: &[Value],
        actual: &[Value],
    ) -> (Vec<Value>, SimDuration) {
        self.shards
            .owner(&call.domain, &call.function)
            .merge_partial(cached, actual)
    }

    fn preview(&self, call: &GroundCall) -> CimPreview {
        self.shards
            .owner(&call.domain, &call.function)
            .preview(call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(function: &str, k: i64) -> GroundCall {
        GroundCall::new("d", function, vec![Value::Int(k)])
    }

    fn answers(k: i64) -> Arc<[Value]> {
        vec![Value::Int(k), Value::Int(k + 1)].into()
    }

    #[test]
    fn partitions_by_function_and_aggregates() {
        let sharded = ShardedCim::new(4);
        for f in 0..8 {
            let function = format!("f{f}");
            for k in 0..3 {
                sharded.store(call(&function, k), answers(k), true, SimInstant::EPOCH);
            }
        }
        assert_eq!(sharded.len(), 24);
        assert_eq!(sharded.stats().stores, 24);
        // Every entry of one function lives in exactly one shard.
        for f in 0..8 {
            let function = format!("f{f}");
            let mut holding = 0;
            sharded.for_each_shard(|_, cim| {
                if cim.cache().calls_for("d", &function).count() > 0 {
                    holding += 1;
                }
            });
            assert_eq!(holding, 1, "function {function} split across shards");
        }
    }

    #[test]
    fn lookup_round_trips_through_the_owning_shard() {
        let sharded = ShardedCim::new(8);
        let c = call("f", 7);
        sharded.store(c.clone(), answers(7), true, SimInstant::EPOCH);
        let (resolution, _) = sharded.lookup(&c, SimInstant::EPOCH);
        match resolution {
            CimResolution::ExactHit { answers: got } => assert_eq!(got[..], answers(7)[..]),
            other => panic!("expected exact hit, got {other:?}"),
        }
        let (miss, _) = sharded.lookup(&call("f", 99), SimInstant::EPOCH);
        assert!(matches!(miss, CimResolution::Miss { .. }));
    }

    #[test]
    fn from_template_replicates_invariants_and_partitions_entries() {
        let mut template = Cim::new();
        template
            .add_invariant(
                hermes_lang::parse_invariant("V1 <= V2 => d:f(V2) >= d:f(V1).").expect("parse"),
            )
            .expect("invariant");
        template.store(call("f", 1), answers(1), true, SimInstant::EPOCH);
        template.store(call("g", 2), answers(2), true, SimInstant::EPOCH);

        let sharded = ShardedCim::from_template(&template, 4);
        assert_eq!(sharded.len(), 2);
        sharded.for_each_shard(|_, cim| assert_eq!(cim.invariants().len(), 1));
        // Counters start fresh even though the template had stores.
        assert_eq!(sharded.stats().stores, 0);
        // The monotone invariant still fires inside the owning shard.
        let (resolution, _) = sharded.lookup(&call("f", 0), SimInstant::EPOCH);
        assert!(
            matches!(
                resolution,
                CimResolution::EqualHit { .. }
                    | CimResolution::PartialHit { .. }
                    | CimResolution::Miss { .. }
            ),
            "lookup must stay well-formed: {resolution:?}"
        );
    }

    #[test]
    fn invalidate_and_clear_sweep_all_shards() {
        let sharded = ShardedCim::new(3);
        for f in 0..6 {
            sharded.store(
                call(&format!("f{f}"), 0),
                answers(0),
                true,
                SimInstant::EPOCH,
            );
        }
        assert_eq!(sharded.invalidate_domain("d"), 6);
        assert!(sharded.is_empty());
        sharded.store(call("f", 0), answers(0), true, SimInstant::EPOCH);
        sharded.clear();
        assert_eq!(sharded.len(), 0);
    }
}
