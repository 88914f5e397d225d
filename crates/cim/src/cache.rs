//! The answer cache: ground call → answer set, with LRU eviction under an
//! optional byte budget.
//!
//! Beyond the entry map, the cache maintains two index structures that the
//! invariant matcher probes instead of iterating every entry (DESIGN.md §11):
//!
//! * **posting lists** — per `(domain, function)`, the set of cached calls,
//!   so an invariant direction only visits entries its template can unify
//!   with;
//! * **ordered indexes** — per registered `(domain, function, position)`,
//!   cached calls grouped by their remaining arguments and ordered by the
//!   value at `position`, so monotone (`<`/`≤`-style) invariants probe a
//!   contiguous value range instead of a list.
//!
//! **Coherence invariant**: every path that adds or removes an entry goes
//! through `AnswerCache::attach` / `AnswerCache::remove_entry`, so the
//! posting lists and ordered indexes always describe exactly the keys of
//! the entry map — eviction, replacement, invalidation, and expiry can
//! never leave a dangling index pointer.
//!
//! Answer sets are `Arc<[Value]>`: a hit hands out a reference bump, not a
//! deep copy. [`CacheStats::bytes_shared`] / [`CacheStats::bytes_copied`]
//! track how much answer data moved zero-copy vs. had to be materialized.

use hermes_common::{GroundCall, SimInstant, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One cached answer set.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The answers, in source order (shared; clone is a reference bump).
    pub answers: Arc<[Value]>,
    /// Wire size of the answers.
    pub bytes: usize,
    /// Virtual time the entry was stored.
    pub inserted_at: SimInstant,
    /// True if the full answer set was fetched (an interactive-mode stop
    /// can cache a prefix; incomplete entries can only serve partial hits).
    pub complete: bool,
    /// Number of lookups served by this entry.
    pub hits: u64,
    /// LRU clock value of the most recent touch.
    last_used: u64,
}

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Exact-lookup hits.
    pub hits: u64,
    /// Exact-lookup misses.
    pub misses: u64,
    /// Answer bytes that moved by sharing an existing allocation (an
    /// `Arc` bump): hits served zero-copy, plus stores whose answer set
    /// was already shared with the caller.
    pub bytes_shared: u64,
    /// Answer bytes materialized into a fresh allocation: stores where the
    /// caller handed an owned `Vec` that had to be converted.
    pub bytes_copied: u64,
}

/// Cached calls of one `(domain, function)` grouped by every argument
/// except the pivot position, ordered by the pivot value. `(rest, pivot)`
/// determines the call, so each group maps a pivot value to one call.
#[derive(Clone, Debug, Default)]
struct OrderedIndex {
    groups: HashMap<Vec<Value>, BTreeMap<Value, GroundCall>>,
}

impl OrderedIndex {
    fn key_of(call: &GroundCall, pos: usize) -> Option<(Vec<Value>, Value)> {
        if pos >= call.args.len() {
            return None;
        }
        let rest: Vec<Value> = call
            .args
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != pos)
            .map(|(_, v)| v.clone())
            .collect();
        Some((rest, call.args[pos].clone()))
    }

    fn insert(&mut self, call: &GroundCall, pos: usize) {
        if let Some((rest, pivot)) = Self::key_of(call, pos) {
            self.groups
                .entry(rest)
                .or_default()
                .insert(pivot, call.clone());
        }
    }

    fn remove(&mut self, call: &GroundCall, pos: usize) {
        if let Some((rest, pivot)) = Self::key_of(call, pos) {
            if let Some(group) = self.groups.get_mut(&rest) {
                group.remove(&pivot);
                if group.is_empty() {
                    self.groups.remove(&rest);
                }
            }
        }
    }
}

/// Nested per-domain / per-function map, probe-able by `&str` without
/// allocating a lookup key.
type ByFunction<T> = HashMap<Arc<str>, HashMap<Arc<str>, T>>;

fn by_function_get<'a, T>(map: &'a ByFunction<T>, domain: &str, function: &str) -> Option<&'a T> {
    map.get(domain)?.get(function)
}

/// The cache proper. Hits are served by sharing the stored `Arc<[Value]>`;
/// the mediator never deep-copies an answer set on the hit path.
#[derive(Clone, Debug, Default)]
pub struct AnswerCache {
    entries: HashMap<GroundCall, CacheEntry>,
    /// Per-`(domain, function)` posting lists over the entry keys.
    postings: ByFunction<HashSet<GroundCall>>,
    /// Registered ordered indexes: `(domain, function)` → pivot position →
    /// index. Registration survives `clear`; contents track `entries`.
    ordered: ByFunction<HashMap<usize, OrderedIndex>>,
    budget_bytes: Option<usize>,
    current_bytes: usize,
    clock: u64,
    stats: CacheStats,
}

impl AnswerCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        AnswerCache::default()
    }

    /// A cache that evicts least-recently-used entries beyond `bytes`.
    pub fn with_budget(bytes: usize) -> Self {
        AnswerCache {
            budget_bytes: Some(bytes),
            ..AnswerCache::default()
        }
    }

    /// Number of cached calls.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of cached answers.
    pub fn bytes(&self) -> usize {
        self.current_bytes
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Registers an ordered index over the value at argument `pos` of
    /// `domain:function` calls (idempotent). The invariant matcher
    /// registers one per monotone invariant side so its range probes are
    /// index lookups; unregistered functions fall back to posting lists.
    pub fn register_ordered_index(
        &mut self,
        domain: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        pos: usize,
    ) {
        let domain = domain.into();
        let function = function.into();
        let by_pos = self
            .ordered
            .entry(domain.clone())
            .or_default()
            .entry(function.clone())
            .or_default();
        if by_pos.contains_key(&pos) {
            return;
        }
        let mut index = OrderedIndex::default();
        for call in self.entries.keys() {
            if call.domain == domain && call.function == function {
                index.insert(call, pos);
            }
        }
        by_pos.insert(pos, index);
    }

    /// The cached calls of one `(domain, function)` — the posting list the
    /// invariant matcher scans instead of the whole cache.
    pub fn calls_for(&self, domain: &str, function: &str) -> impl Iterator<Item = &GroundCall> {
        by_function_get(&self.postings, domain, function)
            .into_iter()
            .flatten()
    }

    /// The ordered group for `(domain, function, pos)` whose non-pivot
    /// arguments equal `rest`: pivot value → cached call, ordered by the
    /// total order of [`Value`]. Outer `None` when no index is registered
    /// at `pos` (caller must fall back to [`AnswerCache::calls_for`]);
    /// inner `None` when the index exists but holds no such group.
    pub fn ordered_group(
        &self,
        domain: &str,
        function: &str,
        pos: usize,
        rest: &[Value],
    ) -> Option<Option<&BTreeMap<Value, GroundCall>>> {
        let by_pos = by_function_get(&self.ordered, domain, function)?;
        let index = by_pos.get(&pos)?;
        Some(index.groups.get(rest))
    }

    /// Stores an answer set. Replacing an entry refreshes its LRU position.
    pub fn insert(
        &mut self,
        call: GroundCall,
        answers: impl Into<Arc<[Value]>>,
        complete: bool,
        now: SimInstant,
    ) {
        let answers = answers.into();
        let bytes: usize = answers.iter().map(Value::size_bytes).sum();
        // A strong count above one means the caller still shares the
        // allocation (zero-copy handoff); exactly one means the answers
        // were materialized for this store.
        if Arc::strong_count(&answers) > 1 {
            self.stats.bytes_shared += bytes as u64;
        } else {
            self.stats.bytes_copied += bytes as u64;
        }
        self.clock += 1;
        self.remove_entry(&call);
        self.current_bytes += bytes;
        self.attach(&call);
        self.entries.insert(
            call,
            CacheEntry {
                answers,
                bytes,
                inserted_at: now,
                complete,
                hits: 0,
                last_used: self.clock,
            },
        );
        self.stats.inserts += 1;
        self.enforce_budget();
    }

    /// Adds `call` to the posting list and any registered ordered indexes.
    /// Paired with [`AnswerCache::remove_entry`]; see the module docs for
    /// the coherence invariant.
    fn attach(&mut self, call: &GroundCall) {
        self.postings
            .entry(call.domain.clone())
            .or_default()
            .entry(call.function.clone())
            .or_default()
            .insert(call.clone());
        if let Some(by_fn) = self.ordered.get_mut(call.domain.as_ref()) {
            if let Some(by_pos) = by_fn.get_mut(call.function.as_ref()) {
                for (pos, index) in by_pos.iter_mut() {
                    index.insert(call, *pos);
                }
            }
        }
    }

    /// Removes an entry and detaches it from every index structure. The
    /// single removal path: eviction, replacement, invalidation, expiry,
    /// and `clear` all go through here.
    fn remove_entry(&mut self, call: &GroundCall) -> Option<CacheEntry> {
        let entry = self.entries.remove(call)?;
        self.current_bytes -= entry.bytes;
        if let Some(by_fn) = self.postings.get_mut(call.domain.as_ref()) {
            if let Some(set) = by_fn.get_mut(call.function.as_ref()) {
                set.remove(call);
                if set.is_empty() {
                    by_fn.remove(call.function.as_ref());
                }
            }
        }
        if let Some(by_fn) = self.ordered.get_mut(call.domain.as_ref()) {
            if let Some(by_pos) = by_fn.get_mut(call.function.as_ref()) {
                for (pos, index) in by_pos.iter_mut() {
                    index.remove(call, *pos);
                }
            }
        }
        Some(entry)
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while self.current_bytes > budget && self.entries.len() > 1 {
            // Evict the least-recently-used entry (but never the one just
            // inserted, which is the most recent by construction).
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if self.remove_entry(&victim).is_some() {
                self.stats.evictions += 1;
            }
        }
    }

    /// Exact lookup; touches the entry's LRU position and hit counter.
    pub fn get(&mut self, call: &GroundCall) -> Option<&CacheEntry> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(call) {
            Some(e) => {
                e.last_used = clock;
                e.hits += 1;
                self.stats.hits += 1;
                self.stats.bytes_shared += e.bytes as u64;
                Some(&*e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Exact lookup without touching LRU/counters (used by invariant scans
    /// and diagnostics).
    pub fn peek(&self, call: &GroundCall) -> Option<&CacheEntry> {
        self.entries.get(call)
    }

    /// True if the call is cached with a complete answer set.
    pub fn contains_complete(&self, call: &GroundCall) -> bool {
        self.entries.get(call).is_some_and(|e| e.complete)
    }

    /// Iterates all entries (diagnostics, persistence, and the naive
    /// reference scan).
    pub fn iter(&self) -> impl Iterator<Item = (&GroundCall, &CacheEntry)> {
        self.entries.iter()
    }

    /// Drops every entry for a domain (invalidation after source update).
    /// Victims come from the posting lists, so the cost is proportional to
    /// the domain's entries, not the whole cache.
    pub fn invalidate_domain(&mut self, domain: &str) -> usize {
        let victims: Vec<GroundCall> = self
            .postings
            .get(domain)
            .map(|by_fn| by_fn.values().flatten().cloned().collect())
            .unwrap_or_default();
        for v in &victims {
            self.remove_entry(v);
        }
        victims.len()
    }

    /// Replaces the byte budget (`None` removes it), evicting immediately
    /// if the new budget is already overflowed.
    pub fn set_budget(&mut self, bytes: Option<usize>) {
        self.budget_bytes = bytes;
        self.enforce_budget();
    }

    /// Drops every entry for one `(domain, function)` — the precise
    /// invalidation a single-source answer change calls for. Victims come
    /// from the function's posting list, so the cost is proportional to
    /// that function's entries.
    pub fn invalidate_function(&mut self, domain: &str, function: &str) -> usize {
        let victims: Vec<GroundCall> = by_function_get(&self.postings, domain, function)
            .map(|list| list.iter().cloned().collect())
            .unwrap_or_default();
        for v in &victims {
            self.remove_entry(v);
        }
        victims.len()
    }

    /// Drops entries older than `max_age` relative to `now`.
    pub fn expire(&mut self, now: SimInstant, max_age: hermes_common::SimDuration) -> usize {
        let victims: Vec<GroundCall> = self
            .entries
            .iter()
            .filter(|(_, e)| now.duration_since(e.inserted_at) > max_age)
            .map(|(k, _)| k.clone())
            .collect();
        for v in &victims {
            self.remove_entry(v);
        }
        victims.len()
    }

    /// Empties the cache, keeping the stats and registered ordered-index
    /// positions (their contents are cleared with the entries).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.postings.clear();
        for by_fn in self.ordered.values_mut() {
            for by_pos in by_fn.values_mut() {
                for index in by_pos.values_mut() {
                    index.groups.clear();
                }
            }
        }
        self.current_bytes = 0;
    }

    /// Zeroes the cumulative counters without touching entries or indexes.
    /// Shard facades use this when forking a template cache so per-shard
    /// counters start from zero.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::SimDuration;

    fn call(i: i64) -> GroundCall {
        GroundCall::new("d", "f", vec![Value::Int(i)])
    }

    fn big_answers(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| Value::str(format!("answer_{i:04}")))
            .collect()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = AnswerCache::new();
        c.insert(call(1), vec![Value::Int(10)], true, SimInstant::EPOCH);
        let e = c.get(&call(1)).unwrap();
        assert_eq!(&e.answers[..], &[Value::Int(10)]);
        assert!(e.complete);
        assert_eq!(e.hits, 1);
        assert!(c.get(&call(2)).is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn reinsert_replaces_and_tracks_bytes() {
        let mut c = AnswerCache::new();
        c.insert(call(1), big_answers(10), true, SimInstant::EPOCH);
        let b1 = c.bytes();
        c.insert(call(1), big_answers(2), true, SimInstant::EPOCH);
        assert!(c.bytes() < b1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_under_budget() {
        let entry_bytes = big_answers(5).iter().map(Value::size_bytes).sum::<usize>();
        let mut c = AnswerCache::with_budget(entry_bytes * 2);
        c.insert(call(1), big_answers(5), true, SimInstant::EPOCH);
        c.insert(call(2), big_answers(5), true, SimInstant::EPOCH);
        // Touch 1 so 2 becomes the LRU victim.
        c.get(&call(1));
        c.insert(call(3), big_answers(5), true, SimInstant::EPOCH);
        assert!(c.peek(&call(1)).is_some());
        assert!(c.peek(&call(2)).is_none(), "LRU entry should be evicted");
        assert!(c.peek(&call(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes() <= entry_bytes * 2);
    }

    #[test]
    fn newest_entry_never_evicted() {
        // Budget smaller than a single entry: the newest stays anyway.
        let mut c = AnswerCache::with_budget(1);
        c.insert(call(1), big_answers(5), true, SimInstant::EPOCH);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn incomplete_entries_flagged() {
        let mut c = AnswerCache::new();
        c.insert(call(1), big_answers(3), false, SimInstant::EPOCH);
        assert!(!c.contains_complete(&call(1)));
        c.insert(call(1), big_answers(5), true, SimInstant::EPOCH);
        assert!(c.contains_complete(&call(1)));
    }

    #[test]
    fn invalidate_domain_removes_only_that_domain() {
        let mut c = AnswerCache::new();
        c.insert(call(1), big_answers(1), true, SimInstant::EPOCH);
        c.insert(
            GroundCall::new("other", "f", vec![]),
            big_answers(1),
            true,
            SimInstant::EPOCH,
        );
        assert_eq!(c.invalidate_domain("d"), 1);
        assert_eq!(c.len(), 1);
        assert!(c.peek(&GroundCall::new("other", "f", vec![])).is_some());
    }

    #[test]
    fn expiry_by_age() {
        let mut c = AnswerCache::new();
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(100);
        c.insert(call(1), big_answers(1), true, t0);
        c.insert(call(2), big_answers(1), true, t1);
        let expired = c.expire(t1, SimDuration::from_secs(50));
        assert_eq!(expired, 1);
        assert!(c.peek(&call(1)).is_none());
        assert!(c.peek(&call(2)).is_some());
    }

    #[test]
    fn clear_resets_bytes() {
        let mut c = AnswerCache::new();
        c.insert(call(1), big_answers(4), true, SimInstant::EPOCH);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn posting_lists_track_every_mutation() {
        let mut c = AnswerCache::new();
        let listed = |c: &AnswerCache| {
            let mut v: Vec<GroundCall> = c.calls_for("d", "f").cloned().collect();
            v.sort();
            v
        };
        c.insert(call(1), vec![], true, SimInstant::EPOCH);
        c.insert(call(2), vec![], true, SimInstant::EPOCH);
        assert_eq!(listed(&c), vec![call(1), call(2)]);
        // Replacement keeps one posting.
        c.insert(call(1), vec![Value::Int(9)], true, SimInstant::EPOCH);
        assert_eq!(listed(&c), vec![call(1), call(2)]);
        // Invalidation empties the list.
        c.invalidate_domain("d");
        assert!(listed(&c).is_empty());
        // Clear after reinsert empties it too.
        c.insert(call(3), vec![], true, SimInstant::EPOCH);
        c.clear();
        assert!(listed(&c).is_empty());
    }

    #[test]
    fn ordered_index_tracks_insert_evict_and_survives_clear() {
        let two = |t: &str, v: i64| GroundCall::new("d", "g", vec![Value::str(t), Value::Int(v)]);
        let mut c = AnswerCache::new();
        c.insert(two("a", 5), vec![], true, SimInstant::EPOCH);
        c.register_ordered_index("d", "g", 1);
        // Registration indexes pre-existing entries.
        let group = c
            .ordered_group("d", "g", 1, &[Value::str("a")])
            .expect("index registered")
            .expect("group exists");
        assert_eq!(group.len(), 1);
        // New inserts join their group.
        c.insert(two("a", 9), vec![], true, SimInstant::EPOCH);
        c.insert(two("b", 1), vec![], true, SimInstant::EPOCH);
        let group = c
            .ordered_group("d", "g", 1, &[Value::str("a")])
            .unwrap()
            .unwrap();
        assert_eq!(
            group.keys().cloned().collect::<Vec<_>>(),
            vec![Value::Int(5), Value::Int(9)]
        );
        // Removal detaches from the group.
        c.expire(
            SimInstant::EPOCH + SimDuration::from_secs(100),
            SimDuration::from_secs(1),
        );
        assert!(c
            .ordered_group("d", "g", 1, &[Value::str("a")])
            .unwrap()
            .is_none());
        // Registration survives clear: new entries are indexed again.
        c.insert(two("a", 7), vec![], true, SimInstant::EPOCH);
        c.clear();
        c.insert(two("a", 8), vec![], true, SimInstant::EPOCH);
        let group = c
            .ordered_group("d", "g", 1, &[Value::str("a")])
            .unwrap()
            .unwrap();
        assert_eq!(
            group.keys().cloned().collect::<Vec<_>>(),
            vec![Value::Int(8)]
        );
        // Unregistered position: outer None, caller falls back.
        assert!(c.ordered_group("d", "g", 0, &[Value::Int(8)]).is_none());
    }

    #[test]
    fn shared_vs_copied_byte_accounting() {
        let mut c = AnswerCache::new();
        // Owned Vec: materialized, counts as copied.
        c.insert(call(1), big_answers(2), true, SimInstant::EPOCH);
        let copied = c.stats().bytes_copied;
        assert!(copied > 0);
        assert_eq!(c.stats().bytes_shared, 0);
        // Shared Arc: zero-copy store.
        let shared: Arc<[Value]> = big_answers(2).into();
        c.insert(call(2), shared.clone(), true, SimInstant::EPOCH);
        assert_eq!(c.stats().bytes_copied, copied);
        let after_store = c.stats().bytes_shared;
        assert!(after_store > 0);
        // Hits are served zero-copy.
        c.get(&call(1));
        assert!(c.stats().bytes_shared > after_store);
    }
}
