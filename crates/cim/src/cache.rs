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
//! Under a byte budget the least recently used entry goes first. While a
//! budget is set, a doubly linked recency list over slot indices keeps
//! that order, so a hit relinks its slot (no allocation, no second hash
//! probe) and an eviction takes the list's head instead of scanning every
//! entry. A cache without a budget evicts nothing and keeps no list.
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
    /// The entry's slot in the recency list; [`NIL`] without a budget.
    slot: Slot,
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

/// A slot of the recency list, by index; 32 bits keep the links small.
type Slot = u32;

/// The end of the recency list.
const NIL: Slot = Slot::MAX;

/// The cached calls in recency order, least recent first: a doubly linked
/// list over slots, one per entry. Freed slots are chained through `next`
/// and reused, so a cache of steady size stops allocating slots.
#[derive(Clone, Debug)]
struct Recency {
    slots: Vec<RecencySlot>,
    oldest: Slot,
    newest: Slot,
    /// The first free slot.
    free: Slot,
}

#[derive(Clone, Debug)]
struct RecencySlot {
    /// The entry's call; `None` for a free slot.
    call: Option<GroundCall>,
    prev: Slot,
    next: Slot,
}

impl Default for Recency {
    fn default() -> Self {
        Recency {
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            free: NIL,
        }
    }
}

impl Recency {
    /// Links `call` in as the most recent; returns its slot.
    fn push(&mut self, call: GroundCall) -> Slot {
        let slot = if self.free == NIL {
            // At well over 100 bytes an entry, no cache holds 2^32 - 1.
            let slot = self.slots.len() as Slot;
            self.slots.push(RecencySlot {
                call: Some(call),
                prev: NIL,
                next: NIL,
            });
            slot
        } else {
            let slot = self.free;
            self.free = self.at(slot).next;
            self.at(slot).call = Some(call);
            slot
        };
        self.link_newest(slot);
        slot
    }

    /// Makes `slot` the most recent.
    fn touch(&mut self, slot: Slot) {
        if self.newest != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// Unlinks `slot` and frees it.
    fn remove(&mut self, slot: Slot) {
        self.unlink(slot);
        let free = self.free;
        let freed = self.at(slot);
        freed.call = None;
        freed.next = free;
        self.free = slot;
    }

    /// The least recently used call.
    fn oldest(&self) -> Option<&GroundCall> {
        self.slots.get(self.oldest as usize)?.call.as_ref()
    }

    fn clear(&mut self) {
        self.slots.clear();
        (self.oldest, self.newest, self.free) = (NIL, NIL, NIL);
    }

    fn at(&mut self, slot: Slot) -> &mut RecencySlot {
        &mut self.slots[slot as usize]
    }

    fn link_newest(&mut self, slot: Slot) {
        let newest = self.newest;
        let linked = self.at(slot);
        (linked.prev, linked.next) = (newest, NIL);
        match newest {
            NIL => self.oldest = slot,
            _ => self.at(newest).next = slot,
        }
        self.newest = slot;
    }

    fn unlink(&mut self, slot: Slot) {
        let RecencySlot { prev, next, .. } = *self.at(slot);
        match prev {
            NIL => self.oldest = next,
            _ => self.at(prev).next = next,
        }
        match next {
            NIL => self.newest = prev,
            _ => self.at(next).prev = prev,
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
    recency: Recency,
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
        let slot = match self.budget_bytes {
            Some(_) => self.recency.push(call.clone()),
            None => NIL,
        };
        self.entries.insert(
            call,
            CacheEntry {
                answers,
                bytes,
                inserted_at: now,
                complete,
                hits: 0,
                last_used: self.clock,
                slot,
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
        if entry.slot != NIL {
            self.recency.remove(entry.slot);
        }
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
            let Some(victim) = self.recency.oldest().cloned() else {
                break;
            };
            if self.remove_entry(&victim).is_some() {
                self.stats.evictions += 1;
            }
        }
    }

    /// The least recently used entry, found by scanning every entry's
    /// last-use stamp: how eviction chose before the recency list, kept
    /// as its reference.
    #[cfg(any(test, feature = "spec"))]
    pub fn lru_victim_naive(&self) -> Option<&GroundCall> {
        self.entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k)
    }

    /// Exact lookup; touches the entry's LRU position and hit counter.
    pub fn get(&mut self, call: &GroundCall) -> Option<&CacheEntry> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(call) {
            Some(e) => {
                e.last_used = clock;
                if e.slot != NIL {
                    self.recency.touch(e.slot);
                }
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
        match (self.budget_bytes, bytes) {
            (None, Some(_)) => self.link_by_last_use(),
            (Some(_), None) => {
                self.recency.clear();
                self.entries.values_mut().for_each(|e| e.slot = NIL);
            }
            _ => {}
        }
        self.budget_bytes = bytes;
        self.enforce_budget();
    }

    /// Links every entry into the empty recency list, least recently used
    /// first, as a budget is set.
    fn link_by_last_use(&mut self) {
        let mut by_last_use: Vec<(u64, GroundCall)> = self
            .entries
            .iter()
            .map(|(k, e)| (e.last_used, k.clone()))
            .collect();
        by_last_use.sort_unstable_by_key(|(last_used, _)| *last_used);
        for (_, call) in by_last_use {
            let slot = self.recency.push(call.clone());
            if let Some(e) = self.entries.get_mut(&call) {
                e.slot = slot;
            }
        }
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
        self.recency.clear();
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

    /// An empty cache with this one's budget and registered ordered
    /// indexes, and zeroed counters. Built from the settings alone: the
    /// entries are never copied.
    pub fn fork_empty(&self) -> AnswerCache {
        let ordered = self.ordered.iter().map(|(domain, by_fn)| {
            let by_fn = by_fn.iter().map(|(function, by_pos)| {
                let empty = by_pos.keys().map(|&pos| (pos, OrderedIndex::default()));
                (function.clone(), empty.collect())
            });
            (domain.clone(), by_fn.collect())
        });
        AnswerCache {
            ordered: ordered.collect(),
            budget_bytes: self.budget_bytes,
            ..AnswerCache::default()
        }
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
        assert!(!c.peek(&call(1)).unwrap().complete);
        c.insert(call(1), big_answers(5), true, SimInstant::EPOCH);
        assert!(c.peek(&call(1)).unwrap().complete);
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

    /// The calls in the recency list's order, least recent first.
    fn recency_order(c: &AnswerCache) -> Vec<GroundCall> {
        let mut out = Vec::new();
        let mut slot = c.recency.oldest;
        while slot != NIL {
            let linked = &c.recency.slots[slot as usize];
            out.push(linked.call.clone().expect("a linked slot"));
            slot = linked.next;
        }
        out
    }

    /// The calls by last-use stamp, oldest first: the order the scan evicts
    /// them in.
    fn stamp_order(c: &AnswerCache) -> Vec<GroundCall> {
        let mut by_stamp: Vec<_> = c.iter().map(|(k, e)| (e.last_used, k.clone())).collect();
        by_stamp.sort();
        by_stamp.into_iter().map(|(_, k)| k).collect()
    }

    /// One step of the differential test.
    #[derive(Debug)]
    enum Op {
        Insert(GroundCall, Vec<Value>, SimInstant),
        Get(GroundCall),
        Invalidate,
        Expire(SimInstant),
        Clear,
        Budget(Option<usize>),
    }

    impl Op {
        /// Runs the op through the cache's API, which enforces the budget.
        fn run(&self, c: &mut AnswerCache) {
            match self {
                Op::Insert(k, answers, at) => c.insert(k.clone(), answers.clone(), true, *at),
                Op::Get(k) => _ = c.get(k),
                Op::Invalidate => _ = c.invalidate_function("d", "g"),
                Op::Expire(now) => _ = c.expire(*now, SimDuration::from_secs(30)),
                Op::Clear => c.clear(),
                Op::Budget(b) => c.set_budget(*b),
            }
        }
    }

    /// `op` run on a copy of `before` with the budget lifted, then the
    /// budget enforced by the stamp scan: the copy and the scan's victims.
    fn scanned(before: &AnswerCache, op: &Op) -> (AnswerCache, Vec<GroundCall>) {
        let mut model = before.clone();
        model.budget_bytes = None;
        let budget = match op {
            Op::Budget(b) => *b,
            _ => {
                op.run(&mut model);
                before.budget_bytes
            }
        };
        model.budget_bytes = budget;
        let mut victims = Vec::new();
        while budget.is_some_and(|b| model.bytes() > b) && model.len() > 1 {
            let victim = model.lru_victim_naive().unwrap().clone();
            model.remove_entry(&victim);
            victims.push(victim);
        }
        (model, victims)
    }

    #[test]
    fn the_recency_list_evicts_what_the_stamp_scan_evicts() {
        let mut rng = hermes_common::Rng64::new(45);
        let mut cache = AnswerCache::with_budget(300);
        let (mut evicting, mut now) = (0, SimInstant::EPOCH);
        for _ in 0..5_000 {
            let function = if rng.chance(0.7) { "f" } else { "g" };
            let key = GroundCall::new("d", function, vec![Value::Int(rng.range_i64(0, 40))]);
            now = now + SimDuration::from_secs(1);
            let op = match rng.range_usize(0, 100) {
                0..=49 => Op::Insert(key, big_answers(rng.range_usize(1, 6)), now),
                50..=89 => Op::Get(key),
                90..=92 => Op::Invalidate,
                93..=95 => Op::Expire(now),
                96 => Op::Clear,
                _ => Op::Budget([None, Some(150), Some(300), Some(600)][rng.range_usize(0, 4)]),
            };
            let (model, expected) = scanned(&cache, &op);
            let evictions = cache.stats().evictions;
            op.run(&mut cache);
            // The list evicts as many entries as the scan, the same ones,
            // and keeps the stamps' order, so it takes them in the scan's
            // order; without a budget it holds nothing.
            let n = (cache.stats().evictions - evictions) as usize;
            assert_eq!(n, expected.len(), "{op:?}");
            evicting += usize::from(n > 0);
            let mut keys: Vec<&GroundCall> = cache.iter().map(|(k, _)| k).collect();
            let mut want: Vec<&GroundCall> = model.iter().map(|(k, _)| k).collect();
            keys.sort();
            want.sort();
            assert_eq!(keys, want, "{op:?}");
            match cache.budget_bytes {
                Some(_) => assert_eq!(recency_order(&cache), stamp_order(&cache)),
                None => assert!(recency_order(&cache).is_empty()),
            }
        }
        assert!(evicting > 300, "{evicting} evicting ops");
    }

    #[test]
    fn a_hit_touches_its_slot_in_place() {
        let mut c = AnswerCache::with_budget(1 << 20);
        for i in 0..8 {
            c.insert(call(i), big_answers(1), true, SimInstant::EPOCH);
        }
        let slots = c.recency.slots.len();
        c.get(&call(0));
        c.get(&call(3));
        assert_eq!(c.recency.slots.len(), slots);
        let order: Vec<GroundCall> = [1, 2, 4, 5, 6, 7, 0, 3].map(call).into();
        assert_eq!(recency_order(&c), order);
        // A freed slot is reused by the next insert.
        c.invalidate_domain("d");
        c.insert(call(9), big_answers(1), true, SimInstant::EPOCH);
        assert_eq!(c.recency.slots.len(), slots);
        assert_eq!(recency_order(&c), vec![call(9)]);
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
