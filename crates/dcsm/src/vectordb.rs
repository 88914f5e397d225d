//! The cost vector database: full-detail statistics of executed calls
//! (§6.1, the tables of Figure 2), and the DCSM's one aggregate store.
//!
//! ## The shape index (DESIGN.md §11)
//!
//! [`CostVectorDb::aggregate`] does not scan the record list per probe.
//! Records are stored per `domain:function`, and each function keeps one
//! [`SummaryTable`] per *pattern shape* — the `(constant-position bitmask,
//! arity)` pair a [`CallPattern`] projects to (the precomputed `$b`-mask
//! key) — whose rows are keyed by the projected constant values. The §6.3
//! relaxation lattice walk therefore costs one hash probe per relaxation
//! step instead of one scan of the statistics rows.
//!
//! A shape is built lazily, by the first probe of its mask or by a fold,
//! and then answers as detail: its row's `l` is the number of records
//! aggregated. A shape *flagged* by [`Dcsm::build_table`](crate::Dcsm::build_table)
//! is a §6.2 summary table: it answers with constant lookup work, decays
//! under `recency_decay`, counts in [`CostVectorDb::approx_bytes`] and
//! outlives [`CostVectorDb::drop_function`]. There is no second copy of the
//! rows: flagging a built shape keeps them.
//!
//! Rows accumulate component sums in record-insertion order, both when a
//! shape is first built and when [`CostVectorDb::record`] appends to
//! already-built shapes, so undecayed averages are bitwise identical to the
//! retained [`CostVectorDb::aggregate_scan`] reference (floating-point
//! addition is not associative; order is part of the contract).
//!
//! ## The detail window
//!
//! The raw record list is a bounded recent log, not the whole history
//! (§6.2: full detail is "a heavy burden on storage"). When a function
//! holds `2 ×` [`DETAIL_WINDOW`] records it *folds*: every shape of the
//! arities present that is not built yet is built from the records still
//! held, and the oldest records are dropped down to the window. Nothing a
//! shape has summed is ever dropped, and `record` keeps built shapes
//! current, so [`CostVectorDb::aggregate`] — and with it every estimate
//! and plan choice — stays bitwise what it would be over the full
//! history. Only the raw-detail readers ([`CostVectorDb::records_for`],
//! [`CostVectorDb::distinct_args`], [`CostVectorDb::aggregate_scan`],
//! [`SummaryTable::summarize`], `persist::save`) and a shape built after a
//! fold see the window.
//!
//! A fold finds full history to build from: the first one because nothing
//! was dropped before it, a later one because every record since the
//! previous fold is still held, and a shape that fold left unbuilt had no
//! record of its arity before it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cost::CostVector;
use crate::summary::{SummaryRow, SummaryTable};
use hermes_common::sync::Mutex;
use hermes_common::{CallPattern, GroundCall, PatternShape, SimInstant, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One recorded observation: `(domain call, cost vector, record_time)`.
#[derive(Clone, Debug, PartialEq)]
pub struct CallRecord {
    /// The executed call.
    pub call: GroundCall,
    /// The observed cost vector (possibly partial).
    pub vector: CostVector,
    /// Virtual time of the observation.
    pub recorded_at: SimInstant,
}

/// Records a function keeps after a fold; a fold runs at twice this.
pub const DETAIL_WINDOW: usize = 1024;

/// The widest call a fold builds every shape for (`2^arity` of them). A
/// function that has recorded a wider call keeps its whole history.
const FOLD_MAX_ARITY: usize = 6;

/// A pattern shape: the constant-position bitmask plus the arity (the mask
/// alone cannot distinguish `f(a)` from `f(a, $b)`).
type ShapeKey = (u64, usize);

/// The index key of a shape, `None` past 64 positions.
fn key_of(shape: &PatternShape) -> Option<ShapeKey> {
    let mask = shape.const_mask.iter().enumerate();
    let arity = shape.const_mask.len();
    (arity <= 64).then(|| (mask.fold(0, |m, (i, c)| m | u64::from(*c) << i), arity))
}

/// One function's records plus its shape index.
///
/// The index is interior-mutable so the read-only [`CostVectorDb::aggregate`]
/// can build a shape on its first probe; [`CostVectorDb::record`] keeps
/// already-built shapes current incrementally.
#[derive(Debug, Default)]
struct FunctionStats {
    /// The most recent observations (see the module doc's detail window).
    records: Vec<CallRecord>,
    /// Every observation ever recorded, dropped ones included.
    recorded: usize,
    /// The widest call ever recorded; past [`FOLD_MAX_ARITY`] nothing folds.
    widest: usize,
    index: Mutex<HashMap<ShapeKey, SummaryTable>>,
}

impl Clone for FunctionStats {
    fn clone(&self) -> Self {
        FunctionStats {
            records: self.records.clone(),
            recorded: self.recorded,
            widest: self.widest,
            index: Mutex::new(self.index.lock().clone()),
        }
    }
}

impl FunctionStats {
    /// Builds the shapes not yet built for the arities held, then drops
    /// the oldest records down to [`DETAIL_WINDOW`].
    fn fold(&mut self) {
        let Some(first) = self.records.first() else {
            return;
        };
        let (domain, function) = (&first.call.domain, &first.call.function);
        let index = self.index.get_mut();
        for arity in 0..=self.widest {
            if !self.records.iter().any(|r| r.call.args.len() == arity) {
                continue;
            }
            for mask in 0..1u64 << arity {
                index.entry((mask, arity)).or_insert_with(|| {
                    let dims = (0..arity).map(|i| mask >> i & 1 == 1).collect();
                    let shape = PatternShape::new(domain.clone(), function.clone(), dims);
                    SummaryTable::scan(shape, &self.records)
                });
            }
        }
        self.records.drain(..self.records.len() - DETAIL_WINDOW);
    }
}

/// Items a probe key holds on the stack; a longer key is collected.
const STACK_KEY: usize = 8;

/// Runs `f` on `items` laid out as one slice, on the stack when there are
/// at most [`STACK_KEY`] of them, so that a hash probe keyed by a
/// pattern's projection allocates nothing (`HashMap<Vec<T>, _>` answers
/// `get(&[T])`). `blank` fills the unused stack slots.
pub(crate) fn with_stack_slice<T, R>(
    items: impl IntoIterator<Item = T>,
    blank: impl Fn() -> T,
    f: impl FnOnce(&[T]) -> R,
) -> R {
    let mut buf: [T; STACK_KEY] = std::array::from_fn(|_| blank());
    let mut items = items.into_iter();
    let mut len = 0;
    // `zip` takes a slot before an item, so no item is dropped at the end.
    for (slot, item) in buf.iter_mut().zip(&mut items) {
        *slot = item;
        len += 1;
    }
    match items.next() {
        None => f(&buf[..len]),
        Some(more) => {
            let mut spilled: Vec<T> = buf.into_iter().collect();
            spilled.push(more);
            spilled.extend(items);
            f(&spilled)
        }
    }
}

/// What one shape of the index says about a pattern: whether the shape is a
/// flagged summary table, and the matching row's vector and `l`, if any.
pub(crate) type Probe = (bool, Option<(CostVector, usize)>);

/// Full-detail statistics, one record list per `domain:function`.
#[derive(Clone, Debug, Default)]
pub struct CostVectorDb {
    records: HashMap<Arc<str>, HashMap<Arc<str>, FunctionStats>>,
    total: usize,
}

impl CostVectorDb {
    /// An empty database.
    pub fn new() -> Self {
        CostVectorDb::default()
    }

    /// Records an observation. Shapes already built for this function are
    /// extended in place (the new observation's components are added last,
    /// matching what a fresh insertion-order scan would compute).
    pub fn record(&mut self, call: GroundCall, vector: CostVector, recorded_at: SimInstant) {
        self.observe(call, vector, recorded_at, true, None);
    }

    /// [`CostVectorDb::record`] as a DCSM takes it: with `decay`, every
    /// summary table of the function decays first; with `keep` false the
    /// observation reaches only the shapes already built, not the detail.
    pub(crate) fn observe(
        &mut self,
        call: GroundCall,
        vector: CostVector,
        recorded_at: SimInstant,
        keep: bool,
        decay: Option<f64>,
    ) {
        let stats = match keep {
            true => Some(
                self.records
                    .entry(call.domain.clone())
                    .or_default()
                    .entry(call.function.clone())
                    .or_default(),
            ),
            false => self
                .records
                .get_mut(&call.domain)
                .and_then(|functions| functions.get_mut(&call.function)),
        };
        let Some(stats) = stats else {
            return;
        };
        for (&(_, arity), table) in stats.index.get_mut().iter_mut() {
            if let Some(factor) = decay.filter(|_| table.flagged) {
                table.decay_all(factor);
            }
            if arity == call.args.len() {
                table.add(&call.args, &vector);
            }
        }
        if !keep {
            return;
        }
        stats.widest = stats.widest.max(call.args.len());
        stats.records.push(CallRecord {
            call,
            vector,
            recorded_at,
        });
        stats.recorded += 1;
        self.total += 1;
        if stats.records.len() >= 2 * DETAIL_WINDOW && stats.widest <= FOLD_MAX_ARITY {
            stats.fold();
        }
    }

    /// Observations recorded and not dropped with their function — all the
    /// shapes answer for, whether or not the record is retained.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Records retained as raw detail (at most `len()`).
    pub fn detail_len(&self) -> usize {
        self.all_stats().map(|s| s.records.len()).sum()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Approximate storage footprint in bytes (the §6.2 "heavy burden on
    /// storage" metric the summarization experiments report): the retained
    /// records plus the summary tables.
    pub fn approx_bytes(&self) -> usize {
        let detail = self
            .all_stats()
            .flat_map(|s| &s.records)
            .map(|r| r.call.request_bytes() + 3 * std::mem::size_of::<f64>() + 8);
        let tables = self.all_stats().map(|s| {
            let index = s.index.lock();
            let flagged = index.values().filter(|t| t.flagged);
            flagged.map(SummaryTable::approx_bytes).sum::<usize>()
        });
        detail.sum::<usize>() + tables.sum::<usize>()
    }

    /// The retained records of one `domain:function`, oldest first.
    pub fn records_for(&self, domain: &str, function: &str) -> &[CallRecord] {
        self.stats_for(domain, function)
            .map(|s| s.records.as_slice())
            .unwrap_or(&[])
    }

    /// The `(domain, function)` pairs with records or summary tables,
    /// sorted.
    pub fn functions(&self) -> Vec<(Arc<str>, Arc<str>)> {
        let mut keys: Vec<_> = self
            .records
            .iter()
            .flat_map(|(d, m)| m.keys().map(move |f| (d.clone(), f.clone())))
            .collect();
        keys.sort();
        keys
    }

    /// Aggregates the records matching `pattern` with the plain average the
    /// paper uses (§6.1, Example 6.1) — or, if the pattern's shape is a
    /// summary table, that table's row. Returns the averaged vector and the
    /// number of records aggregated.
    ///
    /// One hash probe against the shape index (built on first use for each
    /// `$b`-mask), keyed without allocating; falls back to
    /// [`CostVectorDb::aggregate_scan`] only for arities beyond the 64-bit
    /// mask.
    pub fn aggregate(&self, pattern: &CallPattern) -> (CostVector, usize) {
        match self.probe(pattern, true) {
            Some((_, Some(found))) => found,
            _ => (CostVector::default(), 0),
        }
    }

    /// One lookup of `pattern` in its shape. A shape not built yet is built
    /// when `detail` is true; when it is false, only a summary table
    /// answers. `None` if neither applies.
    pub(crate) fn probe(&self, pattern: &CallPattern, detail: bool) -> Option<Probe> {
        let Some(mask) = pattern.mask_bits() else {
            return detail.then(|| {
                let (v, n) = self.aggregate_scan(pattern);
                (false, (n > 0).then_some((v, n)))
            });
        };
        let stats = self.stats_for(&pattern.domain, &pattern.function)?;
        let mut index = stats.index.lock();
        let table = match index.entry((mask, pattern.args.len())) {
            Entry::Occupied(built) => built.into_mut(),
            Entry::Vacant(unbuilt) if detail => {
                unbuilt.insert(SummaryTable::scan(pattern.shape(), &stats.records))
            }
            Entry::Vacant(_) => return None,
        };
        if !(table.flagged || detail) {
            return None;
        }
        let row = with_stack_slice(
            pattern.constants().cloned(),
            || Value::Null,
            |key| table.rows.get(key).map(|r| (r.vector(), r.l as usize)),
        );
        Some((table.flagged, row))
    }

    /// The linear-scan reference implementation of
    /// [`CostVectorDb::aggregate`]: kept as the executable specification
    /// (equivalence tests assert bitwise-identical results while nothing
    /// has been dropped from the detail window) and as the fallback for
    /// unmaskable arities, which never fold.
    pub fn aggregate_scan(&self, pattern: &CallPattern) -> (CostVector, usize) {
        let mut row = SummaryRow::default();
        for r in self.records_for(&pattern.domain, &pattern.function) {
            if pattern.matches(&r.call) {
                row.add(&r.vector);
            }
        }
        (row.vector(), row.l as usize)
    }

    /// Flags `shape` as a summary table. A built shape keeps its rows, and
    /// with them its full history; an unbuilt one is built by one
    /// record-order scan of the retained records. False if `shape` was a
    /// table already or is wider than 64 positions.
    pub(crate) fn flag(&mut self, shape: PatternShape) -> bool {
        let Some(key) = key_of(&shape) else {
            return false;
        };
        let stats = self
            .records
            .entry(shape.domain.clone())
            .or_default()
            .entry(shape.function.clone())
            .or_default();
        let table = match stats.index.get_mut().entry(key) {
            Entry::Occupied(built) => built.into_mut(),
            Entry::Vacant(unbuilt) => unbuilt.insert(SummaryTable::scan(shape, &stats.records)),
        };
        !std::mem::replace(&mut table.flagged, true)
    }

    /// Removes the summary table of `shape`; a later probe rebuilds the
    /// shape from the retained records. False if it was not a table.
    pub(crate) fn drop_table(&mut self, shape: &PatternShape) -> bool {
        let stats = self
            .records
            .get_mut(&shape.domain)
            .and_then(|functions| functions.get_mut(&shape.function));
        let (Some(stats), Some(key)) = (stats, key_of(shape)) else {
            return false;
        };
        let index = stats.index.get_mut();
        let flagged = index.get(&key).is_some_and(|t| t.flagged);
        if flagged {
            index.remove(&key);
        }
        flagged
    }

    /// The shapes flagged as summary tables, sorted.
    pub(crate) fn tables(&self) -> Vec<PatternShape> {
        let mut shapes: Vec<PatternShape> = self
            .all_stats()
            .flat_map(|s| {
                let index = s.index.lock();
                let flagged = index.values().filter(|t| t.flagged);
                flagged.map(|t| t.shape.clone()).collect::<Vec<_>>()
            })
            .collect();
        shapes.sort();
        shapes
    }

    /// The distinct argument vectors observed for `domain:function` —
    /// the dimension-value combinations a lossless summary will have rows
    /// for.
    pub fn distinct_args(&self, domain: &str, function: &str) -> Vec<Vec<Value>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in self.records_for(domain, function) {
            if seen.insert(&r.call.args) {
                out.push(r.call.args.to_vec());
            }
        }
        out
    }

    /// Drops one function's records and every shape that is not a summary
    /// table (after summarization, §6.2). Returns how many observations
    /// that forgets.
    pub fn drop_function(&mut self, domain: &str, function: &str) -> usize {
        let Some(by_fn) = self.records.get_mut(domain) else {
            return 0;
        };
        let Some(stats) = by_fn.get_mut(function) else {
            return 0;
        };
        let forgotten = std::mem::take(&mut stats.recorded);
        stats.records = Vec::new();
        let index = stats.index.get_mut();
        index.retain(|_, t| t.flagged);
        if index.is_empty() {
            by_fn.remove(function);
            if by_fn.is_empty() {
                self.records.remove(domain);
            }
        }
        self.total -= forgotten;
        forgotten
    }

    /// Copies one function's statistics from `other`, replacing what this
    /// database held for it: the retained records *and* every shape,
    /// summary tables included, so history older than the detail window
    /// comes along.
    pub fn adopt_function(&mut self, other: &CostVectorDb, domain: &str, function: &str) {
        let Some(stats) = other.stats_for(domain, function) else {
            return;
        };
        self.drop_function(domain, function);
        self.total += stats.recorded;
        self.records
            .entry(domain.into())
            .or_default()
            .insert(function.into(), stats.clone());
    }

    fn all_stats(&self) -> impl Iterator<Item = &FunctionStats> {
        self.records.values().flat_map(|m| m.values())
    }

    fn stats_for(&self, domain: &str, function: &str) -> Option<&FunctionStats> {
        self.records.get(domain).and_then(|m| m.get(function))
    }
}

/// Builds the paper's Figure 2 example tables (T16–T19) as a database —
/// shared by unit tests here and the `fig_2_3_4_summaries` bench.
pub fn figure2_database() -> CostVectorDb {
    let mut db = CostVectorDb::new();
    let t = SimInstant::EPOCH;
    // (T16) d1:p_bf — dimension {A}, metrics (Card, T_a).
    for (a, card, ta) in [
        ("a", 3.0, 2.00),
        ("a", 3.0, 2.20),
        ("b", 4.0, 2.80),
        ("b", 4.0, 2.84),
    ] {
        db.record(
            GroundCall::new("d1", "p_bf", vec![Value::str(a)]),
            CostVector {
                t_first_ms: None,
                t_all_ms: Some(ta),
                cardinality: Some(card),
            },
            t,
        );
    }
    // (T17) d1:p_bb — dimensions {A, B}.
    for (a, b, card, ta) in [
        ("a", 1i64, 1.0, 0.20),
        ("a", 2, 1.0, 0.22),
        ("b", 1, 1.0, 0.21),
        ("b", 3, 0.0, 0.18),
    ] {
        db.record(
            GroundCall::new("d1", "p_bb", vec![Value::str(a), Value::Int(b)]),
            CostVector {
                t_first_ms: None,
                t_all_ms: Some(ta),
                cardinality: Some(card),
            },
            t,
        );
    }
    // (T18) d2:q_bf — dimension {B}.
    for (b, card, ta) in [(1i64, 2.0, 1.10), (2, 3.0, 1.30), (3, 2.0, 1.15)] {
        db.record(
            GroundCall::new("d2", "q_bf", vec![Value::Int(b)]),
            CostVector {
                t_first_ms: None,
                t_all_ms: Some(ta),
                cardinality: Some(card),
            },
            t,
        );
    }
    // (T19) d2:q_ff — no dimensions.
    for (card, ta) in [(7.0, 5.00), (7.0, 5.40)] {
        db.record(
            GroundCall::new("d2", "q_ff", vec![]),
            CostVector {
                t_first_ms: None,
                t_all_ms: Some(ta),
                cardinality: Some(card),
            },
            t,
        );
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::PatArg;

    #[test]
    fn record_and_lookup() {
        let db = figure2_database();
        assert_eq!(db.len(), 13);
        assert_eq!(db.records_for("d1", "p_bf").len(), 4);
        assert_eq!(db.records_for("d1", "nope").len(), 0);
        assert_eq!(db.functions().len(), 4);
    }

    #[test]
    fn paper_example_6_1_exact_average() {
        // "estimate the cost of d1:p_bf(a) ... (2.00 + 2.20)/2 = 2.10"
        let db = figure2_database();
        let p = GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern();
        let (v, n) = db.aggregate(&p);
        assert_eq!(n, 2);
        assert!((v.t_all_ms.unwrap() - 2.10).abs() < 1e-9);
        assert!((v.cardinality.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example_6_1_blanket_average() {
        // "d1:p_bf($b) ... (2.00+2.20+2.80+2.84)/4"
        let db = figure2_database();
        let p = CallPattern::new("d1", "p_bf", vec![PatArg::Bound]);
        let (v, n) = db.aggregate(&p);
        assert_eq!(n, 4);
        assert!((v.t_all_ms.unwrap() - 9.84 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_ignores_missing_components() {
        let mut db = CostVectorDb::new();
        db.record(
            GroundCall::new("d", "f", vec![]),
            CostVector {
                t_first_ms: Some(1.0),
                t_all_ms: None,
                cardinality: Some(4.0),
            },
            SimInstant::EPOCH,
        );
        db.record(
            GroundCall::new("d", "f", vec![]),
            CostVector {
                t_first_ms: Some(3.0),
                t_all_ms: Some(10.0),
                cardinality: None,
            },
            SimInstant::EPOCH,
        );
        let (v, n) = db.aggregate(&GroundCall::new("d", "f", vec![]).pattern());
        assert_eq!(n, 2);
        assert_eq!(v.t_first_ms, Some(2.0));
        assert_eq!(v.t_all_ms, Some(10.0)); // only one observation
        assert_eq!(v.cardinality, Some(4.0));
    }

    #[test]
    fn aggregate_no_match_is_empty() {
        let db = figure2_database();
        let p = GroundCall::new("d1", "p_bf", vec![Value::str("zzz")]).pattern();
        let (v, n) = db.aggregate(&p);
        assert_eq!(n, 0);
        assert_eq!(v, CostVector::default());
    }

    #[test]
    fn indexed_aggregate_matches_scan_bitwise() {
        let db = figure2_database();
        let patterns = [
            GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern(),
            CallPattern::new("d1", "p_bf", vec![PatArg::Bound]),
            CallPattern::new(
                "d1",
                "p_bb",
                vec![PatArg::Const(Value::str("a")), PatArg::Bound],
            ),
            CallPattern::new(
                "d1",
                "p_bb",
                vec![PatArg::Bound, PatArg::Const(Value::Int(1))],
            ),
            GroundCall::new("d2", "q_ff", vec![]).pattern(),
        ];
        for p in &patterns {
            let (iv, in_) = db.aggregate(p);
            let (sv, sn) = db.aggregate_scan(p);
            assert_eq!(in_, sn, "matched count for {p}");
            // Bitwise, not approximate: insertion-order sums must agree.
            assert_eq!(iv.t_all_ms.map(f64::to_bits), sv.t_all_ms.map(f64::to_bits));
            assert_eq!(
                iv.t_first_ms.map(f64::to_bits),
                sv.t_first_ms.map(f64::to_bits)
            );
            assert_eq!(
                iv.cardinality.map(f64::to_bits),
                sv.cardinality.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn built_shapes_stay_current_after_record() {
        let mut db = figure2_database();
        let p = GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern();
        assert_eq!(db.aggregate(&p).1, 2); // builds the (0b1, 1) shape
        db.record(
            GroundCall::new("d1", "p_bf", vec![Value::str("a")]),
            CostVector {
                t_first_ms: None,
                t_all_ms: Some(4.0),
                cardinality: Some(3.0),
            },
            SimInstant::EPOCH,
        );
        let (v, n) = db.aggregate(&p);
        assert_eq!(n, 3);
        let (sv, sn) = db.aggregate_scan(&p);
        assert_eq!(n, sn);
        assert_eq!(v.t_all_ms.map(f64::to_bits), sv.t_all_ms.map(f64::to_bits));
    }

    #[test]
    fn a_stack_slice_holds_every_item_in_order_however_many() {
        for n in [0, 1, STACK_KEY, STACK_KEY + 1, 3 * STACK_KEY] {
            let items: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            let got = with_stack_slice(items.iter().cloned(), || Value::Null, <[Value]>::to_vec);
            assert_eq!(got, items, "{n} items");
        }
    }

    #[test]
    fn distinct_args_deduplicates() {
        let db = figure2_database();
        let args = db.distinct_args("d1", "p_bf");
        assert_eq!(args.len(), 2); // 'a' and 'b'
    }

    #[test]
    fn drop_function_frees_records() {
        let mut db = figure2_database();
        let before = db.approx_bytes();
        assert_eq!(db.drop_function("d1", "p_bf"), 4);
        assert_eq!(db.len(), 9);
        assert!(db.approx_bytes() < before);
        assert_eq!(db.drop_function("d1", "p_bf"), 0);
    }

    // ------------------------------------------------ the detail window

    use hermes_common::Rng64;

    /// A call over 258 distinct keys of arity 1–3.
    fn windowed_call(rng: &mut Rng64) -> GroundCall {
        let arity = rng.range_usize(1, 4);
        let args = (0..arity).map(|_| Value::Int(rng.range_i64(0, 6)));
        GroundCall::new("d", "f", args.collect::<Vec<_>>())
    }

    fn random_vector(rng: &mut Rng64) -> CostVector {
        let mut component = || rng.chance(0.9).then(|| rng.range_f64(0.1, 50.0));
        CostVector {
            t_first_ms: component(),
            t_all_ms: component(),
            cardinality: component(),
        }
    }

    /// `call`'s pattern with a random subset of its constants relaxed.
    fn random_shape(rng: &mut Rng64, call: &GroundCall) -> CallPattern {
        let args = call.args.iter().map(|v| match rng.chance(0.5) {
            true => PatArg::Const(v.clone()),
            false => PatArg::Bound,
        });
        CallPattern::new("d", "f", args.collect())
    }

    /// What `aggregate` must return: a scan over the whole history.
    fn scan(history: &[(GroundCall, CostVector)], pattern: &CallPattern) -> (CostVector, usize) {
        let mut row = SummaryRow::default();
        for (_, vector) in history.iter().filter(|(call, _)| pattern.matches(call)) {
            row.add(vector);
        }
        (row.vector(), row.l as usize)
    }

    fn bits(v: (CostVector, usize)) -> ([Option<u64>; 3], usize) {
        let c = v.0;
        (
            [c.t_first_ms, c.t_all_ms, c.cardinality].map(|x| x.map(f64::to_bits)),
            v.1,
        )
    }

    #[test]
    fn aggregates_over_a_folded_window_equal_a_scan_of_the_full_history() {
        let mut rng = Rng64::new(0xD37A11);
        let mut db = CostVectorDb::new();
        let mut history: Vec<(GroundCall, CostVector)> = Vec::new();
        let total = 5 * 2 * DETAIL_WINDOW;
        for i in 0..total {
            let (call, vector) = (windowed_call(&mut rng), random_vector(&mut rng));
            db.record(call.clone(), vector, SimInstant::EPOCH);
            history.push((call, vector));
            assert!(db.records_for("d", "f").len() < 2 * DETAIL_WINDOW);
            // Probe before the first fold, between folds and after the last:
            // a shape built lazily at any of those moments must stay exact.
            if i % 97 == 0 || i + 1 == total {
                for _ in 0..4 {
                    let seen = &history[rng.range_usize(0, history.len())].0;
                    let pattern = random_shape(&mut rng, seen);
                    assert_eq!(
                        bits(db.aggregate(&pattern)),
                        bits(scan(&history, &pattern)),
                        "{pattern} after {} records",
                        i + 1
                    );
                }
            }
        }
        assert_eq!(db.len(), total);
        assert_eq!(db.detail_len(), db.records_for("d", "f").len());
        assert!(db.detail_len() >= DETAIL_WINDOW);
        // The retained records are the most recent ones, oldest first.
        let kept = db.records_for("d", "f");
        let tail = &history[history.len() - kept.len()..];
        assert!(kept.iter().zip(tail).all(|(r, (call, _))| &r.call == call));
    }

    #[test]
    fn len_counts_every_observation_and_drop_function_forgets_them_all() {
        let mut rng = Rng64::new(7);
        let mut db = figure2_database();
        for _ in 0..3 * DETAIL_WINDOW {
            let vector = random_vector(&mut rng);
            db.record(windowed_call(&mut rng), vector, SimInstant::EPOCH);
        }
        assert_eq!(db.len(), 13 + 3 * DETAIL_WINDOW);
        assert!(db.detail_len() < 13 + 2 * DETAIL_WINDOW);
        assert_eq!(db.drop_function("d", "f"), 3 * DETAIL_WINDOW);
        assert_eq!((db.len(), db.detail_len()), (13, 13));
    }

    #[test]
    fn a_function_wider_than_the_fold_limit_keeps_every_record() {
        let mut db = CostVectorDb::new();
        let wide = |k: i64| {
            let args = (0..=FOLD_MAX_ARITY as i64).map(|i| Value::Int(i * k % 3));
            GroundCall::new("d", "wide", args.collect::<Vec<_>>())
        };
        let total = 2 * DETAIL_WINDOW + 10;
        for k in 0..total {
            db.record(wide(k as i64), CostVector::default(), SimInstant::EPOCH);
        }
        assert_eq!(db.records_for("d", "wide").len(), total);
        let pattern = wide(1).pattern();
        assert_eq!(db.aggregate(&pattern).1, db.aggregate_scan(&pattern).1);
    }

    #[test]
    fn adopting_a_folded_function_carries_its_whole_history() {
        let mut rng = Rng64::new(11);
        let mut source = CostVectorDb::new();
        for _ in 0..3 * DETAIL_WINDOW {
            let vector = random_vector(&mut rng);
            source.record(windowed_call(&mut rng), vector, SimInstant::EPOCH);
        }
        let mut copy = figure2_database();
        copy.adopt_function(&source, "d", "f");
        copy.adopt_function(&source, "d", "absent");
        assert_eq!(copy.len(), 13 + source.len());
        let blanket = CallPattern::new("d", "f", vec![PatArg::Bound, PatArg::Bound]);
        assert_eq!(
            bits(copy.aggregate(&blanket)),
            bits(source.aggregate(&blanket))
        );
        assert!(copy.aggregate(&blanket).1 > source.aggregate_scan(&blanket).1);
    }
}
