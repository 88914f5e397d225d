//! The cost vector database: full-detail statistics of executed calls
//! (§6.1, the tables of Figure 2).
//!
//! ## Indexed aggregation (DESIGN.md §11)
//!
//! [`CostVectorDb::aggregate`] no longer scans the record list per probe.
//! Records are stored per `domain:function`, and each function keeps
//! lazily-built aggregation cells keyed by *pattern shape* — the
//! `(constant-position bitmask, arity)` pair a [`CallPattern`] projects to
//! (the precomputed `$b`-mask key) — then by the projected constant
//! values. The §6.3 relaxation lattice walk therefore costs one hash probe
//! per relaxation step instead of one scan of the statistics rows.
//!
//! Cells accumulate component sums in record-insertion order, both when a
//! shape is first built and when [`CostVectorDb::record`] appends to
//! already-built shapes, so the averages are bitwise identical to the
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
//! cell has summed is ever dropped, and `record` keeps built shapes
//! current, so [`CostVectorDb::aggregate`] — and with it every estimate
//! and plan choice — stays bitwise what it would be over the full
//! history. Only the raw-detail readers ([`CostVectorDb::records_for`],
//! [`CostVectorDb::distinct_args`], [`CostVectorDb::aggregate_scan`],
//! lossless summarization, `persist::save`) see the window.
//!
//! A fold finds full history to build from: the first one because nothing
//! was dropped before it, a later one because every record since the
//! previous fold is still held, and a shape that fold left unbuilt had no
//! record of its arity before it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cost::CostVector;
use hermes_common::sync::Mutex;
use hermes_common::{CallPattern, GroundCall, SimInstant, Value};
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

/// Running component sums for one group of records, in insertion order.
#[derive(Clone, Copy, Debug, Default)]
struct AggCell {
    t_first: (f64, usize),
    t_all: (f64, usize),
    card: (f64, usize),
    matched: usize,
}

impl AggCell {
    fn add(&mut self, v: &CostVector) {
        self.matched += 1;
        if let Some(x) = v.t_first_ms {
            self.t_first.0 += x;
            self.t_first.1 += 1;
        }
        if let Some(x) = v.t_all_ms {
            self.t_all.0 += x;
            self.t_all.1 += 1;
        }
        if let Some(x) = v.cardinality {
            self.card.0 += x;
            self.card.1 += 1;
        }
    }

    fn finish(&self) -> (CostVector, usize) {
        let avg = |(s, n): (f64, usize)| if n > 0 { Some(s / n as f64) } else { None };
        (
            CostVector {
                t_first_ms: avg(self.t_first),
                t_all_ms: avg(self.t_all),
                cardinality: avg(self.card),
            },
            self.matched,
        )
    }
}

/// One function's records plus its lazily-built aggregation cells.
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
    index: Mutex<HashMap<ShapeKey, HashMap<Vec<Value>, AggCell>>>,
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
    /// Builds the cells for one shape by a single insertion-order scan.
    fn build_shape(
        records: &[CallRecord],
        mask: u64,
        arity: usize,
    ) -> HashMap<Vec<Value>, AggCell> {
        let mut cells: HashMap<Vec<Value>, AggCell> = HashMap::new();
        for r in records {
            if r.call.args.len() != arity {
                continue;
            }
            cells
                .entry(project(&r.call.args, mask))
                .or_default()
                .add(&r.vector);
        }
        cells
    }

    /// Builds the shapes not yet built for the arities held, then drops
    /// the oldest records down to [`DETAIL_WINDOW`].
    fn fold(&mut self) {
        let index = self.index.get_mut();
        for arity in 0..=self.widest {
            if !self.records.iter().any(|r| r.call.args.len() == arity) {
                continue;
            }
            for mask in 0..1u64 << arity {
                index
                    .entry((mask, arity))
                    .or_insert_with(|| Self::build_shape(&self.records, mask, arity));
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

/// The record's argument values at the mask's constant positions.
fn project(args: &[Value], mask: u64) -> Vec<Value> {
    args.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v.clone())
        .collect()
}

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
        let stats = self
            .records
            .entry(call.domain.clone())
            .or_default()
            .entry(call.function.clone())
            .or_default();
        stats.widest = stats.widest.max(call.args.len());
        for ((mask, arity), cells) in stats.index.get_mut().iter_mut() {
            if *arity != call.args.len() {
                continue;
            }
            cells
                .entry(project(&call.args, *mask))
                .or_default()
                .add(&vector);
        }
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
    /// aggregation cells answer for, whether or not the record is retained.
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
    /// storage" metric the summarization experiments report).
    pub fn approx_bytes(&self) -> usize {
        self.all_stats()
            .flat_map(|s| &s.records)
            .map(|r| r.call.request_bytes() + 3 * std::mem::size_of::<f64>() + 8)
            .sum()
    }

    /// The retained records of one `domain:function`, oldest first.
    pub fn records_for(&self, domain: &str, function: &str) -> &[CallRecord] {
        self.stats_for(domain, function)
            .map(|s| s.records.as_slice())
            .unwrap_or(&[])
    }

    /// The `(domain, function)` pairs with records, sorted.
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
    /// paper uses (§6.1, Example 6.1). Returns the averaged vector and the
    /// number of records aggregated.
    ///
    /// One hash probe against the shape index (built on first use for each
    /// `$b`-mask), keyed without allocating; falls back to
    /// [`CostVectorDb::aggregate_scan`] only for arities beyond the 64-bit
    /// mask.
    pub fn aggregate(&self, pattern: &CallPattern) -> (CostVector, usize) {
        let Some(mask) = pattern.mask_bits() else {
            return self.aggregate_scan(pattern);
        };
        let Some(stats) = self.stats_for(&pattern.domain, &pattern.function) else {
            return (CostVector::default(), 0);
        };
        let mut index = stats.index.lock();
        let cells = index.entry((mask, pattern.args.len())).or_insert_with(|| {
            FunctionStats::build_shape(&stats.records, mask, pattern.args.len())
        });
        let cell = with_stack_slice(
            pattern.constants().cloned(),
            || Value::Null,
            |key| cells.get(key).copied(),
        );
        cell.unwrap_or_default().finish()
    }

    /// The linear-scan reference implementation of
    /// [`CostVectorDb::aggregate`]: kept as the executable specification
    /// (equivalence tests assert bitwise-identical results while nothing
    /// has been dropped from the detail window) and as the fallback for
    /// unmaskable arities, which never fold.
    pub fn aggregate_scan(&self, pattern: &CallPattern) -> (CostVector, usize) {
        let mut cell = AggCell::default();
        for r in self.records_for(&pattern.domain, &pattern.function) {
            if !pattern.matches(&r.call) {
                continue;
            }
            cell.add(&r.vector);
        }
        cell.finish()
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

    /// Drops all records (and index cells) for one function (after
    /// summarization, §6.2). Returns how many observations that forgets.
    pub fn drop_function(&mut self, domain: &str, function: &str) -> usize {
        let Some(by_fn) = self.records.get_mut(domain) else {
            return 0;
        };
        let Some(stats) = by_fn.remove(function) else {
            return 0;
        };
        if by_fn.is_empty() {
            self.records.remove(domain);
        }
        self.total -= stats.recorded;
        stats.recorded
    }

    /// Copies one function's statistics from `other`, replacing what this
    /// database held for it: the retained records *and* the aggregation
    /// cells, so history older than the detail window comes along.
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
        let mut cell = AggCell::default();
        for (_, vector) in history.iter().filter(|(call, _)| pattern.matches(call)) {
            cell.add(vector);
        }
        cell.finish()
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
