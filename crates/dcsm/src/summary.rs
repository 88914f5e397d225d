//! Summary tables: lossless (§6.2.1) and lossy (§6.2.2) summarization.
//!
//! A summary table is identified by a [`PatternShape`] — which argument
//! positions remain *dimensions* (constants). Each row averages the records
//! with identical dimension values and counts them (the paper's `l`). The
//! lossless table keeps every position as a dimension (Figure 3); a lossy
//! one drops some (Figure 4), and the fully-lossy table has a single row.
//!
//! Every table is summed in record order, so a lossy row is bitwise the
//! average a scan of the records gives. The DCSM's one statistics store,
//! the shape index of [`CostVectorDb`], holds one `SummaryTable` per shape
//! it has built; a shape flagged by [`Dcsm::build_table`](crate::Dcsm::build_table)
//! or [`Dcsm::maintain`](crate::Dcsm::maintain) is what the paper calls a
//! summary table. [`SummaryTable::summarize`] builds one outside the store.

use crate::cost::{CostVector, MeanAgg};
use crate::vectordb::{CallRecord, CostVectorDb};
use hermes_common::{CallPattern, PatternShape, Value};
use std::collections::HashMap;

/// One row of a summary table: averaged metrics plus the tuple count `l`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SummaryRow {
    /// Mean time-to-first-answer.
    pub t_first: MeanAgg,
    /// Mean time-to-all-answers.
    pub t_all: MeanAgg,
    /// Mean cardinality.
    pub card: MeanAgg,
    /// Number of original detail tuples aggregated (the paper's `l`).
    pub l: u64,
}

impl SummaryRow {
    /// Folds one observation in.
    pub fn add(&mut self, v: &CostVector) {
        if let Some(x) = v.t_first_ms {
            self.t_first.add(x);
        }
        if let Some(x) = v.t_all_ms {
            self.t_all.add(x);
        }
        if let Some(x) = v.cardinality {
            self.card.add(x);
        }
        self.l += 1;
    }

    /// Applies recency decay to all metrics.
    pub fn decay(&mut self, factor: f64) {
        self.t_first.decay(factor);
        self.t_all.decay(factor);
        self.card.decay(factor);
    }

    /// The row's averaged cost vector.
    pub fn vector(&self) -> CostVector {
        CostVector {
            t_first_ms: self.t_first.mean(),
            t_all_ms: self.t_all.mean(),
            cardinality: self.card.mean(),
        }
    }
}

/// A summary table of one shape.
#[derive(Clone, Debug)]
pub struct SummaryTable {
    /// The shape (which positions are dimensions).
    pub shape: PatternShape,
    pub(crate) rows: HashMap<Vec<Value>, SummaryRow>,
    /// Flagged as a §6.2 summary table: it answers estimates as
    /// `Summary`, decays, counts in `approx_bytes` and outlives the detail.
    pub(crate) flagged: bool,
}

impl SummaryTable {
    /// An empty table of the given shape.
    pub fn new(shape: PatternShape) -> Self {
        SummaryTable {
            shape,
            rows: HashMap::new(),
            flagged: false,
        }
    }

    /// The table of `shape` over the retained records of its function in
    /// `db`, summed in record order.
    pub fn summarize(db: &CostVectorDb, shape: PatternShape) -> SummaryTable {
        let records = db.records_for(&shape.domain, &shape.function);
        SummaryTable::scan(shape, records)
    }

    /// The table of `shape` over `records` of its function, summed in
    /// record order; records of another arity are skipped.
    pub(crate) fn scan(shape: PatternShape, records: &[CallRecord]) -> SummaryTable {
        let mut table = SummaryTable::new(shape);
        for r in records {
            if r.call.args.len() == table.shape.const_mask.len() {
                table.add(&r.call.args, &r.vector);
            }
        }
        table
    }

    /// Folds in one observation of a call with `args` of this table's
    /// arity, under its values at the dimension positions.
    pub(crate) fn add(&mut self, args: &[Value], v: &CostVector) {
        let key = args
            .iter()
            .zip(&self.shape.const_mask)
            .filter(|(_, keep)| **keep)
            .map(|(v, _)| v.clone())
            .collect();
        self.rows.entry(key).or_default().add(v);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate storage footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.rows
            .keys()
            .map(|k| {
                k.iter().map(Value::size_bytes).sum::<usize>()
                    + 3 * 2 * std::mem::size_of::<f64>()
                    + 8
            })
            .sum()
    }

    /// Row lookup for a pattern whose constant positions are exactly this
    /// shape's dimensions. `None` if the pattern has a different shape or
    /// the row is absent.
    pub fn lookup(&self, pattern: &CallPattern) -> Option<&SummaryRow> {
        if pattern.shape() != self.shape {
            return None;
        }
        self.rows.get(&pattern.const_values())
    }

    /// Iterates `(dimension key, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &SummaryRow)> {
        self.rows.iter()
    }

    /// Applies recency decay to every row.
    pub fn decay_all(&mut self, factor: f64) {
        for row in self.rows.values_mut() {
            row.decay(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectordb::figure2_database;
    use hermes_common::{GroundCall, PatArg, SimInstant};

    fn shape(domain: &str, function: &str, const_mask: &[bool]) -> PatternShape {
        PatternShape::new(domain, function, const_mask.to_vec())
    }

    #[test]
    fn paper_figure_3_lossless_summary_of_t16() {
        // (T20): tuples with A='a' aggregate to Card=3, T_a=2.10, l=2;
        //        A='b' to Card=4, T_a=2.82, l=2.
        let db = figure2_database();
        let t = SummaryTable::summarize(&db, shape("d1", "p_bf", &[true]));
        assert_eq!(t.len(), 2);
        let row_a = t
            .lookup(&CallPattern::new(
                "d1",
                "p_bf",
                vec![PatArg::Const(Value::str("a"))],
            ))
            .unwrap();
        assert_eq!(row_a.l, 2);
        assert!((row_a.t_all.mean().unwrap() - 2.10).abs() < 1e-9);
        assert!((row_a.card.mean().unwrap() - 3.0).abs() < 1e-9);
        let row_b = t
            .lookup(&CallPattern::new(
                "d1",
                "p_bf",
                vec![PatArg::Const(Value::str("b"))],
            ))
            .unwrap();
        assert!((row_b.t_all.mean().unwrap() - 2.82).abs() < 1e-9);
    }

    #[test]
    fn paper_figure_3_lossless_summary_of_t19() {
        // (T21): q_ff has no dimensions; a single row with l=2, T_a=5.20.
        let db = figure2_database();
        let t = SummaryTable::summarize(&db, shape("d2", "q_ff", &[]));
        assert_eq!(t.len(), 1);
        let row = t.lookup(&CallPattern::new("d2", "q_ff", vec![])).unwrap();
        assert_eq!(row.l, 2);
        assert!((row.t_all.mean().unwrap() - 5.20).abs() < 1e-9);
        assert!((row.card.mean().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn paper_figure_4_lossy_drop_b_dimension() {
        // §6.2.2 / Example 6.2: q_bf's B can never be a known constant, so
        // drop it: the lossy table has one row averaging all of (T18).
        let db = figure2_database();
        let lossless = SummaryTable::summarize(&db, shape("d2", "q_bf", &[true]));
        assert_eq!(lossless.len(), 3);
        let lossy = SummaryTable::summarize(&db, shape("d2", "q_bf", &[false]));
        assert_eq!(lossy.len(), 1);
        let row = lossy
            .lookup(&CallPattern::new("d2", "q_bf", vec![PatArg::Bound]))
            .unwrap();
        assert_eq!(row.l, 3);
        // (1.10 + 1.30 + 1.15)/3
        assert!((row.t_all.mean().unwrap() - 3.55 / 3.0).abs() < 1e-9);
        // (2 + 3 + 2)/3
        assert!((row.card.mean().unwrap() - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lossy_equals_direct_summarization_of_detail() {
        let db = figure2_database();
        let lossy = SummaryTable::summarize(&db, shape("d1", "p_bb", &[true, false]));
        // Compare against aggregating detail directly.
        let (direct, n) = db.aggregate(&CallPattern::new(
            "d1",
            "p_bb",
            vec![PatArg::Const(Value::str("a")), PatArg::Bound],
        ));
        let row = lossy
            .lookup(&CallPattern::new(
                "d1",
                "p_bb",
                vec![PatArg::Const(Value::str("a")), PatArg::Bound],
            ))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            row.t_all.mean().map(f64::to_bits),
            direct.t_all_ms.map(f64::to_bits)
        );
        assert_eq!(
            row.card.mean().map(f64::to_bits),
            direct.cardinality.map(f64::to_bits)
        );
    }

    #[test]
    fn summarization_shrinks_storage() {
        let db = figure2_database();
        let lossless = SummaryTable::summarize(&db, shape("d1", "p_bb", &[true, true]));
        let lossy = SummaryTable::summarize(&db, shape("d1", "p_bb", &[false, false]));
        assert!(lossy.approx_bytes() < lossless.approx_bytes());
    }

    #[test]
    fn a_table_summarizes_only_records_of_its_function_and_arity() {
        let mut db = CostVectorDb::new();
        let v = CostVector::full(1.0, 2.0, 3.0);
        for call in [
            GroundCall::new("d", "f", vec![Value::Int(1)]),
            GroundCall::new("d", "f", vec![]),
            GroundCall::new("d", "g", vec![Value::Int(1)]),
        ] {
            db.record(call, v, SimInstant::EPOCH);
        }
        let t = SummaryTable::summarize(&db, shape("d", "f", &[true]));
        assert_eq!(t.len(), 1);
        let row = t.lookup(&GroundCall::new("d", "f", vec![Value::Int(1)]).pattern());
        assert_eq!(row.map(|r| r.l), Some(1));
    }

    #[test]
    fn lookup_requires_matching_shape() {
        let db = figure2_database();
        let t = SummaryTable::summarize(&db, shape("d1", "p_bf", &[true]));
        // A $b pattern does not match the all-dimensions shape.
        assert!(t
            .lookup(&CallPattern::new("d1", "p_bf", vec![PatArg::Bound]))
            .is_none());
    }
}
