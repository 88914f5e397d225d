//! Typed tables with hash and ordered indexes.

use hermes_common::{HermesError, Record, Result, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Column value type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integers.
    Int,
    /// 64-bit floats (integers are accepted and widen).
    Float,
    /// Strings.
    Str,
    /// Booleans.
    Bool,
    /// Any value type (no checking).
    Any,
}

impl ColumnType {
    /// True if `v` is acceptable for this column.
    pub fn admits(self, v: &Value) -> bool {
        match self {
            ColumnType::Int => matches!(v, Value::Int(_)),
            ColumnType::Float => v.is_number(),
            ColumnType::Str => matches!(v, Value::Str(_)),
            ColumnType::Bool => matches!(v, Value::Bool(_)),
            ColumnType::Any => true,
        }
    }
}

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: Arc<str>,
    /// Column type.
    pub ctype: ColumnType,
}

impl Column {
    /// Builds a column.
    pub fn new(name: impl Into<Arc<str>>, ctype: ColumnType) -> Self {
        Column {
            name: name.into(),
            ctype,
        }
    }
}

/// An ordered list of columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema; column names must be unique.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name == c.name) {
                return Err(HermesError::Type(format!("duplicate column `{}`", c.name)));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience: all-`Any` schema from names.
    pub fn untyped(names: &[&str]) -> Self {
        Schema {
            columns: names
                .iter()
                .map(|n| Column::new(*n, ColumnType::Any))
                .collect(),
        }
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.as_ref() == name)
    }
}

/// A heap of rows plus per-column indexes.
///
/// Rows are stored as [`Record`]s sharing the schema's column names, so a
/// row flows through the mediator as a complex value whose attributes rule
/// conditions can select (`Tuple.loc`).
#[derive(Clone, Debug)]
pub struct Table {
    name: Arc<str>,
    schema: Schema,
    rows: Vec<Arc<Record>>,
    /// Hash indexes: column position → value → row ids.
    hash_indexes: HashMap<usize, HashMap<Value, Vec<usize>>>,
    /// Ordered indexes: column position → value → row ids.
    ordered_indexes: HashMap<usize, BTreeMap<Value, Vec<usize>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<Arc<str>>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            hash_indexes: HashMap::new(),
            ordered_indexes: HashMap::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row given values in schema order. Type-checks each value.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.schema.width() {
            return Err(HermesError::Type(format!(
                "table `{}` has {} columns, row has {}",
                self.name,
                self.schema.width(),
                values.len()
            )));
        }
        for (c, v) in self.schema.columns().iter().zip(&values) {
            if !c.ctype.admits(v) {
                return Err(HermesError::Type(format!(
                    "column `{}` of `{}` rejects value `{v}`",
                    c.name, self.name
                )));
            }
        }
        let row_id = self.rows.len();
        let rec = Record::from_fields(
            self.schema
                .columns()
                .iter()
                .zip(values.iter())
                .map(|(c, v)| (c.name.clone(), v.clone())),
        );
        // Maintain existing indexes.
        for (pos, idx) in self.hash_indexes.iter_mut() {
            idx.entry(values[*pos].clone()).or_default().push(row_id);
        }
        for (pos, idx) in self.ordered_indexes.iter_mut() {
            idx.entry(values[*pos].clone()).or_default().push(row_id);
        }
        self.rows.push(Arc::new(rec));
        Ok(())
    }

    /// Bulk insert.
    pub fn insert_all<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Builds a hash index on `column`. Idempotent.
    pub fn create_hash_index(&mut self, column: &str) -> Result<()> {
        let pos = self.position(column)?;
        if self.hash_indexes.contains_key(&pos) {
            return Ok(());
        }
        let mut idx: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            let v = row.get_pos(pos + 1).expect("row matches schema").clone();
            idx.entry(v).or_default().push(i);
        }
        self.hash_indexes.insert(pos, idx);
        Ok(())
    }

    /// Builds an ordered (range) index on `column`. Idempotent.
    pub fn create_ordered_index(&mut self, column: &str) -> Result<()> {
        let pos = self.position(column)?;
        if self.ordered_indexes.contains_key(&pos) {
            return Ok(());
        }
        let mut idx: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            let v = row.get_pos(pos + 1).expect("row matches schema").clone();
            idx.entry(v).or_default().push(i);
        }
        self.ordered_indexes.insert(pos, idx);
        Ok(())
    }

    fn position(&self, column: &str) -> Result<usize> {
        self.schema.position(column).ok_or_else(|| {
            HermesError::Type(format!("table `{}` has no column `{column}`", self.name))
        })
    }

    /// All rows in storage order.
    pub fn scan(&self) -> impl Iterator<Item = &Arc<Record>> {
        self.rows.iter()
    }

    /// Rows whose `column` equals `value`, plus the number of rows the
    /// lookup *touched* (for the cost model): index probes touch only the
    /// matches; scans touch every row.
    pub fn select_eq(&self, column: &str, value: &Value) -> Result<(Vec<Arc<Record>>, usize)> {
        let pos = self.position(column)?;
        if let Some(idx) = self.hash_indexes.get(&pos) {
            let rows: Vec<_> = idx
                .get(value)
                .map(|ids| ids.iter().map(|i| self.rows[*i].clone()).collect())
                .unwrap_or_default();
            let touched = rows.len();
            return Ok((rows, touched));
        }
        if let Some(idx) = self.ordered_indexes.get(&pos) {
            let rows: Vec<_> = idx
                .get(value)
                .map(|ids| ids.iter().map(|i| self.rows[*i].clone()).collect())
                .unwrap_or_default();
            let touched = rows.len();
            return Ok((rows, touched));
        }
        let rows: Vec<_> = self
            .rows
            .iter()
            .filter(|r| r.get_pos(pos + 1) == Some(value))
            .cloned()
            .collect();
        Ok((rows, self.rows.len()))
    }

    /// Rows with `lo <= column <= hi` (either bound optional), plus rows
    /// touched. Uses the ordered index when available.
    pub fn select_range(
        &self,
        column: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<(Vec<Arc<Record>>, usize)> {
        let pos = self.position(column)?;
        let in_range = |v: &Value| lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v <= h);
        if let Some(idx) = self.ordered_indexes.get(&pos) {
            use std::ops::Bound;
            let lower = lo.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
            let upper = hi.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
            // An inverted range (lo > hi) would panic in BTreeMap::range.
            if let (Some(l), Some(h)) = (lo, hi) {
                if l > h {
                    return Ok((Vec::new(), 0));
                }
            }
            let mut rows = Vec::new();
            for (_, ids) in idx.range((lower, upper)) {
                rows.extend(ids.iter().map(|i| self.rows[*i].clone()));
            }
            let touched = rows.len();
            return Ok((rows, touched));
        }
        let rows: Vec<_> = self
            .rows
            .iter()
            .filter(|r| r.get_pos(pos + 1).is_some_and(in_range))
            .cloned()
            .collect();
        Ok((rows, self.rows.len()))
    }

    /// Distinct values of `column`, in first-occurrence order, plus rows
    /// touched (always a full scan).
    pub fn project_distinct(&self, column: &str) -> Result<(Vec<Value>, usize)> {
        let pos = self.position(column)?;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.rows {
            let v = r.get_pos(pos + 1).expect("row matches schema");
            if seen.insert(v.clone()) {
                out.push(v.clone());
            }
        }
        Ok((out, self.rows.len()))
    }

    /// Number of distinct values in `column` (exact; used by the native
    /// cost estimator).
    pub fn distinct_count(&self, column: &str) -> Result<usize> {
        Ok(self.project_distinct(column)?.0.len())
    }

    /// Loads rows from delimiter-separated text, one row per line, values
    /// parsed with [`Value::parse_scalar`]. Blank lines are skipped.
    pub fn load_csv(&mut self, text: &str, delimiter: char) -> Result<usize> {
        let mut n = 0;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let values: Vec<Value> = line.split(delimiter).map(Value::parse_scalar).collect();
            self.insert(values)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cast_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("name", ColumnType::Str),
            Column::new("role", ColumnType::Str),
        ])
        .unwrap();
        let mut t = Table::new("cast", schema);
        t.insert_all([
            vec![Value::str("james stewart"), Value::str("rupert")],
            vec![Value::str("john dall"), Value::str("brandon")],
            vec![Value::str("farley granger"), Value::str("phillip")],
            vec![Value::str("joan chandler"), Value::str("janet")],
        ])
        .unwrap();
        t
    }

    #[test]
    fn insert_and_scan() {
        let t = cast_table();
        assert_eq!(t.len(), 4);
        let first = t.scan().next().unwrap();
        assert_eq!(first.get("role"), Some(&Value::str("rupert")));
    }

    #[test]
    fn schema_rejects_duplicates_and_bad_types() {
        assert!(Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("a", ColumnType::Int),
        ])
        .is_err());
        let mut t = Table::new(
            "t",
            Schema::new(vec![Column::new("n", ColumnType::Int)]).unwrap(),
        );
        assert!(t.insert(vec![Value::str("x")]).is_err());
        assert!(t.insert(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(t.insert(vec![Value::Int(1)]).is_ok());
    }

    #[test]
    fn float_column_admits_ints() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Column::new("x", ColumnType::Float)]).unwrap(),
        );
        assert!(t.insert(vec![Value::Int(1)]).is_ok());
        assert!(t.insert(vec![Value::Float(1.5)]).is_ok());
    }

    #[test]
    fn select_eq_scan_vs_index_touch_counts() {
        let mut t = cast_table();
        let (rows, touched) = t.select_eq("role", &Value::str("brandon")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(touched, 4); // full scan
        t.create_hash_index("role").unwrap();
        let (rows, touched) = t.select_eq("role", &Value::str("brandon")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(touched, 1); // index probe
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = cast_table();
        t.create_hash_index("role").unwrap();
        t.insert(vec![Value::str("dick hogan"), Value::str("david")])
            .unwrap();
        let (rows, _) = t.select_eq("role", &Value::str("david")).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn select_eq_missing_value_is_empty() {
        let t = cast_table();
        let (rows, _) = t.select_eq("role", &Value::str("nobody")).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn select_range_with_and_without_index() {
        let mut t = Table::new(
            "nums",
            Schema::new(vec![Column::new("x", ColumnType::Int)]).unwrap(),
        );
        t.insert_all((0..10).map(|i| vec![Value::Int(i)])).unwrap();
        let (rows, touched) = t
            .select_range("x", Some(&Value::Int(3)), Some(&Value::Int(6)))
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(touched, 10);
        t.create_ordered_index("x").unwrap();
        let (rows, touched) = t
            .select_range("x", Some(&Value::Int(3)), Some(&Value::Int(6)))
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(touched, 4);
        // open-ended
        let (rows, _) = t.select_range("x", Some(&Value::Int(8)), None).unwrap();
        assert_eq!(rows.len(), 2);
        // inverted range is empty, not a panic
        let (rows, _) = t
            .select_range("x", Some(&Value::Int(6)), Some(&Value::Int(3)))
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn project_distinct_preserves_order() {
        let mut t = Table::new("t", Schema::untyped(&["a"]));
        t.insert_all([
            vec![Value::str("x")],
            vec![Value::str("y")],
            vec![Value::str("x")],
        ])
        .unwrap();
        let (vals, touched) = t.project_distinct("a").unwrap();
        assert_eq!(vals, vec![Value::str("x"), Value::str("y")]);
        assert_eq!(touched, 3);
        assert_eq!(t.distinct_count("a").unwrap(), 2);
    }

    #[test]
    fn unknown_column_errors() {
        let t = cast_table();
        assert!(t.select_eq("nope", &Value::Int(1)).is_err());
        assert!(t.select_range("nope", None, None).is_err());
        assert!(t.project_distinct("nope").is_err());
    }

    #[test]
    fn load_csv_parses_scalars() {
        let mut t = Table::new("t", Schema::untyped(&["name", "qty"]));
        let n = t.load_csv("fuel,10\n\nammo,25\n", ',').unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.len(), 2);
        let (rows, _) = t.select_eq("qty", &Value::Int(25)).unwrap();
        assert_eq!(rows[0].get("name"), Some(&Value::str("ammo")));
    }
}
