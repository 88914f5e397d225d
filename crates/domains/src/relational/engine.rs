//! The relational domain: function surface, cost model, native estimator.

use crate::domain::{CallOutcome, ComputeCost, CostHint, Domain, FunctionSig, NativeEstimator};
use crate::relational::table::Table;
use hermes_common::sync::RwLock;
use hermes_common::{CallPattern, HermesError, PatArg, Result, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunable compute-cost parameters of the engine, in microseconds.
///
/// The defaults model a mid-1990s relational server: ~1µs per row scanned,
/// ~4µs per produced tuple (formatting/copy), 800µs of per-query startup
/// (parse + plan + process dispatch).
#[derive(Clone, Copy, Debug)]
pub struct RelationalCostParams {
    /// Fixed per-call startup, µs.
    pub startup_us: f64,
    /// Cost per row touched by a scan or index probe, µs.
    pub per_row_us: f64,
    /// Cost per result tuple produced, µs.
    pub per_result_us: f64,
}

impl Default for RelationalCostParams {
    fn default() -> Self {
        RelationalCostParams {
            startup_us: 800.0,
            per_row_us: 1.0,
            per_result_us: 4.0,
        }
    }
}

/// The relational engine exposed as a mediator domain.
///
/// Exported functions (all arguments ground, per §3):
///
/// | function | args | answers |
/// |---|---|---|
/// | `all` | table | every row, as records |
/// | `count` | table | singleton row count |
/// | `select_eq` | table, column, value | rows with `column = value` |
/// | `select_lt` / `select_le` / `select_gt` / `select_ge` | table, column, value | rows satisfying the comparison |
/// | `select_range` | table, column, lo, hi | rows with `lo <= column <= hi` |
/// | `project` | table, column | distinct column values |
/// | `agg` | table, column, op | singleton aggregate; op ∈ `sum`, `min`, `max`, `avg`, `count_distinct` |
pub struct RelationalDomain {
    name: Arc<str>,
    tables: RwLock<BTreeMap<Arc<str>, Table>>,
    params: RelationalCostParams,
    estimator: RelationalEstimator,
}

impl RelationalDomain {
    /// Creates an engine with default cost parameters.
    pub fn new(name: impl Into<Arc<str>>) -> Arc<Self> {
        Self::with_params(name, RelationalCostParams::default())
    }

    /// Creates an engine with explicit cost parameters.
    pub fn with_params(name: impl Into<Arc<str>>, params: RelationalCostParams) -> Arc<Self> {
        Arc::new_cyclic(|weak| RelationalDomain {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            params,
            estimator: RelationalEstimator {
                domain: weak.clone(),
            },
        })
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&self, table: Table) {
        self.tables.write().insert(Arc::from(table.name()), table);
    }

    /// Runs `f` over a table, if present.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Option<R> {
        self.tables.read().get(name).map(f)
    }

    /// Mutates a table in place (e.g. to add an index after load).
    pub fn with_table_mut<R>(&self, name: &str, f: impl FnOnce(&mut Table) -> R) -> Option<R> {
        self.tables.write().get_mut(name).map(f)
    }

    fn table_arg<'a>(&self, function: &str, args: &'a [Value]) -> Result<&'a str> {
        args[0].as_str().ok_or_else(|| {
            HermesError::Type(format!(
                "{}:{function}: first argument must be a table name",
                self.name
            ))
        })
    }

    fn column_arg<'a>(&self, function: &str, args: &'a [Value]) -> Result<&'a str> {
        args[1].as_str().ok_or_else(|| {
            HermesError::Type(format!(
                "{}:{function}: second argument must be a column name",
                self.name
            ))
        })
    }

    /// Converts rows-touched / results-produced counts into a compute cost.
    fn cost(&self, touched: usize, produced: usize) -> ComputeCost {
        let p = &self.params;
        let t_all_us =
            p.startup_us + p.per_row_us * touched as f64 + p.per_result_us * produced as f64;
        // First answer: startup plus a proportional share of the touch work
        // (pipelined scan finds the first match early, on average).
        let share = if produced > 0 {
            (touched as f64 / produced as f64).min(touched as f64)
        } else {
            touched as f64
        };
        let t_first_us = p.startup_us + p.per_row_us * share + p.per_result_us;
        ComputeCost::from_millis(t_first_us / 1000.0, t_all_us / 1000.0)
    }

    fn run(&self, function: &str, args: &[Value]) -> Result<CallOutcome> {
        let tables = self.tables.read();
        let tname = self.table_arg(function, args)?;
        let table = tables
            .get(tname)
            .ok_or_else(|| HermesError::Eval(format!("{}: no table `{tname}`", self.name)))?;
        let (answers, touched) = match function {
            "all" => {
                let rows: Vec<Value> = table.scan().map(|r| Value::Record((**r).clone())).collect();
                let n = rows.len();
                (rows, n)
            }
            "count" => (vec![Value::Int(table.len() as i64)], table.len()),
            "select_eq" => {
                let col = self.column_arg(function, args)?;
                let (rows, touched) = table.select_eq(col, &args[2])?;
                (
                    rows.into_iter()
                        .map(|r| Value::Record((*r).clone()))
                        .collect(),
                    touched,
                )
            }
            "select_lt" | "select_le" | "select_gt" | "select_ge" => {
                let col = self.column_arg(function, args)?;
                let v = &args[2];
                let (lo, hi) = match function {
                    "select_lt" | "select_le" => (None, Some(v)),
                    _ => (Some(v), None),
                };
                let (mut rows, touched) = table.select_range(col, lo, hi)?;
                // select_lt / select_gt exclude the boundary value.
                if function == "select_lt" || function == "select_gt" {
                    let pos = table.schema().position(col).expect("column checked");
                    rows.retain(|r| r.get_pos(pos + 1) != Some(v));
                }
                (
                    rows.into_iter()
                        .map(|r| Value::Record((*r).clone()))
                        .collect(),
                    touched,
                )
            }
            "select_range" => {
                let col = self.column_arg(function, args)?;
                let (rows, touched) = table.select_range(col, Some(&args[2]), Some(&args[3]))?;
                (
                    rows.into_iter()
                        .map(|r| Value::Record((*r).clone()))
                        .collect(),
                    touched,
                )
            }
            "project" => {
                let col = self.column_arg(function, args)?;
                let (vals, touched) = table.project_distinct(col)?;
                (vals, touched)
            }
            "agg" => {
                let col = self.column_arg(function, args)?;
                let op = args[2].as_str().ok_or_else(|| {
                    HermesError::Type(format!(
                        "{}:agg: third argument must be an aggregate name",
                        self.name
                    ))
                })?;
                let pos = table.schema().position(col).ok_or_else(|| {
                    HermesError::Type(format!("table `{tname}` has no column `{col}`"))
                })?;
                let values: Vec<&Value> = table.scan().filter_map(|r| r.get_pos(pos + 1)).collect();
                let result = match op {
                    "min" => values.iter().min().map(|v| (*v).clone()),
                    "max" => values.iter().max().map(|v| (*v).clone()),
                    "count_distinct" => Some(Value::Int(table.distinct_count(col)? as i64)),
                    "sum" | "avg" => {
                        let nums: Option<Vec<f64>> = values.iter().map(|v| v.as_f64()).collect();
                        let nums = nums.ok_or_else(|| {
                            HermesError::Type(format!(
                                "{}:agg: `{op}` needs a numeric column",
                                self.name
                            ))
                        })?;
                        if nums.is_empty() {
                            None
                        } else if op == "sum" {
                            Some(Value::Float(nums.iter().sum()))
                        } else {
                            Some(Value::Float(nums.iter().sum::<f64>() / nums.len() as f64))
                        }
                    }
                    other => {
                        return Err(HermesError::Type(format!(
                            "{}:agg: unknown aggregate `{other}`",
                            self.name
                        )))
                    }
                };
                (result.into_iter().collect(), table.len())
            }
            other => return Err(self.unknown_function(other)),
        };
        let produced = answers.len();
        Ok(CallOutcome {
            answers,
            compute: self.cost(touched, produced),
        })
    }
}

impl Domain for RelationalDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn functions(&self) -> Vec<FunctionSig> {
        vec![
            FunctionSig::new("all", 1, "every row of a table"),
            FunctionSig::new("count", 1, "row count of a table"),
            FunctionSig::new("select_eq", 3, "rows with column = value"),
            FunctionSig::new("select_lt", 3, "rows with column < value"),
            FunctionSig::new("select_le", 3, "rows with column <= value"),
            FunctionSig::new("select_gt", 3, "rows with column > value"),
            FunctionSig::new("select_ge", 3, "rows with column >= value"),
            FunctionSig::new("select_range", 4, "rows with lo <= column <= hi"),
            FunctionSig::new("project", 2, "distinct values of a column"),
            FunctionSig::new(
                "agg",
                3,
                "column aggregate (sum/min/max/avg/count_distinct)",
            ),
        ]
    }

    fn call(&self, function: &str, args: &[Value]) -> Result<CallOutcome> {
        let sig = self
            .functions()
            .into_iter()
            .find(|f| f.name.as_ref() == function)
            .ok_or_else(|| self.unknown_function(function))?;
        self.check_arity(function, sig.arity, args)?;
        self.run(function, args)
    }

    fn native_estimator(&self) -> Option<&dyn NativeEstimator> {
        Some(&self.estimator)
    }
}

impl NativeEstimator for RelationalDomain {
    /// The engine is its own estimator, so an `Arc<RelationalDomain>` can
    /// be registered with DCSM directly.
    fn estimate(&self, pattern: &CallPattern) -> Option<CostHint> {
        self.estimator.estimate(pattern)
    }
}

/// A native cost model built from exact table statistics — the "domain that
/// already provides a cost estimation module" of §6.
struct RelationalEstimator {
    domain: std::sync::Weak<RelationalDomain>,
}

impl NativeEstimator for RelationalEstimator {
    fn estimate(&self, pattern: &CallPattern) -> Option<CostHint> {
        let domain = self.domain.upgrade()?;
        // The table name must be a known constant to estimate anything.
        let tname = match pattern.args.first()? {
            PatArg::Const(Value::Str(s)) => s.clone(),
            _ => return None,
        };
        let (rows, distinct) = domain.with_table(&tname, |t| {
            let distinct = match pattern.args.get(1) {
                Some(PatArg::Const(Value::Str(col))) => t.distinct_count(col).ok(),
                _ => None,
            };
            (t.len(), distinct)
        })?;
        let card = match pattern.function.as_ref() {
            "all" => rows as f64,
            "count" => 1.0,
            "project" => distinct.unwrap_or(rows) as f64,
            "select_eq" => match distinct {
                Some(d) if d > 0 => rows as f64 / d as f64,
                _ => (rows as f64).sqrt(),
            },
            // Comparison selections: the classic 1/3 selectivity guess.
            "select_lt" | "select_le" | "select_gt" | "select_ge" => rows as f64 / 3.0,
            "select_range" => rows as f64 / 4.0,
            "agg" => 1.0,
            _ => return None,
        };
        let p = domain.params;
        // Touched rows: index probes touch ~card rows, scans touch all.
        let t_all_us = p.startup_us + p.per_row_us * rows as f64 + p.per_result_us * card;
        Some(CostHint {
            t_first_ms: Some((p.startup_us + p.per_result_us) / 1000.0),
            t_all_ms: Some(t_all_us / 1000.0),
            cardinality: Some(card),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::table::{Column, ColumnType, Schema};

    fn engine() -> Arc<RelationalDomain> {
        let d = RelationalDomain::new("relation");
        let mut cast = Table::new(
            "cast",
            Schema::new(vec![
                Column::new("name", ColumnType::Str),
                Column::new("role", ColumnType::Str),
            ])
            .unwrap(),
        );
        cast.insert_all([
            vec![Value::str("james stewart"), Value::str("rupert")],
            vec![Value::str("john dall"), Value::str("brandon")],
            vec![Value::str("farley granger"), Value::str("phillip")],
        ])
        .unwrap();
        d.add_table(cast);
        let mut inv = Table::new(
            "inventory",
            Schema::new(vec![
                Column::new("item", ColumnType::Str),
                Column::new("loc", ColumnType::Str),
                Column::new("qty", ColumnType::Int),
            ])
            .unwrap(),
        );
        inv.insert_all([
            vec![
                Value::str("h-22 fuel"),
                Value::str("pax river"),
                Value::Int(40),
            ],
            vec![
                Value::str("h-22 fuel"),
                Value::str("aberdeen"),
                Value::Int(15),
            ],
            vec![Value::str("ammo"), Value::str("pax river"), Value::Int(2)],
        ])
        .unwrap();
        d.add_table(inv);
        d
    }

    #[test]
    fn select_eq_returns_matching_records() {
        let d = engine();
        let out = d
            .call(
                "select_eq",
                &[
                    Value::str("inventory"),
                    Value::str("item"),
                    Value::str("h-22 fuel"),
                ],
            )
            .unwrap();
        assert_eq!(out.answers.len(), 2);
        match &out.answers[0] {
            Value::Record(r) => assert_eq!(r.get("loc"), Some(&Value::str("pax river"))),
            other => panic!("expected record, got {other}"),
        }
        assert!(out.compute.t_all > ComputeCost::ZERO.t_all);
    }

    #[test]
    fn all_and_count() {
        let d = engine();
        let all = d.call("all", &[Value::str("cast")]).unwrap();
        assert_eq!(all.answers.len(), 3);
        let count = d.call("count", &[Value::str("cast")]).unwrap();
        assert_eq!(count.answers, vec![Value::Int(3)]);
    }

    #[test]
    fn comparison_selects() {
        let d = engine();
        let lt = d
            .call(
                "select_lt",
                &[Value::str("inventory"), Value::str("qty"), Value::Int(15)],
            )
            .unwrap();
        assert_eq!(lt.answers.len(), 1);
        let le = d
            .call(
                "select_le",
                &[Value::str("inventory"), Value::str("qty"), Value::Int(15)],
            )
            .unwrap();
        assert_eq!(le.answers.len(), 2);
        let ge = d
            .call(
                "select_ge",
                &[Value::str("inventory"), Value::str("qty"), Value::Int(15)],
            )
            .unwrap();
        assert_eq!(ge.answers.len(), 2);
        let gt = d
            .call(
                "select_gt",
                &[Value::str("inventory"), Value::str("qty"), Value::Int(15)],
            )
            .unwrap();
        assert_eq!(gt.answers.len(), 1);
    }

    #[test]
    fn select_range_inclusive() {
        let d = engine();
        let out = d
            .call(
                "select_range",
                &[
                    Value::str("inventory"),
                    Value::str("qty"),
                    Value::Int(2),
                    Value::Int(15),
                ],
            )
            .unwrap();
        assert_eq!(out.answers.len(), 2);
    }

    #[test]
    fn project_distinct_values() {
        let d = engine();
        let out = d
            .call("project", &[Value::str("inventory"), Value::str("item")])
            .unwrap();
        assert_eq!(out.answers.len(), 2);
    }

    #[test]
    fn aggregates_compute_correctly() {
        let d = engine();
        let agg = |op: &str| {
            d.call(
                "agg",
                &[Value::str("inventory"), Value::str("qty"), Value::str(op)],
            )
            .unwrap()
            .answers
        };
        assert_eq!(agg("min"), vec![Value::Int(2)]);
        assert_eq!(agg("max"), vec![Value::Int(40)]);
        assert_eq!(agg("sum"), vec![Value::Float(57.0)]);
        assert_eq!(agg("avg"), vec![Value::Float(19.0)]);
        assert_eq!(agg("count_distinct"), vec![Value::Int(3)]);
        // min/max work on strings too.
        let smin = d
            .call(
                "agg",
                &[
                    Value::str("inventory"),
                    Value::str("item"),
                    Value::str("min"),
                ],
            )
            .unwrap();
        assert_eq!(smin.answers, vec![Value::str("ammo")]);
        // sum over a string column is a type error; unknown op too.
        assert!(d
            .call(
                "agg",
                &[
                    Value::str("inventory"),
                    Value::str("item"),
                    Value::str("sum")
                ],
            )
            .is_err());
        assert!(d
            .call(
                "agg",
                &[
                    Value::str("inventory"),
                    Value::str("qty"),
                    Value::str("median")
                ],
            )
            .is_err());
    }

    #[test]
    fn missing_table_is_eval_error() {
        let d = engine();
        assert!(matches!(
            d.call("all", &[Value::str("nope")]),
            Err(HermesError::Eval(_))
        ));
    }

    #[test]
    fn non_string_table_arg_is_type_error() {
        let d = engine();
        assert!(matches!(
            d.call("all", &[Value::Int(1)]),
            Err(HermesError::Type(_))
        ));
    }

    #[test]
    fn index_reduces_compute_cost() {
        let d = engine();
        let args = [
            Value::str("inventory"),
            Value::str("item"),
            Value::str("ammo"),
        ];
        let before = d.call("select_eq", &args).unwrap().compute.t_all;
        d.with_table_mut("inventory", |t| t.create_hash_index("item").unwrap());
        let after = d.call("select_eq", &args).unwrap().compute.t_all;
        assert!(after <= before, "index made it slower: {after} vs {before}");
    }

    #[test]
    fn native_estimator_predicts_select_eq_cardinality() {
        let d = engine();
        let est = d.native_estimator().unwrap();
        let pattern = CallPattern::new(
            "relation",
            "select_eq",
            vec![
                PatArg::Const(Value::str("inventory")),
                PatArg::Const(Value::str("item")),
                PatArg::Bound,
            ],
        );
        let hint = est.estimate(&pattern).unwrap();
        // 3 rows / 2 distinct items = 1.5
        assert!((hint.cardinality.unwrap() - 1.5).abs() < 1e-9);
        assert!(hint.t_all_ms.unwrap() > 0.0);
    }

    #[test]
    fn native_estimator_needs_constant_table() {
        let d = engine();
        let est = d.native_estimator().unwrap();
        let pattern = CallPattern::new("relation", "all", vec![PatArg::Bound]);
        assert!(est.estimate(&pattern).is_none());
    }
}
