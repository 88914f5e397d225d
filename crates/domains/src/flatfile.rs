//! Flat-file data: delimiter-separated lines with no indexes.
//!
//! Models the paper's "flat file data" source: every operation is a linear
//! scan, so the cost shape is `startup + per_line * n`. Files can be loaded
//! from in-memory text (the default for tests and experiments) or from the
//! filesystem.

use crate::domain::{CallOutcome, ComputeCost, Domain, FunctionSig};
use hermes_common::sync::RwLock;
use hermes_common::{HermesError, Record, Result, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cost parameters of the flat-file scanner, microseconds.
#[derive(Clone, Copy, Debug)]
pub struct FlatFileCostParams {
    /// Fixed open/seek cost per call.
    pub open_us: f64,
    /// Cost per line scanned.
    pub per_line_us: f64,
}

impl Default for FlatFileCostParams {
    fn default() -> Self {
        FlatFileCostParams {
            open_us: 2_000.0,
            per_line_us: 2.5,
        }
    }
}

/// One loaded flat file: parsed records, one per line.
#[derive(Clone, Debug)]
struct FlatFile {
    records: Vec<Arc<Record>>,
    raw_lines: Vec<Arc<str>>,
}

/// The flat-file domain.
///
/// Exported functions:
///
/// | function | args | answers |
/// |---|---|---|
/// | `scan` | file | every line as a record (`f1`, `f2`, …) |
/// | `match_field` | file, field-index (1-based), value | lines whose field equals the value |
/// | `grep` | file, substring | lines containing the substring, as strings |
/// | `line_count` | file | singleton count |
pub struct FlatFileDomain {
    name: Arc<str>,
    files: RwLock<BTreeMap<Arc<str>, FlatFile>>,
    params: FlatFileCostParams,
    delimiter: char,
}

impl FlatFileDomain {
    /// Creates an empty flat-file domain with `|`-delimited fields.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        FlatFileDomain {
            name: name.into(),
            files: RwLock::new(BTreeMap::new()),
            params: FlatFileCostParams::default(),
            delimiter: '|',
        }
    }

    /// Overrides the field delimiter.
    pub fn with_delimiter(mut self, delimiter: char) -> Self {
        self.delimiter = delimiter;
        self
    }

    /// Overrides cost parameters.
    pub fn with_params(mut self, params: FlatFileCostParams) -> Self {
        self.params = params;
        self
    }

    /// Loads a named file from in-memory text. Blank lines are skipped.
    /// Fields are named `f1`, `f2`, … in each record.
    pub fn load_text(&self, file: impl Into<Arc<str>>, text: &str) -> usize {
        let mut records = Vec::new();
        let mut raw = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let rec =
                Record::from_fields(line.split(self.delimiter).enumerate().map(|(i, fld)| {
                    (
                        Arc::<str>::from(format!("f{}", i + 1)),
                        Value::parse_scalar(fld),
                    )
                }));
            records.push(Arc::new(rec));
            raw.push(Arc::<str>::from(line));
        }
        let n = records.len();
        self.files.write().insert(
            file.into(),
            FlatFile {
                records,
                raw_lines: raw,
            },
        );
        n
    }

    fn cost(&self, lines_scanned: usize) -> ComputeCost {
        let t_all_us = self.params.open_us + self.params.per_line_us * lines_scanned as f64;
        // Pipelined: first answer typically arrives early in the scan.
        let t_first_us = self.params.open_us + self.params.per_line_us * 8.0;
        ComputeCost::from_millis(t_first_us / 1000.0, t_all_us / 1000.0)
    }

    fn file_arg<'a>(&self, function: &str, args: &'a [Value]) -> Result<&'a str> {
        args[0].as_str().ok_or_else(|| {
            HermesError::Type(format!(
                "{}:{function}: first argument must be a file name",
                self.name
            ))
        })
    }
}

impl Domain for FlatFileDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn functions(&self) -> Vec<FunctionSig> {
        vec![
            FunctionSig::new("scan", 1, "every line as a record"),
            FunctionSig::new("match_field", 3, "lines whose field equals a value"),
            FunctionSig::new("grep", 2, "lines containing a substring"),
            FunctionSig::new("line_count", 1, "number of lines"),
        ]
    }

    fn call(&self, function: &str, args: &[Value]) -> Result<CallOutcome> {
        let arity = match function {
            "scan" | "line_count" => 1,
            "grep" => 2,
            "match_field" => 3,
            other => return Err(self.unknown_function(other)),
        };
        self.check_arity(function, arity, args)?;
        let files = self.files.read();
        let fname = self.file_arg(function, args)?;
        let file = files
            .get(fname)
            .ok_or_else(|| HermesError::Eval(format!("{}: no file `{fname}`", self.name)))?;
        let n = file.records.len();
        let answers: Vec<Value> = match function {
            "scan" => file
                .records
                .iter()
                .map(|r| Value::Record((**r).clone()))
                .collect(),
            "line_count" => vec![Value::Int(n as i64)],
            "match_field" => {
                let idx = args[1].as_int().ok_or_else(|| {
                    HermesError::Type(format!(
                        "{}:match_field: field index must be an integer",
                        self.name
                    ))
                })?;
                if idx < 1 {
                    return Err(HermesError::Type(format!(
                        "{}:match_field: field index must be >= 1, got {idx}",
                        self.name
                    )));
                }
                file.records
                    .iter()
                    .filter(|r| r.get_pos(idx as usize) == Some(&args[2]))
                    .map(|r| Value::Record((**r).clone()))
                    .collect()
            }
            "grep" => {
                let needle = args[1].as_str().ok_or_else(|| {
                    HermesError::Type(format!("{}:grep: pattern must be a string", self.name))
                })?;
                file.raw_lines
                    .iter()
                    .filter(|l| l.contains(needle))
                    .map(|l| Value::Str(l.clone()))
                    .collect()
            }
            _ => unreachable!("arity table covers functions"),
        };
        Ok(CallOutcome {
            answers,
            compute: self.cost(n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> FlatFileDomain {
        let d = FlatFileDomain::new("flat");
        d.load_text(
            "supplies",
            "h-22 fuel|pax river|40\nammo|aberdeen|15\nh-22 fuel|aberdeen|3\n",
        );
        d
    }

    #[test]
    fn scan_returns_records_with_positional_fields() {
        let d = domain();
        let out = d.call("scan", &[Value::str("supplies")]).unwrap();
        assert_eq!(out.answers.len(), 3);
        match &out.answers[0] {
            Value::Record(r) => {
                assert_eq!(r.get("f1"), Some(&Value::str("h-22 fuel")));
                assert_eq!(r.get("f3"), Some(&Value::Int(40)));
            }
            other => panic!("expected record, got {other}"),
        }
    }

    #[test]
    fn match_field_filters() {
        let d = domain();
        let out = d
            .call(
                "match_field",
                &[
                    Value::str("supplies"),
                    Value::Int(1),
                    Value::str("h-22 fuel"),
                ],
            )
            .unwrap();
        assert_eq!(out.answers.len(), 2);
    }

    #[test]
    fn match_field_rejects_bad_index() {
        let d = domain();
        assert!(d
            .call(
                "match_field",
                &[Value::str("supplies"), Value::Int(0), Value::str("x")],
            )
            .is_err());
        assert!(d
            .call(
                "match_field",
                &[Value::str("supplies"), Value::str("one"), Value::str("x")],
            )
            .is_err());
    }

    #[test]
    fn grep_matches_substrings() {
        let d = domain();
        let out = d
            .call("grep", &[Value::str("supplies"), Value::str("aberdeen")])
            .unwrap();
        assert_eq!(out.answers.len(), 2);
        assert!(matches!(out.answers[0], Value::Str(_)));
    }

    #[test]
    fn line_count() {
        let d = domain();
        let out = d.call("line_count", &[Value::str("supplies")]).unwrap();
        assert_eq!(out.answers, vec![Value::Int(3)]);
    }

    #[test]
    fn cost_scales_with_file_size() {
        let d = FlatFileDomain::new("flat");
        d.load_text("small", "a|1\n");
        let big_text: String = (0..1000).map(|i| format!("row{i}|{i}\n")).collect();
        d.load_text("big", &big_text);
        let small = d
            .call("scan", &[Value::str("small")])
            .unwrap()
            .compute
            .t_all;
        let big = d.call("scan", &[Value::str("big")]).unwrap().compute.t_all;
        assert!(big > small);
    }

    #[test]
    fn missing_file_errors() {
        let d = domain();
        assert!(matches!(
            d.call("scan", &[Value::str("nope")]),
            Err(HermesError::Eval(_))
        ));
    }

    #[test]
    fn custom_delimiter() {
        let d = FlatFileDomain::new("csv").with_delimiter(',');
        d.load_text("t", "a,b\nc,d\n");
        let out = d.call("scan", &[Value::str("t")]).unwrap();
        match &out.answers[1] {
            Value::Record(r) => assert_eq!(r.get("f2"), Some(&Value::str("d"))),
            other => panic!("unexpected {other}"),
        }
    }
}
