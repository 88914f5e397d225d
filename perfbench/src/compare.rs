//! `hermes-bench compare A.json B.json`: per workload and end-to-end
//! metric, the base value, the new value, their ratio with its base, the
//! metric's bound, and a verdict.

use crate::json::Json;
use crate::metrics::{Better, Bound, END_TO_END, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the metric's bound.
    Worse,
    /// A file's own run-to-run spread exceeds the bound, or a file does
    /// not state one (fewer than three repeats): a move says nothing
    /// either way.
    Unresolved,
    /// One file has the workload or the metric and the other does not.
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }

    /// Whether the row fails the comparison: it shows a regression, or
    /// the comparison could not be made at all.
    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Missing)
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// `spreads` are the two files' own run-to-run spreads of the metric,
/// `None` where a file has too few repeats to state one.
pub fn verdict(
    base: f64,
    new: f64,
    better: Better,
    bound: Bound,
    spreads: (Option<f64>, Option<f64>),
) -> Verdict {
    let worse_by = worsening(base, new, better);
    match bound {
        Bound::Exact if worse_by > 0.0 => Verdict::Worse,
        Bound::Exact => Verdict::Ok,
        Bound::Ratio(limit) => match spreads {
            (Some(b), Some(n)) if b <= limit && n <= limit => {
                if worse_by > limit {
                    Verdict::Worse
                } else {
                    Verdict::Ok
                }
            }
            _ => Verdict::Unresolved,
        },
    }
}

fn field(metric: &Json, key: &str) -> Option<f64> {
    metric.get(key).and_then(Json::as_num)
}

fn row(workload: &str, metric: &str, cells: [String; 4], verdict: &str) -> String {
    let [base, new, ratio, bound] = cells;
    format!("{workload:<18} {metric:<20} {base:>12} {new:>12} {ratio:>22} {bound:>6}  {verdict}\n")
}

/// Renders the comparison table; the flag says whether any row is `worse`
/// or `missing`. A workload neither file ran is left out.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .cloned()
            .ok_or_else(|| "not a hermes-bench envelope: no `workloads`".to_string())
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    let header = ["base", "new", "new/base", "bound"].map(String::from);
    let mut text = row("workload", "metric", header, "verdict");
    let mut any_failed = false;
    for w in &WORKLOADS {
        let (b, n) = (base_w.get(w.name), new_w.get(w.name));
        if b.is_none() && n.is_none() {
            continue;
        }
        for def in END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let metric = |doc: Option<&Json>| doc?.get("end_to_end")?.get(def.name).cloned();
            let (bm, nm) = (metric(b), metric(n));
            let value = |m: &Option<Json>| m.as_ref().and_then(|m| field(m, "value"));
            let (Some(bv), Some(nv)) = (value(&bm), value(&nm)) else {
                any_failed = true;
                let cells = [
                    cell(value(&bm)),
                    cell(value(&nm)),
                    "-".to_string(),
                    def.bound.describe(),
                ];
                text.push_str(&row(w.name, def.name, cells, Verdict::Missing.name()));
                continue;
            };
            let spread = |m: &Option<Json>| m.as_ref().and_then(|m| field(m, "spread"));
            let v = verdict(bv, nv, def.better, def.bound, (spread(&bm), spread(&nm)));
            any_failed |= v.fails();
            let ratio = if bv == 0.0 {
                format!("{nv:.4} (base 0)")
            } else {
                format!("{:.4} of {bv:.4}", nv / bv)
            };
            let cells = [cell(Some(bv)), cell(Some(nv)), ratio, def.bound.describe()];
            text.push_str(&row(w.name, def.name, cells, v.name()));
        }
    }
    Ok((text, any_failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let r = Bound::Ratio(0.10);
        let steady = (Some(0.0), Some(0.0));
        let v = |base, new, better, bound, spreads| verdict(base, new, better, bound, spreads);
        assert_eq!(v(100.0, 105.0, Better::Lower, r, steady), Verdict::Ok);
        assert_eq!(v(100.0, 111.0, Better::Lower, r, steady), Verdict::Worse);
        assert_eq!(v(100.0, 50.0, Better::Lower, r, steady), Verdict::Ok);
        assert_eq!(v(100.0, 89.0, Better::Higher, r, steady), Verdict::Worse);
        assert_eq!(v(100.0, 200.0, Better::Higher, r, steady), Verdict::Ok);
        let noisy = (Some(0.2), Some(0.0));
        assert_eq!(
            v(100.0, 150.0, Better::Lower, r, noisy),
            Verdict::Unresolved
        );
        // An unknown spread is not a spread of zero.
        let unknown = (Some(0.0), None);
        assert_eq!(
            v(100.0, 150.0, Better::Lower, r, unknown),
            Verdict::Unresolved
        );
        assert_eq!(
            v(100.0, 100.0, Better::Lower, r, (None, None)),
            Verdict::Unresolved
        );
        // Counts that repeat need no spread.
        let e = Bound::Exact;
        assert_eq!(v(0.0, 0.0, Better::Lower, e, (None, None)), Verdict::Ok);
        assert_eq!(
            v(0.0, 0.001, Better::Lower, e, (None, None)),
            Verdict::Worse
        );
        assert_eq!(v(8000.0, 4000.0, Better::Higher, e, steady), Verdict::Worse);
    }

    fn envelope(qps: f64, spread: &str) -> Json {
        parse(&format!(
            r#"{{"workloads": {{"wire_warm_point": {{"end_to_end": {{
                "qps": {{"value": {qps}, "unit": "1/s", "spread": {spread}}},
                "fail_ratio": {{"value": 0, "unit": "ratio", "spread": 0}}
            }}}}}}}}"#
        ))
        .unwrap()
    }

    /// The verdict column of the rows of `metric`.
    fn verdicts(text: &str, metric: &str) -> Vec<String> {
        text.lines()
            .filter(|l| l.split_whitespace().nth(1) == Some(metric))
            .map(|l| l.split_whitespace().last().unwrap().to_string())
            .collect()
    }

    #[test]
    fn compare_reads_envelopes_and_flags_worse_rows() {
        let (text, _) = compare(&envelope(6000.0, "0.01"), &envelope(5900.0, "0.01")).unwrap();
        assert_eq!(verdicts(&text, "qps"), ["ok"], "{text}");
        assert!(text.contains("0.9833 of 6000.0000"), "{text}");
        let (text, failed) = compare(&envelope(6000.0, "0.01"), &envelope(4000.0, "0.01")).unwrap();
        assert!(failed);
        assert_eq!(verdicts(&text, "qps"), ["worse"], "{text}");
        assert!(compare(&Json::Null, &Json::Null).is_err());
    }

    #[test]
    fn a_single_run_envelope_is_unresolved_not_worse() {
        // `run` with one repeat writes `"spread": null`.
        let (text, _) = compare(&envelope(6000.0, "null"), &envelope(4000.0, "null")).unwrap();
        assert_eq!(verdicts(&text, "qps"), ["unresolved"], "{text}");
    }

    #[test]
    fn what_one_file_lacks_is_a_missing_row_and_fails() {
        // These envelopes carry two of the workload's metrics: the others
        // are missing from both, and so is every row of a workload only
        // one file ran.
        let (text, failed) = compare(&envelope(6000.0, "0.01"), &envelope(6000.0, "0.01")).unwrap();
        assert!(failed);
        assert_eq!(verdicts(&text, "lat_p50_us"), ["missing"], "{text}");
        assert!(verdicts(&text, "max_ok_rate_qps").is_empty(), "{text}");
        let none = parse(r#"{"workloads": {}}"#).unwrap();
        let (text, failed) = compare(&envelope(6000.0, "0.01"), &none).unwrap();
        assert!(failed);
        assert_eq!(verdicts(&text, "qps"), ["missing"], "{text}");
        let (text, failed) = compare(&none, &none).unwrap();
        assert!(!failed && text.lines().count() == 1, "{text}");
    }
}
