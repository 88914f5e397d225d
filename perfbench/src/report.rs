//! How results leave the benchmark: the one-line JSON object the driver
//! reads, the `name value unit` text a person reads, and the envelope
//! `run` writes for `compare`.

use crate::json::{compact, metric_value, Json};
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::Quartiles;
use crate::workloads::{Metric, RunOutput, StageRow};

/// The envelope's schema version.
pub const SCHEMA: f64 = 1.0;
/// Untraced repeats (`run --repeat N`) from which an envelope states a
/// metric's run-to-run spread.
pub const MIN_RUNS_FOR_SPREAD: usize = 3;

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`. An untraced run carries the end-to-end metrics of
/// `BENCHMARK.json`; a traced run every per-layer metric. The driver
/// wants a number under every per-layer name on every workload, so here —
/// and only here — a metric the workload does not measure reads 0; the
/// text lines and the envelope leave it out.
pub fn driver_line(out: &RunOutput, traced: bool) -> String {
    let metrics: Vec<(String, Json)> = if traced {
        per_layer()
            .map(|l| {
                let measured = out.per_layer.iter().find(|m| m.name == l.name);
                let value = measured.map_or(0.0, |m| m.value);
                (l.name.to_string(), metric_value(value, l.unit))
            })
            .collect()
    } else {
        out.end_to_end
            .iter()
            .filter(|m| END_TO_END.iter().any(|e| e.name == m.name && e.driver))
            .map(|m| (m.name.clone(), metric_value(m.value, m.unit)))
            .collect()
    };
    compact(&Json::obj(vec![
        ("correct", Json::Bool(out.violations.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// `name value unit` lines, one per metric, the sample count beside
/// every timing.
pub fn metric_lines(metrics: &[Metric]) -> String {
    let mut text = String::new();
    for m in metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        text.push_str(&format!(
            "  {:<32} {:>14.4} {}{samples}\n",
            m.name, m.value, m.unit
        ));
    }
    text
}

/// The traced replay's per-layer table.
pub fn stage_lines(stages: &[StageRow]) -> String {
    let mut text = format!(
        "  {:<22} {:>8} {:>14} {:>8}\n",
        "stage", "spans", "self us/query", "share"
    );
    for s in stages {
        text.push_str(&format!(
            "  {:<22} {:>8} {:>14.3} {:>7.1}%\n",
            s.name,
            s.count,
            s.self_us_per_query,
            s.share * 100.0
        ));
    }
    text
}

fn metric_entry(m: &Metric) -> (String, Json) {
    (
        m.name.clone(),
        Json::obj(vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.to_string())),
            ("samples", Json::Num(m.samples as f64)),
        ]),
    )
}

/// Everything one run produced, as the single line a `run` parent reads
/// back from its child process.
pub fn full_json(out: &RunOutput) -> Json {
    let stages = out
        .stages
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("spans", Json::Num(s.count as f64)),
                ("self_us_per_query", Json::Num(s.self_us_per_query)),
                ("share", Json::Num(s.share)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.violations.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "violations",
            Json::Arr(out.violations.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "end_to_end",
            Json::Obj(out.end_to_end.iter().map(metric_entry).collect()),
        ),
        (
            "per_layer",
            Json::Obj(out.per_layer.iter().map(metric_entry).collect()),
        ),
        ("stages", Json::Arr(stages)),
        ("detail", out.detail.clone()),
    ])
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// One workload's share of the envelope, from the [`full_json`] of its
/// untraced repeats and of its traced run: every repeat's value of every
/// end-to-end metric (the headline `value` is their median, `spread`
/// their interquartile distance over it, or null with fewer than
/// [`MIN_RUNS_FOR_SPREAD`] repeats), the traced run's per-layer
/// metrics and stage table, and the sizing and calibration detail.
pub fn workload_json(untraced: &[Json], traced: Option<&Json>) -> Json {
    let mut end_to_end = Vec::new();
    for def in &END_TO_END {
        let runs: Vec<&Json> = untraced
            .iter()
            .filter_map(|o| o.get("end_to_end")?.get(def.name))
            .collect();
        let Some(first) = runs.first() else { continue };
        let values: Vec<f64> = runs.iter().map(|m| num(m, "value")).collect();
        let q = Quartiles::of(&values);
        // Quartiles of one or two runs say nothing about the spread of
        // runs: unknown, which `compare` does not take for zero.
        let spread = if values.len() >= MIN_RUNS_FOR_SPREAD {
            Json::Num(q.rel_spread())
        } else {
            Json::Null
        };
        end_to_end.push((
            def.name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(q.median)),
                ("unit", Json::Str(def.unit.to_string())),
                ("samples", Json::Num(num(first, "samples"))),
                ("spread", spread),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        ));
    }
    let all = || untraced.iter().chain(traced);
    let mut pairs = vec![
        (
            "correct",
            Json::Bool(all().all(|o| o.get("correct") == Some(&Json::Bool(true)))),
        ),
        (
            "attempted",
            Json::Num(untraced.iter().map(|o| num(o, "attempted")).sum()),
        ),
        (
            "failed",
            Json::Num(untraced.iter().map(|o| num(o, "failed")).sum()),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
    ];
    if let Some(t) = traced {
        for key in ["per_layer", "stages"] {
            pairs.push((key, t.get(key).cloned().unwrap_or(Json::Null)));
        }
    }
    if let Some(detail) = untraced.last().or(traced).and_then(|o| o.get("detail")) {
        pairs.push(("detail", detail.clone()));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn output() -> RunOutput {
        RunOutput {
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            end_to_end: vec![
                Metric {
                    name: "qps".into(),
                    value: 6700.25,
                    unit: "1/s",
                    samples: 100,
                },
                Metric {
                    name: "fail_ratio".into(),
                    value: 0.0,
                    unit: "ratio",
                    samples: 0,
                },
            ],
            per_layer: vec![Metric {
                name: "lang.parse_us".into(),
                value: 1.5,
                unit: "us",
                samples: 7,
            }],
            stages: Vec::new(),
            spans: Vec::new(),
            detail: Json::Null,
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&output(), false);
        let doc = parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // fail_ratio can be zero, so the driver's end_to_end list does
        // not carry it; it is reported on traced runs instead.
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("qps").is_some() && metrics.get("fail_ratio").is_none());
        assert_eq!(
            metrics.get("qps").unwrap().get("unit").unwrap().as_str(),
            Some("1/s")
        );
        // A traced line names every per-layer metric; what the run did
        // not measure reads 0 there.
        let traced = parse(&driver_line(&output(), true)).unwrap();
        let Some(Json::Obj(layers)) = traced.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(layers.len(), per_layer().count());
        let value = |name: &str| traced.get("metrics")?.get(name)?.get("value")?.as_num();
        assert_eq!(value("lang.parse_us"), Some(1.5));
        assert_eq!(value("max_ok_rate_qps"), Some(0.0));
    }

    #[test]
    fn a_violation_reads_as_incorrect() {
        let mut out = output();
        out.violations.push("wrong answer".into());
        let doc = parse(&driver_line(&out, false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn envelope_keeps_every_repeat_and_its_spread() {
        let mut second = output();
        second.end_to_end[0].value = 6900.25;
        let traced = full_json(&output());
        let mut runs = vec![full_json(&output()), full_json(&second)];
        let doc = workload_json(&runs, Some(&traced));
        assert!(doc.get("per_layer").unwrap().get("lang.parse_us").is_some());
        assert_eq!(doc.get("attempted").unwrap().as_num(), Some(20.0));
        let qps = doc.get("end_to_end").unwrap().get("qps").unwrap();
        assert_eq!(qps.get("values").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(qps.get("value").unwrap().as_num(), Some(6800.25));
        // Two runs do not make a spread; three do.
        assert_eq!(qps.get("spread"), Some(&Json::Null));
        runs.push(full_json(&output()));
        let doc = workload_json(&runs, None);
        let qps = doc.get("end_to_end").unwrap().get("qps").unwrap();
        assert!(qps.get("spread").unwrap().as_num().unwrap() > 0.0);
        assert!(metric_lines(&output().end_to_end).contains("(n=100)"));
    }
}
