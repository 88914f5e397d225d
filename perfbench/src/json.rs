//! The benchmark's one JSON writer. The value type and the parser are
//! the product's own (`hermes_analysis::json`); what is added here is the
//! single-line form the driver reads as the last line of standard output
//! — the product's `render` is multi-line — and numbers with all their
//! digits.

pub use hermes_analysis::json::{parse, Json};
use std::fmt::Write as _;

/// Renders `value` on one line. Non-finite numbers have no JSON form and
/// are written as `null`.
pub fn compact(value: &Json) -> String {
    let mut out = String::new();
    write_compact(value, &mut out);
    out
}

fn write_compact(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                // `{}` on f64 prints the shortest digits that round-trip.
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(k, out);
                out.push_str(": ");
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `{"value": v, "unit": u}` — the shape the driver reads per metric.
pub fn metric_value(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("text", Json::Str("?- p('a\"b', X).\n".into())),
            (
                "metrics",
                Json::obj(vec![("lat_p50_us", metric_value(301.4375, "us"))]),
            ),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-0.5)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(parse(&line).unwrap(), doc);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, "));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = 0.812_734_561_234_567_8_f64;
        let line = compact(&Json::Num(v));
        assert_eq!(line.parse::<f64>().unwrap(), v);
        assert_eq!(compact(&Json::Num(3.0)), "3");
        assert_eq!(compact(&Json::Num(f64::NAN)), "null");
        assert_eq!(compact(&Json::Num(f64::INFINITY)), "null");
    }
}
