//! The tree codec the typed frame codec replaced, kept as its executable
//! specification (compiled for tests and under the `spec` feature only).
//!
//! Every frame here goes through a [`Value`] tree, the way the wire format
//! is defined in the [module docs](super): [`encode`] builds the payload as
//! a record, list or value and writes it with [`put_value`], and
//! [`decode_body`] reads the whole payload as a value and then picks the
//! frame's fields out of it by name. The differential tests check that
//! [`Frame::encode_into`] writes exactly these bytes and that
//! [`Frame::decode_body`] accepts exactly what this decoder accepts and
//! returns the same frame.

use super::*;

fn opt_u64(v: Option<u64>) -> Value {
    match v {
        Some(n) => Value::Int(n.min(i64::MAX as u64) as i64),
        None => Value::Null,
    }
}

fn opt_str(v: &Option<String>) -> Value {
    match v {
        Some(s) => Value::str(s.as_str()),
        None => Value::Null,
    }
}

fn field_u64(rec: &Record, name: &str) -> Option<u64> {
    match rec.get(name) {
        Some(Value::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn field_str(rec: &Record, name: &str) -> Option<String> {
    match rec.get(name) {
        Some(Value::Str(s)) => Some(s.to_string()),
        _ => None,
    }
}

fn field_bool(rec: &Record, name: &str) -> bool {
    matches!(rec.get(name), Some(Value::Bool(true)))
}

/// The payload as a value (frames with empty payloads return `None`).
fn payload(frame: &Frame) -> Option<Value> {
    match frame {
        Frame::Stats | Frame::Ping | Frame::Shutdown | Frame::Pong => None,
        Frame::Query(q) => {
            let mut rec = Record::new();
            rec.push("src", Value::str(q.src.as_str()));
            rec.push("limit", opt_u64(q.limit));
            rec.push("deadline_us", opt_u64(q.deadline_us));
            rec.push("budget_us", opt_u64(q.budget_us));
            rec.push("tier", opt_str(&q.tier));
            rec.push("trace", Value::Bool(q.trace));
            Some(Value::Record(rec))
        }
        Frame::Batch(rows) => Some(Value::List(
            rows.iter().map(|r| Value::List(r.clone())).collect(),
        )),
        Frame::Done(d) => {
            let mut rec = Record::new();
            rec.push(
                "columns",
                Value::List(d.columns.iter().map(|c| Value::str(c.as_str())).collect()),
            );
            rec.push("rows", opt_u64(Some(d.rows)));
            rec.push("incomplete", Value::Bool(d.incomplete));
            rec.push("elapsed_us", opt_u64(Some(d.elapsed_us)));
            rec.push("source_calls", opt_u64(Some(d.source_calls)));
            rec.push("cache_hits", opt_u64(Some(d.cache_hits)));
            rec.push("tier_downgrades", opt_u64(Some(d.tier_downgrades)));
            rec.push(
                "trace",
                Value::List(d.trace.iter().map(|l| Value::str(l.as_str())).collect()),
            );
            Some(Value::Record(rec))
        }
        Frame::Error(e) => {
            let mut rec = Record::new();
            rec.push("code", Value::str(e.code.as_str()));
            rec.push("message", Value::str(e.message.as_str()));
            Some(Value::Record(rec))
        }
        Frame::StatsReply(v) => Some(v.clone()),
    }
}

/// Encodes the complete frame (length prefix included) through its value
/// tree.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut body = vec![frame.kind()];
    if let Some(v) = payload(frame) {
        put_value(&v, &mut body);
    }
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(body.len(), &mut out);
    out.extend_from_slice(&body);
    out
}

fn expect_record(payload: &[u8]) -> Result<Record> {
    match value_from_bytes(payload)? {
        Value::Record(rec) => Ok(rec),
        other => Err(HermesError::Io(format!(
            "frame payload is not a record (got {other:?})"
        ))),
    }
}

/// Decodes a frame body (kind byte + payload, no length prefix) through
/// its value tree.
pub fn decode_body(body: &[u8]) -> Result<Frame> {
    let (&kind, payload) = body
        .split_first()
        .ok_or_else(|| HermesError::Io("empty frame body".into()))?;
    let bare = |frame: Frame| {
        if payload.is_empty() {
            Ok(frame)
        } else {
            Err(HermesError::Io(format!(
                "frame kind 0x{kind:02x} carries {} unexpected payload byte(s)",
                payload.len()
            )))
        }
    };
    match kind {
        KIND_STATS => bare(Frame::Stats),
        KIND_PING => bare(Frame::Ping),
        KIND_SHUTDOWN => bare(Frame::Shutdown),
        KIND_PONG => bare(Frame::Pong),
        KIND_QUERY => {
            let rec = expect_record(payload)?;
            Some(())
                .and_then(|_| {
                    Some(Frame::Query(QueryFrame {
                        src: field_str(&rec, "src")?,
                        limit: field_u64(&rec, "limit"),
                        deadline_us: field_u64(&rec, "deadline_us"),
                        budget_us: field_u64(&rec, "budget_us"),
                        tier: field_str(&rec, "tier"),
                        trace: field_bool(&rec, "trace"),
                    }))
                })
                .ok_or_else(|| HermesError::Io("query frame missing `src`".into()))
        }
        KIND_BATCH => {
            let Value::List(rows) = value_from_bytes(payload)? else {
                return Err(HermesError::Io("batch frame payload is not a list".into()));
            };
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let Value::List(cells) = row else {
                    return Err(HermesError::Io("batch row is not a list".into()));
                };
                out.push(cells);
            }
            Ok(Frame::Batch(out))
        }
        KIND_DONE => {
            let rec = expect_record(payload)?;
            let columns = match rec.get("columns") {
                Some(Value::List(cs)) => cs
                    .iter()
                    .map(|c| match c {
                        Value::Str(s) => Ok(s.to_string()),
                        _ => Err(HermesError::Io("done column is not a string".into())),
                    })
                    .collect::<Result<Vec<_>>>()?,
                _ => Vec::new(),
            };
            let trace = match rec.get("trace") {
                Some(Value::List(ls)) => ls
                    .iter()
                    .filter_map(|l| match l {
                        Value::Str(s) => Some(s.to_string()),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            Ok(Frame::Done(DoneFrame {
                columns,
                rows: field_u64(&rec, "rows").unwrap_or(0),
                incomplete: field_bool(&rec, "incomplete"),
                elapsed_us: field_u64(&rec, "elapsed_us").unwrap_or(0),
                source_calls: field_u64(&rec, "source_calls").unwrap_or(0),
                cache_hits: field_u64(&rec, "cache_hits").unwrap_or(0),
                tier_downgrades: field_u64(&rec, "tier_downgrades").unwrap_or(0),
                trace,
            }))
        }
        KIND_ERROR => {
            let rec = expect_record(payload)?;
            Ok(Frame::Error(ErrorFrame {
                code: field_str(&rec, "code")
                    .ok_or_else(|| HermesError::Io("error frame missing `code`".into()))?,
                message: field_str(&rec, "message").unwrap_or_default(),
            }))
        }
        KIND_STATS_REPLY => Ok(Frame::StatsReply(value_from_bytes(payload)?)),
        other => Err(HermesError::Io(format!("unknown frame kind 0x{other:02x}"))),
    }
}
