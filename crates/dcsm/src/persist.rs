//! Statistics-cache persistence.
//!
//! The cost vector database is the mediator's accumulated knowledge about
//! source behaviour; §6's whole premise is that this knowledge is hard to
//! come by (every record cost a real remote call), so it is worth keeping
//! across restarts. This module only maps records to and from values; the
//! file layout and its fail-closed reading belong to
//! [`hermes_common::frame`]. One record per observation:
//!
//! ```text
//! [domain, function, [args…], t_first|null, t_all|null, card|null, recorded_at µs]
//! ```
//!
//! The components travel as `Value::Float`, bit for bit, so a save/load
//! cycle never perturbs an estimate that rests on the saved records alone.
//!
//! What is saved is the *retained* detail — per function, the most recent
//! records inside the [detail window](crate::vectordb) — not the
//! aggregation cells. A database that has folded therefore loads as one
//! that only ever saw its last window: averages are re-learned from recent
//! records, and `len()` restarts at the number loaded.

// Statistics files are read from disk and may be damaged or hostile:
// every fallible path returns a typed `HermesError`. Tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cost::CostVector;
use crate::vectordb::CostVectorDb;
use hermes_common::atomic_file::write_atomically;
use hermes_common::frame::{read_state_file, write_state_file};
use hermes_common::{GroundCall, HermesError, Result, SimDuration, SimInstant, Value};
use std::io::{Read, Write};

const NAME: &str = "hermes-cost-vector-db";

fn component(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// Writes every retained record to `out` and flushes it.
pub fn save<W: Write>(db: &CostVectorDb, out: W) -> Result<()> {
    let mut records = Vec::with_capacity(db.detail_len());
    for (domain, function) in db.functions() {
        for r in db.records_for(&domain, &function) {
            let at = i64::try_from(r.recorded_at.as_micros())
                .map_err(|_| HermesError::Io(format!("{}: timestamp exceeds i64 µs", r.call)))?;
            records.push(Value::List(vec![
                Value::Str(r.call.domain.clone()),
                Value::Str(r.call.function.clone()),
                Value::List(r.call.args.to_vec()),
                component(r.vector.t_first_ms),
                component(r.vector.t_all_ms),
                component(r.vector.cardinality),
                Value::Int(at),
            ]));
        }
    }
    write_state_file(NAME, &records, out)
}

/// Reads records from `input` into a fresh database. A file that does not
/// read back whole and well-formed is an error.
pub fn load<R: Read>(input: R) -> Result<CostVectorDb> {
    let bad = || HermesError::Io(format!("{NAME}: malformed observation record"));
    let component = |v: Value| match v {
        Value::Null => Ok(None),
        Value::Float(x) => Ok(Some(x)),
        _ => Err(bad()),
    };
    let mut db = CostVectorDb::new();
    for record in read_state_file(NAME, input)? {
        let Value::List(fields) = record else {
            return Err(bad());
        };
        let Ok(
            [Value::Str(domain), Value::Str(function), Value::List(args), t_first, t_all, card, Value::Int(at)],
        ) = <[Value; 7]>::try_from(fields)
        else {
            return Err(bad());
        };
        let vector = CostVector {
            t_first_ms: component(t_first)?,
            t_all_ms: component(t_all)?,
            cardinality: component(card)?,
        };
        // A negative timestamp is not one this program wrote.
        let at = u64::try_from(at).map_err(|_| bad())?;
        db.record(
            GroundCall::new(domain, function, args),
            vector,
            SimInstant::EPOCH + SimDuration::from_micros(at),
        );
    }
    Ok(db)
}

/// Saves to a file path, replacing the file whole or not at all (see
/// [`hermes_common::atomic_file`]).
pub fn save_to_path(db: &CostVectorDb, path: &std::path::Path) -> Result<()> {
    write_atomically(path, |out| save(db, out))
}

/// Loads from a file path.
pub fn load_from_path(path: &std::path::Path) -> Result<CostVectorDb> {
    let file = std::fs::File::open(path)?;
    load(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectordb::figure2_database;
    use hermes_common::{CallPattern, GroundCall, PatArg, Value};

    #[test]
    fn roundtrip_preserves_aggregates_exactly() {
        let db = figure2_database();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), db.len());
        for (domain, function) in db.functions() {
            assert_eq!(
                loaded.records_for(&domain, &function),
                db.records_for(&domain, &function)
            );
        }
        // Aggregates are bit-exact across the roundtrip.
        let p = CallPattern::new("d1", "p_bf", vec![PatArg::Const(Value::str("a"))]);
        let (v, n) = loaded.aggregate(&p);
        let (v0, n0) = db.aggregate(&p);
        assert_eq!((v, n), (v0, n0));
    }

    #[test]
    fn a_folded_database_round_trips_its_retained_window() {
        use crate::{Dcsm, DETAIL_WINDOW};
        let mut db = CostVectorDb::new();
        let total = 2 * DETAIL_WINDOW + 50;
        for i in 0..total {
            let vector = CostVector {
                t_first_ms: None,
                t_all_ms: Some(i as f64),
                cardinality: Some(1.0),
            };
            let call = GroundCall::new("d", "f", vec![Value::Int(i as i64 % 7)]);
            db.record(call, vector, SimInstant::EPOCH);
        }
        assert_eq!(db.len(), total);
        assert_eq!(db.detail_len(), DETAIL_WINDOW + 50);

        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        assert_eq!(loaded.records_for("d", "f"), db.records_for("d", "f"));
        assert_eq!(loaded.len(), db.detail_len());

        // What a restart adopts is the window: its estimate is the
        // window's average, not the all-time one.
        let mut dcsm = Dcsm::new();
        dcsm.load_db(&loaded);
        let blanket = CallPattern::new("d", "f", vec![PatArg::Bound]);
        assert_eq!(dcsm.db().aggregate(&blanket), db.aggregate_scan(&blanket));
        assert_ne!(dcsm.db().aggregate(&blanket), db.aggregate(&blanket));
    }

    #[test]
    fn partial_vectors_roundtrip() {
        let mut db = CostVectorDb::new();
        db.record(
            hermes_common::GroundCall::new("d", "f", vec![]),
            CostVector {
                t_first_ms: Some(1.25),
                t_all_ms: None,
                cardinality: None,
            },
            SimInstant::EPOCH,
        );
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        let r = &loaded.records_for("d", "f")[0];
        assert_eq!(r.vector.t_first_ms, Some(1.25));
        assert_eq!(r.vector.t_all_ms, None);
    }

    #[test]
    fn header_and_shape_validation() {
        assert!(load(b"wrong\n".as_slice()).is_err());
        let err = load(b"hermes-cost-vector-db v1\nS1:dS1:fA0;\t-\t-\t-\t0\n".as_slice());
        assert!(err.unwrap_err().to_string().contains("no longer read"));
        let record = |t_first: Value, at: i64| {
            let call = [Value::str("d"), Value::str("f"), Value::List(vec![])];
            let rest = [t_first, Value::Null, Value::Float(2.0), Value::Int(at)];
            Value::List(call.into_iter().chain(rest).collect())
        };
        let load_records = |records: &[Value]| {
            let mut buf = Vec::new();
            write_state_file(NAME, records, &mut buf).unwrap();
            load(buf.as_slice())
        };
        assert_eq!(load_records(&[record(Value::Null, 0)]).unwrap().len(), 1);
        assert!(load_records(&[record(Value::Int(1), 0)]).is_err());
        assert!(load_records(&[record(Value::Null, -1)]).is_err());
        assert!(load_records(&[Value::List(vec![Value::str("d"), Value::str("f")])]).is_err());
        assert!(load_records(&[Value::Null]).is_err());
    }

    #[test]
    fn save_reports_an_error_on_the_final_buffered_write() {
        // Everything fits the buffer, so the sink is only written to —
        // and only fails — when the buffer is flushed.
        struct DiskFull;
        impl Write for DiskFull {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = save(&figure2_database(), std::io::BufWriter::new(DiskFull)).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hermes-dcsm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.db");
        save_to_path(&figure2_database(), &path).unwrap();
        let loaded = load_from_path(&path).unwrap();
        assert_eq!(loaded.len(), 13);
        std::fs::remove_dir_all(&dir).ok();
    }
}
