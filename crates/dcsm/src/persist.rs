//! Statistics-cache persistence.
//!
//! The cost vector database is the mediator's accumulated knowledge about
//! source behaviour; §6's whole premise is that this knowledge is hard to
//! come by (every record cost a real remote call), so it is worth keeping
//! across restarts. One record per line:
//!
//! ```text
//! <call> "\t" <t_first|-> "\t" <t_all|-> "\t" <card|-> "\t" <recorded_at µs>
//! ```
//!
//! Floats are serialized as bit-exact hex so a save/load cycle never
//! perturbs an estimate.

use crate::cost::CostVector;
use crate::vectordb::CostVectorDb;
use hermes_common::atomic_file::write_atomically;
use hermes_common::wire::{encode_call, Decoder};
use hermes_common::{HermesError, Result, SimDuration, SimInstant};
use std::io::{BufRead, Write};

const HEADER: &str = "hermes-cost-vector-db v1";

fn write_component(v: Option<f64>, out: &mut String) {
    match v {
        Some(x) => {
            out.push_str(&format!("{:016x}", x.to_bits()));
        }
        None => out.push('-'),
    }
}

fn read_component(text: &str, what: &str) -> Result<Option<f64>> {
    if text == "-" {
        return Ok(None);
    }
    u64::from_str_radix(text, 16)
        .map(|bits| Some(f64::from_bits(bits)))
        .map_err(|e| HermesError::Io(format!("bad {what} `{text}`: {e}")))
}

/// Writes every record to `out` and flushes it.
pub fn save<W: Write>(db: &CostVectorDb, mut out: W) -> Result<()> {
    writeln!(out, "{HEADER}")?;
    for (domain, function) in db.functions() {
        for r in db.records_for(&domain, &function) {
            let mut line = String::new();
            encode_call(&r.call, &mut line);
            line.push('\t');
            write_component(r.vector.t_first_ms, &mut line);
            line.push('\t');
            write_component(r.vector.t_all_ms, &mut line);
            line.push('\t');
            write_component(r.vector.cardinality, &mut line);
            line.push('\t');
            line.push_str(&r.recorded_at.as_micros().to_string());
            writeln!(out, "{line}")?;
        }
    }
    // A buffering writer only meets the error of its last chunk here.
    out.flush()?;
    Ok(())
}

/// Reads records from `input` into a fresh database.
pub fn load<R: BufRead>(input: R) -> Result<CostVectorDb> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| HermesError::Io("empty statistics file".into()))??;
    if header != HEADER {
        return Err(HermesError::Io(format!(
            "unrecognized statistics header `{header}`"
        )));
    }
    let mut db = CostVectorDb::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 5 {
            return Err(HermesError::Io(format!(
                "statistics line {}: expected 5 fields, got {}",
                lineno + 2,
                fields.len()
            )));
        }
        let mut d = Decoder::new(fields[0]);
        let call = d.call()?;
        let vector = CostVector {
            t_first_ms: read_component(fields[1], "t_first")?,
            t_all_ms: read_component(fields[2], "t_all")?,
            cardinality: read_component(fields[3], "cardinality")?,
        };
        let micros: u64 = fields[4].parse().map_err(|e| {
            HermesError::Io(format!(
                "statistics line {}: bad timestamp: {e}",
                lineno + 2
            ))
        })?;
        db.record(
            call,
            vector,
            SimInstant::EPOCH + SimDuration::from_micros(micros),
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
    use hermes_common::{CallPattern, PatArg, Value};

    #[test]
    fn roundtrip_preserves_aggregates_exactly() {
        let db = figure2_database();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let loaded = load(std::io::Cursor::new(&buf)).unwrap();
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
        let loaded = load(std::io::Cursor::new(&buf)).unwrap();
        let r = &loaded.records_for("d", "f")[0];
        assert_eq!(r.vector.t_first_ms, Some(1.25));
        assert_eq!(r.vector.t_all_ms, None);
    }

    #[test]
    fn header_and_shape_validation() {
        assert!(load(std::io::Cursor::new(b"wrong\n".as_slice())).is_err());
        let bad = format!("{HEADER}\nS1:dS1:fA0;\tzz\t-\t-\t0\n");
        assert!(load(std::io::Cursor::new(bad.as_bytes())).is_err());
        let short = format!("{HEADER}\nS1:dS1:fA0;\t-\t-\n");
        assert!(load(std::io::Cursor::new(short.as_bytes())).is_err());
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
        let path = dir.join("stats.txt");
        save_to_path(&figure2_database(), &path).unwrap();
        let loaded = load_from_path(&path).unwrap();
        assert_eq!(loaded.len(), 13);
        std::fs::remove_dir_all(&dir).ok();
    }
}
