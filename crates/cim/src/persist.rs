//! Answer-cache persistence.
//!
//! Caching exists because source calls are expensive (remote, metered,
//! sometimes unavailable — §1); a cache that evaporates on restart wastes
//! exactly those calls. This module only maps entries to and from values;
//! the file layout and its fail-closed reading belong to
//! [`hermes_common::frame`]. One record per entry:
//!
//! ```text
//! [domain, function, [args…], complete, inserted_at µs, [answers…]]
//! ```

use crate::cache::AnswerCache;
use hermes_common::atomic_file::write_atomically;
use hermes_common::frame::{read_state_file, write_state_file};
use hermes_common::{GroundCall, HermesError, Result, SimDuration, SimInstant, Value};
use std::io::{Read, Write};

const NAME: &str = "hermes-answer-cache";

/// Writes every cache entry to `out` and flushes it.
pub fn save<W: Write>(cache: &AnswerCache, out: W) -> Result<()> {
    // Deterministic order: sort by call.
    let mut entries: Vec<_> = cache.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let records = entries
        .into_iter()
        .map(|(call, entry)| {
            let at = i64::try_from(entry.inserted_at.as_micros())
                .map_err(|_| HermesError::Io(format!("{call}: timestamp exceeds i64 µs")))?;
            Ok(Value::List(vec![
                Value::Str(call.domain.clone()),
                Value::Str(call.function.clone()),
                Value::List(call.args.to_vec()),
                Value::Bool(entry.complete),
                Value::Int(at),
                Value::List(entry.answers.to_vec()),
            ]))
        })
        .collect::<Result<Vec<_>>>()?;
    write_state_file(NAME, &records, out)
}

/// Replaces the contents of `cache` with the entries read from `input`.
/// The cache keeps its byte budget, its registered ordered indexes and its
/// counters: entries beyond the budget are evicted by the ordinary LRU as
/// they are inserted. A file that does not read back whole and well-formed
/// is an error and leaves `cache` as it was.
pub fn load_into<R: Read>(input: R, cache: &mut AnswerCache) -> Result<()> {
    replace(cache, read_entries(input)?);
    Ok(())
}

/// Replaces the contents of `cache` with `entries`, inserted in order.
pub fn replace(cache: &mut AnswerCache, entries: Vec<SavedEntry>) {
    cache.clear();
    for (call, answers, complete, at) in entries {
        cache.insert(call, answers, complete, at);
    }
}

/// One saved entry: the call, its answers, whether they are complete, and
/// when they were stored.
pub type SavedEntry = (GroundCall, Vec<Value>, bool, SimInstant);

/// Reads every entry from `input`, in file order, or the error that makes
/// [`load_into`] change nothing.
pub fn read_entries<R: Read>(input: R) -> Result<Vec<SavedEntry>> {
    read_state_file(NAME, input)?
        .into_iter()
        .map(|record| {
            let bad = || HermesError::Io(format!("{NAME}: malformed entry record"));
            let Value::List(fields) = record else {
                return Err(bad());
            };
            let Ok(
                [Value::Str(domain), Value::Str(function), Value::List(args), Value::Bool(complete), Value::Int(at), Value::List(answers)],
            ) = <[Value; 6]>::try_from(fields)
            else {
                return Err(bad());
            };
            // A negative timestamp is not one this program wrote.
            let at = u64::try_from(at).map_err(|_| bad())?;
            Ok((
                GroundCall::new(domain, function, args),
                answers,
                complete,
                SimInstant::EPOCH + SimDuration::from_micros(at),
            ))
        })
        .collect()
}

/// Saves to a file path, replacing the file whole or not at all (see
/// [`hermes_common::atomic_file`]).
pub fn save_to_path(cache: &AnswerCache, path: &std::path::Path) -> Result<()> {
    write_atomically(path, |out| save(cache, out))
}

/// Reads every entry from a file path (see [`read_entries`]).
pub fn read_entries_from_path(path: &std::path::Path) -> Result<Vec<SavedEntry>> {
    let file = std::fs::File::open(path)?;
    read_entries(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{GroundCall, Record, Value};

    fn sample_cache() -> AnswerCache {
        let mut c = AnswerCache::new();
        c.insert(
            GroundCall::new(
                "video",
                "frames_to_objects",
                vec![Value::str("rope"), Value::Int(4), Value::Int(47)],
            ),
            vec![Value::str("brandon"), Value::str("rupert")],
            true,
            SimInstant::EPOCH + SimDuration::from_millis(1234),
        );
        c.insert(
            GroundCall::new("d", "f", vec![Value::Float(2.5)]),
            vec![Value::Record(Record::from_fields([
                ("first", Value::Int(0)),
                ("note", Value::str("multi\nline")),
            ]))],
            false,
            SimInstant::EPOCH,
        );
        c.insert(
            GroundCall::new("d", "empty", vec![]),
            vec![],
            true,
            SimInstant::EPOCH,
        );
        c
    }

    fn load(bytes: &[u8]) -> Result<AnswerCache> {
        let mut cache = AnswerCache::new();
        load_into(bytes, &mut cache)?;
        Ok(cache)
    }

    #[test]
    fn save_load_roundtrip() {
        let cache = sample_cache();
        let mut buf = Vec::new();
        save(&cache, &mut buf).unwrap();
        let loaded = load(&buf).unwrap();
        assert_eq!(loaded.len(), cache.len());
        for (call, entry) in cache.iter() {
            let got = loaded.peek(call).expect("entry survives");
            assert_eq!(got.answers, entry.answers);
            assert_eq!(got.complete, entry.complete);
            assert_eq!(got.inserted_at, entry.inserted_at);
        }
    }

    #[test]
    fn save_is_deterministic() {
        let cache = sample_cache();
        let mut a = Vec::new();
        let mut b = Vec::new();
        save(&cache, &mut a).unwrap();
        save(&cache, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_header_rejected() {
        for bad in [b"nope\n".as_slice(), b"", b"hermes-answer-cache v3\n"] {
            let err = load(bad).unwrap_err();
            assert!(err.to_string().contains("header"), "{err}");
        }
        let err = load(b"hermes-answer-cache v1\nS1:dS1:fA0;\t1\t0\t0\t\n").unwrap_err();
        assert!(err.to_string().contains("no longer read"), "{err}");
    }

    #[test]
    fn truncated_line_rejected() {
        let mut buf = Vec::new();
        save(&sample_cache(), &mut buf).unwrap();
        // Anywhere: inside the header line, inside a record, and at the
        // end of one (the cut the text format loaded as a smaller cache).
        for cut in 0..buf.len() {
            assert!(load(&buf[..cut]).is_err(), "accepted a cut at {cut}");
        }
    }

    #[test]
    fn malformed_entry_records_rejected() {
        let record = |at: i64, complete: Value| {
            let call = [Value::str("d"), Value::str("f"), Value::List(vec![])];
            let rest = [complete, Value::Int(at), Value::List(vec![])];
            Value::List(call.into_iter().chain(rest).collect())
        };
        let load_records = |records: &[Value], cache: &mut AnswerCache| {
            let mut buf = Vec::new();
            write_state_file(NAME, records, &mut buf).unwrap();
            load_into(buf.as_slice(), cache)
        };
        let good = record(7, Value::Bool(true));
        let mut cache = sample_cache();
        for bad in [
            record(-1, Value::Bool(true)),
            record(7, Value::Int(1)),
            Value::List(vec![Value::str("d")]),
            Value::Null,
        ] {
            // A bad record anywhere leaves the cache being loaded into alone.
            assert!(load_records(&[good.clone(), bad], &mut cache).is_err());
            assert_eq!(cache.len(), sample_cache().len());
        }
        load_records(&[good], &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
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
        let err = save(&sample_cache(), std::io::BufWriter::new(DiskFull)).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hermes-cim-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("answers.cache");
        let cache = sample_cache();
        save_to_path(&cache, &path).unwrap();
        let mut loaded = AnswerCache::new();
        replace(&mut loaded, read_entries_from_path(&path).unwrap());
        assert_eq!(loaded.len(), cache.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
