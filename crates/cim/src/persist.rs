//! Answer-cache persistence.
//!
//! Caching exists because source calls are expensive (remote, metered,
//! sometimes unavailable — §1); a cache that evaporates on restart wastes
//! exactly those calls. The format is line-oriented text (one entry per
//! line, see [`hermes_common::wire`]): a versioned header, then
//!
//! ```text
//! <call> "\t" <complete 0|1> "\t" <inserted_at µs> "\t" <n answers> "\t" <answers…>
//! ```

use crate::cache::AnswerCache;
use hermes_common::atomic_file::write_atomically;
use hermes_common::wire::{encode_call, encode_value, Decoder};
use hermes_common::{HermesError, Result, SimDuration, SimInstant};
use std::io::{BufRead, Write};

const HEADER: &str = "hermes-answer-cache v1";

/// Writes every cache entry to `out` and flushes it.
pub fn save<W: Write>(cache: &AnswerCache, mut out: W) -> Result<()> {
    writeln!(out, "{HEADER}")?;
    // Deterministic order: sort by call.
    let mut entries: Vec<_> = cache.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    for (call, entry) in entries {
        let mut line = String::new();
        encode_call(call, &mut line);
        line.push('\t');
        line.push(if entry.complete { '1' } else { '0' });
        line.push('\t');
        line.push_str(&entry.inserted_at.as_micros().to_string());
        line.push('\t');
        line.push_str(&entry.answers.len().to_string());
        line.push('\t');
        for a in entry.answers.iter() {
            encode_value(a, &mut line);
        }
        writeln!(out, "{line}")?;
    }
    // A buffering writer only meets the error of its last chunk here.
    out.flush()?;
    Ok(())
}

/// Reads entries from `input` into a fresh unbounded cache.
pub fn load<R: BufRead>(input: R) -> Result<AnswerCache> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| HermesError::Io("empty cache file".into()))??;
    if header != HEADER {
        return Err(HermesError::Io(format!(
            "unrecognized cache header `{header}`"
        )));
    }
    let mut cache = AnswerCache::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let mut need = || {
            fields
                .next()
                .ok_or_else(|| HermesError::Io(format!("cache line {}: truncated", lineno + 2)))
        };
        let call_text = need()?;
        let complete_text = need()?;
        let at_text = need()?;
        let count_text = need()?;
        let answers_text = need()?;

        let mut d = Decoder::new(call_text);
        let call = d.call()?;
        let complete = match complete_text {
            "1" => true,
            "0" => false,
            other => {
                return Err(HermesError::Io(format!(
                    "cache line {}: bad complete flag `{other}`",
                    lineno + 2
                )))
            }
        };
        let micros: u64 = at_text.parse().map_err(|e| {
            HermesError::Io(format!("cache line {}: bad timestamp: {e}", lineno + 2))
        })?;
        let count: usize = count_text
            .parse()
            .map_err(|e| HermesError::Io(format!("cache line {}: bad count: {e}", lineno + 2)))?;
        let mut ad = Decoder::new(answers_text);
        let mut answers = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            answers.push(ad.value()?);
        }
        if !ad.is_done() {
            return Err(HermesError::Io(format!(
                "cache line {}: trailing answer bytes",
                lineno + 2
            )));
        }
        cache.insert(
            call,
            answers,
            complete,
            SimInstant::EPOCH + SimDuration::from_micros(micros),
        );
    }
    Ok(cache)
}

/// Saves to a file path, replacing the file whole or not at all (see
/// [`hermes_common::atomic_file`]).
pub fn save_to_path(cache: &AnswerCache, path: &std::path::Path) -> Result<()> {
    write_atomically(path, |out| save(cache, out))
}

/// Loads from a file path.
pub fn load_from_path(path: &std::path::Path) -> Result<AnswerCache> {
    let file = std::fs::File::open(path)?;
    load(std::io::BufReader::new(file))
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

    #[test]
    fn save_load_roundtrip() {
        let cache = sample_cache();
        let mut buf = Vec::new();
        save(&cache, &mut buf).unwrap();
        let loaded = load(std::io::Cursor::new(&buf)).unwrap();
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
        let err = load(std::io::Cursor::new(b"nope\n".as_slice())).unwrap_err();
        assert!(err.to_string().contains("header"));
        let err2 = load(std::io::Cursor::new(b"".as_slice())).unwrap_err();
        assert!(err2.to_string().contains("empty"));
    }

    #[test]
    fn truncated_line_rejected() {
        let mut buf = Vec::new();
        save(&sample_cache(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 1 {
                    l.split('\t').next().unwrap().to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(load(std::io::Cursor::new(truncated.as_bytes())).is_err());
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
        let path = dir.join("cache.txt");
        let cache = sample_cache();
        save_to_path(&cache, &path).unwrap();
        let loaded = load_from_path(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
