//! The workspace's one [`Value`] codec, the frames built on its encoding,
//! and the state-file container.
//!
//! A compact binary value encoding (no escaping, no decimal parsing)
//! carries every value that leaves the process: inside the length-prefixed
//! frames `hermes-serve` and its clients exchange over TCP, and inside the
//! state files the answer cache and the statistics cache persist to (see
//! [State files](#state-files)).
//!
//! ## Frame grammar
//!
//! Every frame on the socket is
//!
//! ```text
//! frame   := len:u32-LE  kind:u8  payload
//! ```
//!
//! where `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME_LEN`] (a malformed or hostile length fails fast instead of
//! allocating). Payloads are binary-encoded [`Value`]s:
//!
//! ```text
//! value   := 0x00                          (null)
//!          | 0x01 | 0x02                   (false | true)
//!          | 0x03 i64-LE                   (int)
//!          | 0x04 f64-bits-LE              (float)
//!          | 0x05 len:u32-LE bytes         (str, UTF-8)
//!          | 0x06 count:u32-LE value*      (list)
//!          | 0x07 count:u32-LE (str value)* (record; str as in 0x05)
//! ```
//!
//! Nesting is bounded by [`MAX_DEPTH`]; every decode path returns a
//! structured [`HermesError::Io`] — never a panic, never silent
//! acceptance of trailing garbage.
//!
//! ## Frames
//!
//! Client → server: [`Frame::Query`] (source text plus per-run options),
//! [`Frame::Stats`] (the admin frame), [`Frame::Ping`], [`Frame::Shutdown`]
//! (graceful drain). Server → client: zero or more [`Frame::Batch`]es of
//! answer rows followed by one [`Frame::Done`], or one [`Frame::Error`];
//! [`Frame::StatsReply`], [`Frame::Pong`]. The error frame round-trips
//! [`HermesError`] well enough for clients to distinguish shed queries
//! (backpressure) from deadline aborts from real failures.
//!
//! A `Query`, `Done` or `Error` payload is a record of named fields and a
//! `Batch` payload a list of row lists, but no frame is built as a
//! [`Value`] tree: [`Frame::encode_into`] writes each field straight from
//! its struct into a buffer the caller keeps, [`put_answer`] writes a
//! whole answer straight from borrowed rows, and [`Frame::decode_body`]
//! reads each field straight into its struct — by name, in any order,
//! skipping (and checking) fields it does not know. The tree codec stays
//! for `StatsReply` and the state files; the tree-building frame codec it
//! replaced is the `spec` module, the oracle the differential tests hold
//! these bytes to. No encoder writes a frame its decoders refuse:
//! [`put_answer`] cuts batches at [`MAX_FRAME_LEN`] too.
//!
//! ## State files
//!
//! [`write_state_file`] / [`read_state_file`] are the only code that knows
//! the on-disk container; the `persist` modules of `hermes-cim` and
//! `hermes-dcsm` only map their entries to and from values.
//!
//! ```text
//! file    := name " v2\n"  count:u32-LE  record*count
//! record  := len:u32-LE  value            (len ≤ MAX_FRAME_LEN)
//! ```
//!
//! Reading is fail-closed: a wrong header, a file cut anywhere (record
//! boundaries included — `count` says how many must follow), an oversized
//! or malformed record, and any byte after the last record are all errors.
//! The v1 text format is recognised only to say it is no longer read.

// Frames arrive from untrusted sockets: decoding must never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::{HermesError, Result};
use crate::value::{Record, Value};
use std::io::{Read, Write};

#[cfg(any(test, feature = "spec"))]
pub mod spec;

/// Hard cap on one frame's body (kind byte + payload): 64 MiB.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Maximum value-nesting depth a decoder will follow.
pub const MAX_DEPTH: usize = 64;

// ---------- binary value codec ----------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_LIST: u8 = 0x06;
const TAG_RECORD: u8 = 0x07;

fn put_u32(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n.min(u32::MAX as usize) as u32).to_le_bytes());
}

/// Overwrites the length word at `at` (written earlier as a placeholder).
fn patch_u32(out: &mut [u8], at: usize, n: usize) {
    out[at..at + 4].copy_from_slice(&(n.min(u32::MAX as usize) as u32).to_le_bytes());
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_u32(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one value onto `out` in the binary framing codec.
pub fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(s, out);
        }
        Value::List(vs) => put_list(vs, out),
        Value::Record(r) => {
            out.push(TAG_RECORD);
            put_u32(r.len(), out);
            for (name, v) in r.iter() {
                put_str(name, out);
                put_value(v, out);
            }
        }
    }
}

fn put_list(vs: &[Value], out: &mut Vec<u8>) {
    out.push(TAG_LIST);
    put_u32(vs.len(), out);
    for v in vs {
        put_value(v, out);
    }
}

/// The bytes [`put_value`] writes for `v`.
fn value_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::List(vs) => list_len(vs),
        Value::Record(r) => {
            5 + r
                .iter()
                .map(|(n, v)| 4 + n.len() + value_len(v))
                .sum::<usize>()
        }
    }
}

fn list_len(vs: &[Value]) -> usize {
    5 + vs.iter().map(value_len).sum::<usize>()
}

/// A bounds-checked cursor over one frame's payload bytes.
pub struct BinDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinDecoder<'a> {
    /// Starts decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BinDecoder { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn err(&self, msg: impl Into<String>) -> HermesError {
        HermesError::Io(format!(
            "frame decode error at byte {}/{}: {}",
            self.pos,
            self.buf.len(),
            msg.into()
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err(format!("needed {n} bytes")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<usize> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn u64(&mut self) -> Result<u64> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|e| self.err(format!("invalid UTF-8: {e}")))
    }

    /// Decodes one value (depth-bounded).
    pub fn value(&mut self) -> Result<Value> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::str(self.str()?)),
            TAG_LIST => Ok(Value::List(self.items(depth)?)),
            TAG_RECORD => {
                let n = self.u32()?;
                let mut rec = Record::new();
                for _ in 0..n {
                    let name = self.str()?.to_string();
                    let v = self.value_at(depth + 1)?;
                    rec.push(name, v);
                }
                Ok(Value::Record(rec))
            }
            other => Err(self.err(format!("unknown value tag 0x{other:02x}"))),
        }
    }

    /// The elements of a list at `depth` whose tag has been read.
    fn items(&mut self, depth: usize) -> Result<Vec<Value>> {
        let n = self.u32()?;
        // A hostile count cannot out-allocate the actual payload: each
        // element costs at least one byte on the wire.
        let mut items = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            items.push(self.value_at(depth + 1)?);
        }
        Ok(items)
    }

    /// The value at `depth`, read by `read` when its tag is `tag`; any
    /// other value is decoded, checked and dropped, and reads as `None`.
    fn typed<T>(
        &mut self,
        depth: usize,
        tag: u8,
        read: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<Option<T>> {
        if depth < MAX_DEPTH && self.buf.get(self.pos) == Some(&tag) {
            self.pos += 1;
            return read(self).map(Some);
        }
        self.value_at(depth).map(|_| None)
    }

    /// Reads a whole record payload field by field, looking fields up by
    /// name as the tree decoder does: the first field of each name goes to
    /// its slot; every other field, a repeated name included, is decoded,
    /// checked and dropped.
    fn fields<const N: usize>(&mut self, slots: [(&str, &mut dyn Get); N]) -> Result<()> {
        if self.byte()? != TAG_RECORD {
            return Err(self.err("frame payload is not a record"));
        }
        let mut seen = [false; N];
        for _ in 0..self.u32()? {
            let name = self.str()?;
            match slots.iter().position(|(n, _)| *n == name) {
                Some(i) if !seen[i] => {
                    seen[i] = true;
                    slots[i].1.get(self)?;
                }
                _ => drop(self.value_at(1)?),
            }
        }
        self.finish()
    }

    /// Errs unless every byte has been consumed.
    fn finish(&self) -> Result<()> {
        match self.is_done() {
            true => Ok(()),
            false => Err(HermesError::Io("trailing bytes after framed value".into())),
        }
    }
}

/// Encodes a value to fresh bytes.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    put_value(v, &mut out);
    out
}

/// Decodes a value from a complete buffer, rejecting trailing bytes.
pub fn value_from_bytes(buf: &[u8]) -> Result<Value> {
    let mut d = BinDecoder::new(buf);
    let v = d.value()?;
    d.finish()?;
    Ok(v)
}
// ---------- state-file container ----------

/// The version suffix of the header line [`write_state_file`] writes.
const STATE_V2: &str = " v2\n";
/// The suffix the deleted text format wrote; recognised to explain itself.
const STATE_V1: &str = " v1\n";

/// `n` as a length word, or an error when it exceeds `max`: a truncating
/// cast would write a file that does not read back.
fn length_word(n: usize, max: u32, what: &str) -> Result<[u8; 4]> {
    match u32::try_from(n) {
        Ok(n) if n <= max => Ok(n.to_le_bytes()),
        _ => Err(HermesError::Io(format!(
            "state file: {what} {n} exceeds {max}"
        ))),
    }
}

/// Writes a state file (layout in the module docs) holding `records`
/// under the header `name`, and flushes `out`.
pub fn write_state_file<W: Write>(name: &str, records: &[Value], mut out: W) -> Result<()> {
    out.write_all(name.as_bytes())?;
    out.write_all(STATE_V2.as_bytes())?;
    out.write_all(&length_word(records.len(), u32::MAX, "record count")?)?;
    let mut body = Vec::new();
    for record in records {
        body.clear();
        put_value(record, &mut body);
        out.write_all(&length_word(body.len(), MAX_FRAME_LEN, "record length")?)?;
        out.write_all(&body)?;
    }
    // A buffering writer only meets the error of its last chunk here.
    out.flush()?;
    Ok(())
}

/// Reads exactly `n` bytes into `buf`. Reading through `take` means a
/// hostile `n` allocates only what the input actually supplies.
fn fill(input: &mut impl Read, n: usize, buf: &mut Vec<u8>) -> Result<()> {
    buf.clear();
    input.by_ref().take(n as u64).read_to_end(buf)?;
    match buf.len() {
        found if found == n => Ok(()),
        found => Err(HermesError::Io(format!(
            "state file cut short: needed {n} bytes, found {found}"
        ))),
    }
}

fn fill_u32(input: &mut impl Read, buf: &mut Vec<u8>) -> Result<u32> {
    fill(input, 4, buf)?;
    Ok(u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]))
}

/// Reads a whole state file written by [`write_state_file`] under the
/// same `name`. Fail-closed (see the module docs), and a hostile `count`
/// or `len` cannot make it allocate more than the input supplies.
pub fn read_state_file<R: Read>(name: &str, mut input: R) -> Result<Vec<Value>> {
    let bad = |what: &str| HermesError::Io(format!("{name}: {what}"));
    let mut buf = Vec::new();
    let header = (name.len() + STATE_V2.len()) as u64;
    input.by_ref().take(header).read_to_end(&mut buf)?;
    match buf.strip_prefix(name.as_bytes()) {
        Some(version) if version == STATE_V2.as_bytes() => {}
        Some(version) if version == STATE_V1.as_bytes() => {
            return Err(bad(
                "a v1 text state file, which is no longer read: delete it and re-warm the caches",
            ))
        }
        _ => return Err(bad("unrecognized state-file header")),
    }
    let count = fill_u32(&mut input, &mut buf)?;
    let mut records = Vec::new();
    for _ in 0..count {
        let len = fill_u32(&mut input, &mut buf)?;
        if len > MAX_FRAME_LEN {
            return Err(bad("a record longer than the frame cap"));
        }
        fill(&mut input, len as usize, &mut buf)?;
        records.push(value_from_bytes(&buf)?);
    }
    buf.clear();
    input.take(1).read_to_end(&mut buf)?;
    if !buf.is_empty() {
        return Err(bad("bytes after the last record"));
    }
    Ok(records)
}

// ---------- typed frames ----------

const KIND_QUERY: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_PING: u8 = 0x03;
const KIND_SHUTDOWN: u8 = 0x04;
const KIND_BATCH: u8 = 0x10;
const KIND_DONE: u8 = 0x11;
const KIND_ERROR: u8 = 0x12;
const KIND_STATS_REPLY: u8 = 0x13;
const KIND_PONG: u8 = 0x14;

/// One query and its per-run options, as sent on the wire. Durations are
/// microseconds of *real* time — `hermes-serve` runs queries on the wall
/// clock, so a client deadline is a wall deadline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryFrame {
    /// Query source text (`?- item(A, B).`).
    pub src: String,
    /// Stop after this many answers.
    pub limit: Option<u64>,
    /// Per-query deadline in microseconds (abort past it, partial answers).
    pub deadline_us: Option<u64>,
    /// Per-query budget in microseconds (fail-soft tier downgrade).
    pub budget_us: Option<u64>,
    /// Pinned plan tier (`cache-only` | `cached-cheap` | `full`).
    pub tier: Option<String>,
    /// Collect and return a rendered execution trace.
    pub trace: bool,
}

impl QueryFrame {
    /// A query frame with every option at its default.
    pub fn new(src: impl Into<String>) -> Self {
        QueryFrame {
            src: src.into(),
            ..QueryFrame::default()
        }
    }
}

/// Terminates a successful query response, after zero or more batches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DoneFrame {
    /// Answer-column names, in output order.
    pub columns: Vec<String>,
    /// Total rows sent across the preceding batches.
    pub rows: u64,
    /// True when any subgoal's answers may be incomplete.
    pub incomplete: bool,
    /// Server-side wall-clock time spent on this query, microseconds.
    pub elapsed_us: u64,
    /// Source round trips the query actually paid for.
    pub source_calls: u64,
    /// Answers served from the cache hierarchy (CIM hits of any kind).
    pub cache_hits: u64,
    /// Mid-execution fail-soft tier downgrades.
    pub tier_downgrades: u64,
    /// Rendered trace lines (empty unless the query asked for a trace).
    pub trace: Vec<String>,
}

/// A failed query (or a refused frame), with a stable machine-readable
/// code so clients can count sheds separately from real errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Stable code: `shed`, `deadline`, `unavailable`, `parse`, `plan`,
    /// `analysis`, `eval`, `io`, `bad-frame`, ...
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ErrorFrame {
    /// Maps a mediator error onto the wire, preserving the class.
    pub fn from_error(e: &HermesError) -> Self {
        // A shed carries its raw machine reason so the client-side
        // round trip reconstructs `Shed { reason }` exactly — retry
        // logic keys on the reason, not on display text.
        if let HermesError::Shed { reason } = e {
            return ErrorFrame {
                code: "shed".into(),
                message: reason.clone(),
            };
        }
        let code = match e {
            HermesError::Shed { .. } => "shed",
            HermesError::DeadlineExceeded { .. } => "deadline",
            HermesError::Unavailable { .. } => "unavailable",
            HermesError::Parse { .. } => "parse",
            HermesError::Plan(_) => "plan",
            HermesError::Analysis { .. } => "analysis",
            HermesError::UnknownDomain(_)
            | HermesError::UnknownFunction { .. }
            | HermesError::BadArity { .. }
            | HermesError::BadBinding { .. }
            | HermesError::Type(_)
            | HermesError::Eval(_) => "eval",
            HermesError::Io(_) => "io",
        };
        ErrorFrame {
            code: code.into(),
            message: e.to_string(),
        }
    }

    /// The client-side error a received frame surfaces as. A shed stays a
    /// [`HermesError::Shed`] so retry/backoff logic treats it correctly.
    pub fn into_error(self) -> HermesError {
        match self.code.as_str() {
            "shed" => HermesError::Shed {
                reason: self.message,
            },
            _ => HermesError::Eval(format!("server error [{}]: {}", self.code, self.message)),
        }
    }
}

/// One frame on the socket.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: run a query.
    Query(QueryFrame),
    /// Client → server: the admin frame — reply with a
    /// [`Frame::StatsReply`] snapshot of `ServerStats` + `CacheSnapshot`.
    Stats,
    /// Client → server: liveness probe.
    Ping,
    /// Client → server: stop accepting, drain in-flight work, exit.
    Shutdown,
    /// Server → client: one batch of answer rows.
    Batch(Vec<Vec<Value>>),
    /// Server → client: the query finished; summary and counters.
    Done(DoneFrame),
    /// Server → client: the query (or frame) failed.
    Error(ErrorFrame),
    /// Server → client: the stats snapshot, as a record value.
    StatsReply(Value),
    /// Server → client: liveness reply.
    Pong,
}

/// A [`Frame::Done`] over borrowed column names and trace lines: a server
/// writes its answer's summary with [`put_answer`] straight from the
/// result it holds. The fields mean what [`DoneFrame`]'s do.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct DoneRef<'a, C, T> {
    pub columns: &'a [C],
    pub rows: u64,
    pub incomplete: bool,
    pub elapsed_us: u64,
    pub source_calls: u64,
    pub cache_hits: u64,
    pub tier_downgrades: u64,
    pub trace: &'a [T],
}

impl<C: AsRef<str>, T: AsRef<str>> DoneRef<'_, C, T> {
    /// Appends the complete `Done` frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, KIND_DONE);
        self.put_payload(out);
        end_frame(out, start);
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        put_record(
            [
                ("columns", &self.columns),
                ("rows", &self.rows),
                ("incomplete", &self.incomplete),
                ("elapsed_us", &self.elapsed_us),
                ("source_calls", &self.source_calls),
                ("cache_hits", &self.cache_hits),
                ("tier_downgrades", &self.tier_downgrades),
                ("trace", &self.trace),
            ],
            out,
        );
    }

    /// The bytes [`DoneRef::encode_into`] writes: 171 for the header, the
    /// field names, tags and counters, and 5 beside each string's own.
    fn size_hint(&self) -> usize {
        let strs = |n: usize, len: usize| 5 * n + len;
        let columns = self.columns.iter().map(|c| c.as_ref().len()).sum();
        let trace = self.trace.iter().map(|l| l.as_ref().len()).sum();
        171 + strs(self.columns.len(), columns) + strs(self.trace.len(), trace)
    }
}

impl DoneFrame {
    /// This frame's fields, borrowed.
    pub fn borrowed(&self) -> DoneRef<'_, String, String> {
        DoneRef {
            columns: &self.columns,
            rows: self.rows,
            incomplete: self.incomplete,
            elapsed_us: self.elapsed_us,
            source_calls: self.source_calls,
            cache_hits: self.cache_hits,
            tier_downgrades: self.tier_downgrades,
            trace: &self.trace,
        }
    }
}

/// A record field written straight from where it is held: the bytes
/// [`put_value`] writes for the value the field stands for.
trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

impl Put for &str {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_STR);
        put_str(self, out);
    }
}

/// An `Int`, so a count past `i64::MAX` is written as `i64::MAX`.
impl Put for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_INT);
        out.extend_from_slice(&(*self).min(i64::MAX as u64).to_le_bytes());
    }
}

impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(if *self { TAG_TRUE } else { TAG_FALSE });
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => v.put(out),
            None => out.push(TAG_NULL),
        }
    }
}

impl<S: AsRef<str>> Put for &[S] {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_LIST);
        put_u32(self.len(), out);
        for s in self.iter() {
            s.as_ref().put(out);
        }
    }
}

fn put_record<const N: usize>(fields: [(&str, &dyn Put); N], out: &mut Vec<u8>) {
    out.push(TAG_RECORD);
    put_u32(N, out);
    for (name, value) in fields {
        put_str(name, out);
        value.put(out);
    }
}

/// A record field read straight into where it is kept: what the tree
/// decoder picks out of the field's value, which it decodes and checks
/// whatever it holds.
trait Get {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()>;
}

/// A string; `None` for any other value.
impl Get for Option<String> {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()> {
        *self = d.typed(1, TAG_STR, |d| d.str().map(str::to_owned))?;
        Ok(())
    }
}

/// A non-negative `Int`; `None` for any other value.
impl Get for Option<u64> {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()> {
        *self = d.typed(1, TAG_INT, BinDecoder::u64)?;
        *self = self.filter(|&n| n <= i64::MAX as u64);
        Ok(())
    }
}

/// A non-negative `Int`; 0 for any other value.
impl Get for u64 {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()> {
        let mut n = None;
        n.get(d)?;
        *self = n.unwrap_or(0);
        Ok(())
    }
}

/// `true`; `false` for any other value.
impl Get for bool {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()> {
        *self = d.typed(1, TAG_TRUE, |_| Ok(()))?.is_some();
        Ok(())
    }
}

/// A list of strings, empty for any other value; an element that is not a
/// string fails the frame (the `Done` frame's column names).
impl Get for Vec<String> {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()> {
        *self = strings(d, false)?;
        Ok(())
    }
}

/// A list of strings that skips an element that is not one (the `Done`
/// frame's trace lines).
struct SkipNonStrings<'a>(&'a mut Vec<String>);

impl Get for SkipNonStrings<'_> {
    fn get(&mut self, d: &mut BinDecoder<'_>) -> Result<()> {
        *self.0 = strings(d, true)?;
        Ok(())
    }
}

fn strings(d: &mut BinDecoder<'_>, skip_others: bool) -> Result<Vec<String>> {
    let list = d.typed(1, TAG_LIST, |d| {
        let n = d.u32()?;
        let mut out = Vec::with_capacity(n.min((d.buf.len() - d.pos) / 5));
        for _ in 0..n {
            match d.typed(2, TAG_STR, |d| d.str().map(str::to_owned))? {
                Some(s) => out.push(s),
                None if skip_others => {}
                None => return Err(d.err("a list element is not a string")),
            }
        }
        Ok(out)
    })?;
    Ok(list.unwrap_or_default())
}

/// Starts a frame of `kind` on `out`, its length word a placeholder that
/// [`end_frame`] fills in; returns where the frame starts.
fn begin_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, kind]);
    start
}

fn end_frame(out: &mut [u8], start: usize) {
    patch_u32(out, start, out.len() - start - 4);
}

/// Writes one query's answer onto `out`, reserved once: `rows` as `Batch`
/// frames of at most `batch_rows` rows, each cut before a row would take
/// its body past `max_len` bytes, and then `done`. `Err`, with `out` as it
/// was, when one row alone or the `Done` frame would be longer than
/// `max_len`: no decoder reads a frame past [`MAX_FRAME_LEN`].
pub fn put_answer<C: AsRef<str>, T: AsRef<str>>(
    rows: &[Vec<Value>],
    batch_rows: usize,
    max_len: u32,
    done: &DoneRef<'_, C, T>,
    out: &mut Vec<u8>,
) -> Result<()> {
    let (base, max_len, batch_rows) = (out.len(), max_len as usize, batch_rows.max(1));
    let rows_len: usize = rows.iter().map(|r| list_len(r)).sum();
    out.reserve(rows_len + 10 * rows.len().div_ceil(batch_rows) + done.size_hint());
    let too_long = |out: &mut Vec<u8>, what: &str, len: usize| {
        out.truncate(base);
        let cap = format!("the {max_len}-byte frame cap");
        Err(HermesError::Io(format!(
            "{what} of {len} bytes exceeds {cap}"
        )))
    };
    let mut rest = rows;
    while !rest.is_empty() {
        let start = begin_frame(out, KIND_BATCH);
        out.push(TAG_LIST);
        put_u32(0, out);
        let mut n = 0;
        for row in rest.iter().take(batch_rows) {
            let len = list_len(row);
            if out.len() - start - 4 + len > max_len {
                if n == 0 {
                    return too_long(out, "a batch of one answer row", len + 6);
                }
                break;
            }
            put_list(row, out);
            n += 1;
        }
        patch_u32(out, start + 6, n);
        end_frame(out, start);
        rest = &rest[n..];
    }
    let start = out.len();
    done.encode_into(out);
    match out.len() - start - 4 {
        len if len > max_len => too_long(out, "the `Done` frame", len),
        _ => Ok(()),
    }
}

impl Frame {
    /// This frame's kind byte.
    fn kind(&self) -> u8 {
        match self {
            Frame::Query(_) => KIND_QUERY,
            Frame::Stats => KIND_STATS,
            Frame::Ping => KIND_PING,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::Batch(_) => KIND_BATCH,
            Frame::Done(_) => KIND_DONE,
            Frame::Error(_) => KIND_ERROR,
            Frame::StatsReply(_) => KIND_STATS_REPLY,
            Frame::Pong => KIND_PONG,
        }
    }

    /// Appends the complete frame (length prefix included) to `out`,
    /// writing every field straight from the frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, self.kind());
        match self {
            Frame::Stats | Frame::Ping | Frame::Shutdown | Frame::Pong => {}
            Frame::Query(q) => put_record(
                [
                    ("src", &q.src.as_str()),
                    ("limit", &q.limit),
                    ("deadline_us", &q.deadline_us),
                    ("budget_us", &q.budget_us),
                    ("tier", &q.tier.as_deref()),
                    ("trace", &q.trace),
                ],
                out,
            ),
            Frame::Batch(rows) => {
                out.push(TAG_LIST);
                put_u32(rows.len(), out);
                rows.iter().for_each(|row| put_list(row, out));
            }
            Frame::Done(d) => d.borrowed().put_payload(out),
            Frame::Error(e) => put_record(
                [("code", &e.code.as_str()), ("message", &e.message.as_str())],
                out,
            ),
            Frame::StatsReply(v) => put_value(v, out),
        }
        end_frame(out, start);
    }

    /// Encodes the complete frame (length prefix included) into a fresh
    /// buffer, allocated once.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_hint());
        self.encode_into(&mut out);
        out
    }

    /// At least the bytes [`Frame::encode_into`] writes: a `Query` takes at
    /// most 109 beside its strings, an `Error` 39.
    fn size_hint(&self) -> usize {
        match self {
            Frame::Query(q) => 109 + q.src.len() + q.tier.as_ref().map_or(0, String::len),
            Frame::Batch(rows) => 10 + rows.iter().map(|r| list_len(r)).sum::<usize>(),
            Frame::Done(d) => d.borrowed().size_hint(),
            Frame::Error(e) => 39 + e.code.len() + e.message.len(),
            Frame::StatsReply(v) => 5 + value_len(v),
            Frame::Stats | Frame::Ping | Frame::Shutdown | Frame::Pong => 5,
        }
    }

    /// Decodes a frame body (kind byte + payload, no length prefix), each
    /// field straight into its struct and a batch straight into its rows.
    pub fn decode_body(body: &[u8]) -> Result<Frame> {
        let (&kind, payload) = body
            .split_first()
            .ok_or_else(|| HermesError::Io("empty frame body".into()))?;
        let d = &mut BinDecoder::new(payload);
        let bare = |frame: Frame| match payload.len() {
            0 => Ok(frame),
            n => Err(HermesError::Io(format!(
                "frame kind 0x{kind:02x} carries {n} unexpected payload byte(s)"
            ))),
        };
        match kind {
            KIND_STATS => bare(Frame::Stats),
            KIND_PING => bare(Frame::Ping),
            KIND_SHUTDOWN => bare(Frame::Shutdown),
            KIND_PONG => bare(Frame::Pong),
            KIND_QUERY => {
                let (mut q, mut src) = (QueryFrame::default(), None::<String>);
                d.fields([
                    ("src", &mut src),
                    ("limit", &mut q.limit),
                    ("deadline_us", &mut q.deadline_us),
                    ("budget_us", &mut q.budget_us),
                    ("tier", &mut q.tier),
                    ("trace", &mut q.trace),
                ])?;
                q.src = src.ok_or_else(|| HermesError::Io("query frame missing `src`".into()))?;
                Ok(Frame::Query(q))
            }
            KIND_BATCH => {
                if d.byte()? != TAG_LIST {
                    return Err(d.err("batch frame payload is not a list"));
                }
                let n = d.u32()?;
                let mut rows = Vec::with_capacity(n.min(payload.len() / 5));
                for _ in 0..n {
                    if d.byte()? != TAG_LIST {
                        return Err(d.err("batch row is not a list"));
                    }
                    rows.push(d.items(1)?);
                }
                d.finish()?;
                Ok(Frame::Batch(rows))
            }
            KIND_DONE => {
                let mut f = DoneFrame::default();
                d.fields([
                    ("columns", &mut f.columns),
                    ("rows", &mut f.rows),
                    ("incomplete", &mut f.incomplete),
                    ("elapsed_us", &mut f.elapsed_us),
                    ("source_calls", &mut f.source_calls),
                    ("cache_hits", &mut f.cache_hits),
                    ("tier_downgrades", &mut f.tier_downgrades),
                    ("trace", &mut SkipNonStrings(&mut f.trace)),
                ])?;
                Ok(Frame::Done(f))
            }
            KIND_ERROR => {
                let (mut code, mut message) = (None::<String>, None::<String>);
                d.fields([("code", &mut code), ("message", &mut message)])?;
                Ok(Frame::Error(ErrorFrame {
                    code: code
                        .ok_or_else(|| HermesError::Io("error frame missing `code`".into()))?,
                    message: message.unwrap_or_default(),
                }))
            }
            KIND_STATS_REPLY => Ok(Frame::StatsReply(value_from_bytes(payload)?)),
            other => Err(HermesError::Io(format!("unknown frame kind 0x{other:02x}"))),
        }
    }
}

/// An incremental frame decoder: feed it arbitrary byte chunks as they
/// arrive off a socket and pull complete frames out, with no blocking
/// and no alignment requirements — a frame may arrive one byte at a
/// time or many frames in one chunk.
///
/// Every reader of the protocol uses it: both serving engines (through
/// their shared connection core), the wire client and the load
/// generator. The length-prefix validation (zero-length frames,
/// the [`MAX_FRAME_LEN`] cap) fails *as soon as the header is visible*,
/// before any body byte is buffered, so a hostile length can never make
/// the decoder allocate.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when a frame has started arriving but is not yet complete —
    /// the signal a read-deadline (slow-loris) check keys on.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    fn peek_len(&self) -> u32 {
        let b = &self.buf[self.pos..self.pos + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Decodes the next complete frame, if one is fully buffered.
    /// `Ok(None)` means "feed me more bytes"; an error means the stream
    /// is corrupt and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let len = self.peek_len();
        if len == 0 {
            return Err(HermesError::Io("zero-length frame".into()));
        }
        if len > MAX_FRAME_LEN {
            return Err(HermesError::Io(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let body_start = self.pos + 4;
        let frame = Frame::decode_body(&self.buf[body_start..self.pos + total])?;
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) {
        let bytes = value_to_bytes(v);
        let back = value_from_bytes(&bytes).unwrap();
        assert_eq!(&back, v, "via {bytes:?}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip_value(&Value::Null);
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Bool(false));
        roundtrip_value(&Value::Int(i64::MIN));
        roundtrip_value(&Value::Int(i64::MAX));
        roundtrip_value(&Value::Float(-13.75));
        roundtrip_value(&Value::Float(f64::INFINITY));
        roundtrip_value(&Value::str(""));
        roundtrip_value(&Value::str("ünïcödé — héllo\nline2"));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let rec = Value::Record(Record::from_fields([
            ("name", Value::str("stewart")),
            ("frames", Value::List(vec![Value::Int(40), Value::Int(935)])),
        ]));
        roundtrip_value(&Value::List(vec![rec.clone(), Value::Null, rec]));
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let mut v = Value::Int(1);
        for _ in 0..(MAX_DEPTH + 4) {
            v = Value::List(vec![v]);
        }
        let bytes = value_to_bytes(&v);
        let err = value_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn truncated_and_trailing_inputs_error_cleanly() {
        let bytes = value_to_bytes(&Value::str("hello"));
        for cut in 0..bytes.len() {
            assert!(value_from_bytes(&bytes[..cut]).is_err(), "accepted {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0x00);
        assert!(value_from_bytes(&extended).is_err());
        // A hostile list count larger than the buffer fails, not OOMs.
        let mut hostile = vec![TAG_LIST];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(value_from_bytes(&hostile).is_err());
    }

    fn roundtrip_frame(f: Frame) {
        let mut d = FrameDecoder::new();
        d.feed(&f.encode());
        assert_eq!(d.next_frame().unwrap(), Some(f));
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(!d.mid_frame(), "the frame's bytes and no more");
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip_frame(Frame::Query(QueryFrame {
            src: "?- item(A, B).".into(),
            limit: Some(5),
            deadline_us: Some(250_000),
            budget_us: None,
            tier: Some("cached-cheap".into()),
            trace: true,
        }));
        roundtrip_frame(Frame::Query(QueryFrame::new("?- q(A).")));
        roundtrip_frame(Frame::Stats);
        roundtrip_frame(Frame::Ping);
        roundtrip_frame(Frame::Shutdown);
        roundtrip_frame(Frame::Pong);
        roundtrip_frame(Frame::Batch(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::Null],
        ]));
        roundtrip_frame(Frame::Done(DoneFrame {
            columns: vec!["A".into(), "B".into()],
            rows: 2,
            incomplete: true,
            elapsed_us: 1234,
            source_calls: 3,
            cache_hits: 7,
            tier_downgrades: 1,
            trace: vec!["t+0.000ms call d:p_bf".into()],
        }));
        roundtrip_frame(Frame::Error(ErrorFrame {
            code: "shed".into(),
            message: "gate-full".into(),
        }));
        roundtrip_frame(Frame::StatsReply(Value::Record(Record::from_fields([
            ("queries", Value::Int(12)),
            ("shed", Value::Int(2)),
        ]))));
    }

    #[test]
    fn encode_sizes_its_buffer_once() {
        let mut frames = corpus();
        frames.push(Frame::Query(QueryFrame::new("")));
        for frame in frames {
            let bytes = frame.encode();
            assert!(bytes.len() <= frame.size_hint(), "{frame:?}");
            assert_eq!(bytes, spec::encode(&frame), "{frame:?}");
        }
    }

    #[test]
    fn consecutive_frames_stream() {
        let mut bytes = Frame::Ping.encode();
        bytes.extend(Frame::Stats.encode());
        bytes.extend(Frame::Pong.encode());
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame().unwrap(), Some(Frame::Ping));
        assert_eq!(d.next_frame().unwrap(), Some(Frame::Stats));
        assert_eq!(d.next_frame().unwrap(), Some(Frame::Pong));
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(!d.mid_frame());
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        // Zero length.
        let mut d = FrameDecoder::new();
        d.feed(&[0, 0, 0, 0]);
        assert!(d.next_frame().is_err());
        // Oversized length.
        let mut d = FrameDecoder::new();
        d.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(d.next_frame().is_err());
        // Truncated mid-header and mid-body: no frame, and a started one
        // (what a connection closed here counts as a bad frame).
        let full = Frame::Query(QueryFrame::new("?- q(A).")).encode();
        for cut in 1..full.len() {
            let mut d = FrameDecoder::new();
            d.feed(&full[..cut]);
            assert_eq!(d.next_frame().unwrap(), None, "accepted cut {cut}");
            assert!(d.mid_frame(), "cut {cut}");
        }
        // Unknown kind; bare kind with unexpected payload; bad payloads.
        assert!(Frame::decode_body(&[0xEE]).is_err());
        assert!(Frame::decode_body(&[KIND_PING, 0x00]).is_err());
        assert!(Frame::decode_body(&[KIND_QUERY, TAG_NULL]).is_err());
        assert!(Frame::decode_body(&[KIND_BATCH, TAG_INT]).is_err());
        assert!(Frame::decode_body(&[]).is_err());
    }

    /// The frame corpus shared by the incremental-decoder properties:
    /// every kind, including empty-payload and multi-batch shapes.
    fn corpus() -> Vec<Frame> {
        vec![
            Frame::Query(QueryFrame {
                src: "?- item(A, B).".into(),
                limit: Some(5),
                deadline_us: Some(250_000),
                budget_us: Some(100_000),
                tier: Some("full".into()),
                trace: true,
            }),
            Frame::Query(QueryFrame::new("?- q(A).")),
            Frame::Stats,
            Frame::Ping,
            Frame::Shutdown,
            Frame::Pong,
            Frame::Batch(vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::Null],
                vec![Value::Float(2.5), Value::Bool(true)],
            ]),
            Frame::Batch(Vec::new()),
            Frame::Done(DoneFrame {
                columns: vec!["A".into()],
                rows: 3,
                incomplete: true,
                elapsed_us: 1234,
                source_calls: 3,
                cache_hits: 7,
                tier_downgrades: 1,
                trace: vec!["t+0.000ms call d:p_bf".into()],
            }),
            Frame::Error(ErrorFrame {
                code: "shed".into(),
                message: "pipeline-full".into(),
            }),
            Frame::StatsReply(Value::Record(Record::from_fields([
                ("queries", Value::Int(12)),
                ("shed", Value::Int(2)),
            ]))),
        ]
    }

    /// Feeds `bytes` to a fresh decoder in the chunks `splits` describes
    /// and returns every frame decoded.
    fn decode_chunked(bytes: &[u8], chunks: impl Iterator<Item = usize>) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        let mut pos = 0;
        for n in chunks {
            if pos == bytes.len() {
                break;
            }
            let end = (pos + n).min(bytes.len());
            decoder.feed(&bytes[pos..end]);
            pos = end;
            while let Some(f) = decoder.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(pos, bytes.len(), "whole stream consumed");
        assert!(!decoder.mid_frame(), "no partial frame left over");
        out
    }

    #[test]
    fn incremental_decode_is_split_invariant() {
        // Every corpus frame, split at every byte boundary: the decode
        // must be identical to the whole-buffer decode.
        for frame in corpus() {
            let bytes = frame.encode();
            for cut in 0..=bytes.len() {
                let got = decode_chunked(&bytes, [cut, bytes.len() - cut].into_iter());
                assert_eq!(got, vec![frame.clone()], "split at {cut}");
            }
            // And one byte at a time.
            let got = decode_chunked(&bytes, std::iter::repeat_n(1, bytes.len()));
            assert_eq!(got, vec![frame.clone()]);
        }
    }

    #[test]
    fn incremental_decode_handles_concatenated_streams() {
        let frames = corpus();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend(f.encode());
        }
        // One giant chunk.
        assert_eq!(
            decode_chunked(&bytes, [bytes.len()].into_iter()),
            frames,
            "single chunk"
        );
        // Byte-by-byte.
        assert_eq!(
            decode_chunked(&bytes, std::iter::repeat_n(1, bytes.len())),
            frames,
            "byte-by-byte"
        );
        // Deterministic ragged chunking at every phase offset.
        for phase in 0..7usize {
            let sizes = (0..).map(|i| 1 + (i + phase) % 13);
            assert_eq!(decode_chunked(&bytes, sizes), frames, "phase {phase}");
        }
    }

    #[test]
    fn incremental_decoder_fails_closed_on_bad_lengths() {
        // Zero length: rejected the moment the header is visible.
        let mut d = FrameDecoder::new();
        d.feed(&[0, 0, 0, 0]);
        assert!(d.next_frame().is_err());
        // Oversized length: rejected before any body byte is buffered.
        let mut d = FrameDecoder::new();
        d.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(d.next_frame().is_err());
        // A corrupt body is an error, not a silent skip.
        let mut d = FrameDecoder::new();
        d.feed(&[1, 0, 0, 0, 0xEE]);
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn incremental_decoder_reports_progress_needs() {
        let frame = Frame::Query(QueryFrame::new("?- q(A)."));
        let bytes = frame.encode();
        let mut d = FrameDecoder::new();
        assert!(!d.mid_frame());
        d.feed(&bytes[..1]);
        assert!(d.mid_frame(), "one header byte is a started frame");
        assert_eq!(d.buffered(), 1);
        d.feed(&bytes[1..4]);
        assert_eq!(d.next_frame().unwrap(), None, "header announces the body");
        assert!(d.mid_frame());
        d.feed(&bytes[4..]);
        assert_eq!(d.next_frame().unwrap(), Some(frame));
        assert!(!d.mid_frame());
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn error_frame_maps_errors_both_ways() {
        let shed = HermesError::Shed {
            reason: "gate-full".into(),
        };
        let frame = ErrorFrame::from_error(&shed);
        assert_eq!(frame.code, "shed");
        assert!(matches!(frame.into_error(), HermesError::Shed { .. }));
        let deadline = HermesError::DeadlineExceeded {
            deadline: crate::SimDuration::from_millis(10),
            elapsed: crate::SimDuration::from_millis(25),
        };
        assert_eq!(ErrorFrame::from_error(&deadline).code, "deadline");
    }
}
