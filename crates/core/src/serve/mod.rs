//! The network serving core: two TCP servers over
//! [`Mediator`] speaking the [`hermes_common::frame`] binary
//! protocol, plus the [`WireClient`] the REPL and load generator use.
//!
//! # Two engines, one connection core
//!
//! Both engines drive one per-connection protocol, `conn::Conn` (framing,
//! response order, the `pipeline_depth` shed, the write queue and the
//! deadlines), and differ only in how they feed it bytes and write out
//! what it owes.
//!
//! * [`ServeMode::Pool`] (`pool`) is the worker-pool server: one
//!   handler thread per connection, blocking reads and writes that wait
//!   at most [`ServeConfig::idle_poll`], a bounded accept queue. Simple,
//!   portable, and capped — max concurrent connections equals the pool
//!   size. A handler answers each request before it takes the next.
//! * [`ServeMode::Reactor`] (`reactor`, Linux) is a readiness-driven
//!   epoll event loop: one reactor thread owns every socket, while
//!   queries that may wait on a source execute on a bounded worker pool
//!   and wake the reactor through an eventfd; a query the answer cache
//!   alone serves is answered on the reactor thread itself
//!   ([`INLINE_BUDGET`]). Tens of thousands of open connections cost a
//!   few hundred bytes each, not a thread, and requests on one
//!   connection may be **pipelined**, up to
//!   [`ServeConfig::pipeline_depth`] in flight.
//!
//! [`ServeMode::Auto`] (the default) picks the reactor on Linux and the
//! pool elsewhere; both modes share the dispatch path (`respond_bytes`,
//! and for a query its two halves `stage_query` / `run_staged`), so the
//! PR 6 admission-gate invariant `admitted + shed == queries` holds
//! identically in either.
//!
//! Queries run with the mediator in **wall-clock** mode (unless
//! configured off): deadlines, budgets, and retry backoff bind to real
//! elapsed time, which is what a network client means by "2 seconds".
//! The serial simulated-clock path is untouched.

pub(crate) mod conn;
pub(crate) mod pool;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
// Only the reactor starts these workers; `parked` is called everywhere.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
pub(crate) mod workers;

pub(crate) use workers::parked;
#[doc(hidden)]
pub use workers::parked_handoff_probe;
use workers::Work;

use std::io::Write;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hermes_common::frame::{
    put_answer, DoneFrame, DoneRef, ErrorFrame, Frame, FrameDecoder, QueryFrame, MAX_FRAME_LEN,
};
use hermes_common::{HermesError, Record, Result, SimDuration, Value};

use crate::mediator::{QueryRequest, QueryResult};
use crate::pipeline::{Handoff, StagedQuery};
use crate::server::Mediator;
use crate::tier::PlanTier;

/// Reactor mode: how many `Query` frames the reactor thread stages (and,
/// when the answer cache alone serves them, answers) per wake before the
/// rest go to the workers as they arrived. It bounds the mediator work one
/// wake can put in front of every other connection's I/O: staging plus a
/// cached answer is ~10–15 µs, so 8 is about what two `Ping` round trips
/// cost, and it leaves a full default `pipeline_depth` burst (32) mostly
/// to the workers.
pub const INLINE_BUDGET: usize = 8;

/// Reactor mode: worker threads that may be parked — waiting on a source,
/// a retry back-off or another query's flight, their run slot lent out —
/// per configured worker. The reactor runs at most
/// `workers × (1 + PARKED_PER_WORKER)` worker threads; past that, queries
/// wait in the worker queue. Each parked thread is a query in flight at the
/// sources and costs a stack plus what its allocator arena retains (≈ 1 MB
/// measured), so the multiple trades miss throughput
/// (`≈ threads ÷ source latency`) against resident memory.
pub const PARKED_PER_WORKER: usize = 2;

/// Bytes one `read` asks a connection's socket for.
const READ_CHUNK: usize = 16 * 1024;

/// Which serving engine a [`NetServer`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// The readiness-driven epoll reactor on Linux, the worker pool
    /// elsewhere.
    #[default]
    Auto,
    /// The worker-pool server: one thread per in-flight connection.
    Pool,
    /// The epoll reactor (Linux). On other platforms this falls back to
    /// the pool — the wire behavior is identical, only the connection
    /// ceiling differs.
    Reactor,
}

impl ServeMode {
    /// The engine that actually runs on this platform.
    pub fn resolved(self) -> ServeMode {
        match self {
            ServeMode::Pool => ServeMode::Pool,
            ServeMode::Auto | ServeMode::Reactor => {
                if cfg!(target_os = "linux") {
                    ServeMode::Reactor
                } else {
                    ServeMode::Pool
                }
            }
        }
    }

    /// Stable name (`pool` | `reactor`) for stats and CLI flags.
    pub fn name(self) -> &'static str {
        match self.resolved() {
            ServeMode::Pool => "pool",
            _ => "reactor",
        }
    }

    /// Parses a CLI-facing mode name.
    pub fn parse(s: &str) -> Option<ServeMode> {
        match s {
            "auto" => Some(ServeMode::Auto),
            "pool" => Some(ServeMode::Pool),
            "reactor" => Some(ServeMode::Reactor),
            _ => None,
        }
    }
}

/// How a [`NetServer`] binds, pools, pipelines, and sheds.
///
/// The struct is `#[non_exhaustive]`: outside `hermes-core`, construct
/// it with [`ServeConfig::builder`] (consistent with
/// [`ExecConfig`](crate::ExecConfig)) so future knobs aren't breaking
/// changes.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Which serving engine to run (default [`ServeMode::Auto`]).
    pub mode: ServeMode,
    /// Queries computing at once. In reactor mode up to
    /// [`PARKED_PER_WORKER`]× as many more may be parked at sources (a
    /// worker waiting on a source lends its slot to a queued query), and
    /// connections are independent of workers. In pool mode this is the
    /// number of handler threads, and so of connections served at once.
    pub workers: usize,
    /// Pool mode: accepted connections waiting for a free handler; one
    /// more connection than this is refused with
    /// `shed`/`accept-queue-full`.
    pub pending_conns: usize,
    /// Reactor mode: open-connection ceiling; a connection past it is
    /// refused with `shed`/`accept-queue-full`.
    pub max_conns: usize,
    /// Queries in flight per connection. A pipelined request past this
    /// depth is answered (in order) with a `shed`/`pipeline-full` error
    /// frame instead of queueing unboundedly. A pool handler answers one
    /// request at a time, so only the reactor reaches it.
    pub pipeline_depth: usize,
    /// Reactor mode: bound on queries queued for the worker pool across
    /// all connections; past it requests shed with
    /// `shed`/`worker-queue-full`.
    pub queue_depth: usize,
    /// Rows per `Batch` frame in a streamed response.
    pub batch_rows: usize,
    /// Serve queries on the wall-anchored clock (real deadlines). Off
    /// restores virtual time — useful for deterministic protocol tests.
    pub wall_clock: bool,
    /// How often the deadlines are checked and the stop flag is read: the
    /// reactor's sweep, the pool's read and write timeouts and its accept
    /// loop. Bounds shutdown and eviction latency, not request latency.
    pub idle_poll: Duration,
    /// How long a started frame may take to finish arriving before the
    /// connection is evicted as stalled (the slow-loris deadline), and how
    /// long a draining server waits on a peer that stopped reading its
    /// responses. Both engines; evictions count in
    /// [`NetServerStats::evicted`].
    pub frame_timeout: Duration,
    /// Evict a connection with no traffic and nothing owed or buffered for
    /// this long (both engines). `None` (the default) keeps idle
    /// connections forever — cheap under the reactor, they cost no
    /// thread; under the pool each holds a handler.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServeMode::Auto,
            workers: 8,
            pending_conns: 64,
            max_conns: 10_000,
            pipeline_depth: 32,
            queue_depth: 1024,
            batch_rows: 512,
            wall_clock: true,
            idle_poll: Duration::from_millis(50),
            frame_timeout: Duration::from_secs(30),
            idle_timeout: None,
        }
    }
}

impl ServeConfig {
    /// A builder starting from [`ServeConfig::default`] — the only way
    /// to construct a customized config outside `hermes-core`.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Builds a [`ServeConfig`]; obtain one via [`ServeConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

macro_rules! serve_builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        impl ServeConfigBuilder {
            $(
                $(#[$doc])*
                pub fn $field(mut self, value: $ty) -> Self {
                    self.config.$field = value;
                    self
                }
            )*

            /// Finishes the build.
            pub fn build(self) -> ServeConfig {
                self.config
            }
        }
    };
}

serve_builder_setters! {
    /// See [`ServeConfig::mode`].
    mode: ServeMode,
    /// See [`ServeConfig::workers`].
    workers: usize,
    /// See [`ServeConfig::pending_conns`].
    pending_conns: usize,
    /// See [`ServeConfig::max_conns`].
    max_conns: usize,
    /// See [`ServeConfig::pipeline_depth`].
    pipeline_depth: usize,
    /// See [`ServeConfig::queue_depth`].
    queue_depth: usize,
    /// See [`ServeConfig::batch_rows`].
    batch_rows: usize,
    /// See [`ServeConfig::wall_clock`].
    wall_clock: bool,
    /// See [`ServeConfig::idle_poll`].
    idle_poll: Duration,
    /// See [`ServeConfig::frame_timeout`].
    frame_timeout: Duration,
    /// See [`ServeConfig::idle_timeout`].
    idle_timeout: Option<Duration>,
}

/// Socket-level counters, one step below [`crate::server::ServerStats`]:
/// these count connections and frames, the gate counts queries.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetServerStats {
    /// Connections handed to a worker (pool) or registered with the
    /// reactor.
    pub accepted: u64,
    /// Connections refused because the pending queue (pool) or the
    /// connection ceiling (reactor) was full.
    pub refused: u64,
    /// Frames served (all kinds).
    pub requests: u64,
    /// Connections dropped for protocol errors (malformed frames).
    pub bad_frames: u64,
    /// Connections evicted by a deadline: slow-loris reads that never
    /// finished a frame, idle timeouts, write-stalled drains.
    pub evicted: u64,
    /// Requests shed before reaching the mediator (pipeline depth or
    /// worker queue exceeded); gate sheds are counted by the gate, not
    /// here.
    pub pre_gate_shed: u64,
    /// Reactor mode: `Query` frames finished on the reactor thread —
    /// cached point queries, and requests refused while staging — instead
    /// of crossing to a worker and back. Always 0 in pool mode.
    pub inline_answers: u64,
    /// Reactor mode: times a worker lent its run slot for the length of a
    /// wait — a source call, a retry back-off, a single-flight follower
    /// wait. Always 0 in pool mode.
    pub parked: u64,
    /// The most query threads alive at once: `workers`, unless parked
    /// workers made the reactor start more — never above
    /// `workers × (1 + PARKED_PER_WORKER)`.
    pub worker_threads_peak: u64,
}

#[derive(Default)]
pub(crate) struct NetCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) bad_frames: AtomicU64,
    pub(crate) evicted: AtomicU64,
    pub(crate) pre_gate_shed: AtomicU64,
    pub(crate) inline_answers: AtomicU64,
    pub(crate) parked: AtomicU64,
    pub(crate) worker_threads_peak: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetServerStats {
        NetServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            pre_gate_shed: self.pre_gate_shed.load(Ordering::Relaxed),
            inline_answers: self.inline_answers.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            worker_threads_peak: self.worker_threads_peak.load(Ordering::Relaxed),
        }
    }
}

/// State both server engines share: the mediator, the config, the stop
/// flag, and the socket counters.
pub(crate) struct Shared {
    pub(crate) mediator: Arc<Mediator>,
    pub(crate) config: ServeConfig,
    pub(crate) stop: AtomicBool,
    pub(crate) counters: Arc<NetCounters>,
}

/// A running server — a worker pool behind either an accept loop
/// ([`ServeMode::Pool`]) or an epoll reactor ([`ServeMode::Reactor`]).
/// Dropping without calling [`NetServer::shutdown`] or
/// [`NetServer::wait`] detaches the threads (they stop at the next
/// stop-flag poll once the process asks).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    inner: Inner,
}

enum Inner {
    Pool(pool::PoolServer),
    #[cfg(target_os = "linux")]
    Reactor(reactor::ReactorServer),
}

impl NetServer {
    /// Bind `addr` and start serving `mediator` in the background.
    /// `addr` may use port 0; the picked port is in [`NetServer::addr`].
    pub fn bind(
        mediator: Arc<Mediator>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> Result<NetServer> {
        mediator.set_wall_clock(config.wall_clock);
        let mode = config.mode.resolved();
        let shared = Arc::new(Shared {
            mediator,
            config,
            stop: AtomicBool::new(false),
            counters: Arc::default(),
        });
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let inner = match mode {
            #[cfg(target_os = "linux")]
            ServeMode::Reactor => {
                Inner::Reactor(reactor::ReactorServer::start(shared.clone(), listener)?)
            }
            _ => Inner::Pool(pool::PoolServer::start(shared.clone(), listener)?),
        };
        Ok(NetServer {
            shared,
            addr,
            inner,
        })
    }

    /// The engine actually serving (resolves [`ServeMode::Auto`]).
    pub fn mode(&self) -> ServeMode {
        match &self.inner {
            Inner::Pool(_) => ServeMode::Pool,
            #[cfg(target_os = "linux")]
            Inner::Reactor(_) => ServeMode::Reactor,
        }
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Socket-level counters so far.
    pub fn net_stats(&self) -> NetServerStats {
        self.shared.counters.snapshot()
    }

    /// The mediator being served.
    pub fn mediator(&self) -> &Arc<Mediator> {
        &self.shared.mediator
    }

    /// True once a `Shutdown` frame (or [`NetServer::shutdown`]) has
    /// asked the server to drain.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Block until the server drains — i.e. until a client sends a
    /// `Shutdown` frame. Returns the final socket counters.
    pub fn wait(mut self) -> NetServerStats {
        match &mut self.inner {
            Inner::Pool(p) => p.join(),
            #[cfg(target_os = "linux")]
            Inner::Reactor(r) => r.join(),
        }
        self.shared.counters.snapshot()
    }

    /// Ask the server to stop, drain in-flight responses, and join all
    /// threads. Returns the final socket counters.
    pub fn shutdown(self) -> NetServerStats {
        self.shared.stop.store(true, Ordering::Relaxed);
        match &self.inner {
            Inner::Pool(_) => {}
            #[cfg(target_os = "linux")]
            Inner::Reactor(r) => r.wake(),
        }
        self.wait()
    }
}

pub(crate) fn io_err(e: std::io::Error) -> HermesError {
    HermesError::Io(e.to_string())
}

/// Tell a refused connection *why* before closing, so the client can
/// count socket sheds instead of seeing a bare reset.
pub(crate) fn refuse(mut stream: TcpStream) {
    let _ = stream.write_all(&shed_bytes("accept-queue-full"));
    let _ = stream.shutdown(SockShutdown::Both);
}

/// Encodes a shed response the admission gate never sees: a refused
/// connection (`accept-queue-full`) or a request shed before it
/// (`pipeline-full`, `worker-queue-full`).
pub(crate) fn shed_bytes(reason: &str) -> Vec<u8> {
    Frame::Error(ErrorFrame {
        code: "shed".into(),
        message: reason.into(),
    })
    .encode()
}

// ------------------------------------------------- shared dispatch

/// Serves one request frame to bytes: the complete encoded response
/// stream (`Batch* Done`, `Error`, `Pong`, `StatsReply`). A `Shutdown`
/// frame sets the stop flag: the server drains. Both server engines call
/// this — pool handlers for every frame, the reactor for admin frames and
/// its workers for queries it did not stage — so wire behavior and the
/// gate invariant are identical.
pub(crate) fn respond_bytes(shared: &Shared, frame: Frame) -> Vec<u8> {
    match frame {
        Frame::Query(q) => respond_query(shared, &q),
        Frame::Ping => Frame::Pong.encode(),
        Frame::Stats => Frame::StatsReply(stats_value(shared)).encode(),
        Frame::Shutdown => {
            shared.stop.store(true, Ordering::Relaxed);
            Frame::Pong.encode()
        }
        // Response frames arriving at the server are a peer bug; answer
        // with a structured error rather than hanging up silently.
        other => {
            let err = ErrorFrame {
                code: "bad-frame".into(),
                message: format!("server cannot serve a response frame ({other:?})"),
            };
            Frame::Error(err).encode()
        }
    }
}

/// Serves a `Query` frame start to finish on the calling thread.
pub(crate) fn respond_query(shared: &Shared, q: &QueryFrame) -> Vec<u8> {
    match stage_query(shared, q) {
        Ok(staged) => run_staged(shared, staged),
        Err(refusal) => refusal,
    }
}

/// A `Query` frame admitted, parsed and planned, not yet run. `Send`: the
/// reactor stages on its own thread and a worker may finish the run.
pub(crate) struct StagedFrame {
    query: StagedQuery,
    /// Time the mediator has worked on this query so far. Queue wait
    /// between threads is excluded, so `DoneFrame::elapsed_us` means the
    /// same whichever threads the query crossed.
    spent: Duration,
}

/// The first half of serving a `Query` frame: gate admission, parse,
/// bind, plan. `Err` is the complete encoded response of a request that
/// ends here (shed, unknown tier, parse or planning error).
pub(crate) fn stage_query(
    shared: &Shared,
    q: &QueryFrame,
) -> std::result::Result<StagedFrame, Vec<u8>> {
    let stage = || {
        let mut req = QueryRequest::new(q.src.clone()).trace(q.trace);
        if let Some(n) = q.limit {
            req = req.limit(n as usize);
        }
        if let Some(us) = q.deadline_us {
            req = req.deadline(SimDuration::from_micros(us));
        }
        if let Some(us) = q.budget_us {
            req = req.budget(SimDuration::from_micros(us));
        }
        if let Some(name) = &q.tier {
            let tier = PlanTier::parse(name).ok_or_else(|| {
                HermesError::Eval(format!("[bad-frame] unknown plan tier {name:?}"))
            })?;
            req = req.tier(tier);
        }
        let start = Instant::now();
        let query = shared.mediator.stage(&req)?;
        Ok(StagedFrame {
            query,
            spent: start.elapsed(),
        })
    };
    stage().map_err(|e: HermesError| Frame::Error(ErrorFrame::from_error(&e)).encode())
}

/// The second half: runs a staged query to its encoded response, on a
/// thread that may block on a source.
pub(crate) fn run_staged(shared: &Shared, staged: StagedFrame) -> Vec<u8> {
    let start = Instant::now();
    match shared.mediator.run(staged.query) {
        Ok(result) => result_bytes(shared, &result, staged.spent + start.elapsed()),
        Err(e) => Frame::Error(ErrorFrame::from_error(&e)).encode(),
    }
}

/// Finishes a staged query on the calling thread if the answer cache
/// alone answers it (see [`Mediator::run_cached`]); otherwise
/// hands it back as a worker's job, for [`run_staged`]. The reactor calls
/// this on its own thread, so it must never wait on a source.
pub(crate) fn answer_cached(shared: &Shared, staged: StagedFrame) -> Handoff<Vec<u8>, Work> {
    let start = Instant::now();
    match shared.mediator.run_cached(staged.query) {
        Handoff::Done(result) => Handoff::Done(result_bytes(
            shared,
            &result,
            staged.spent + start.elapsed(),
        )),
        Handoff::Back(query) => Handoff::Back(Work::Staged(StagedFrame {
            query,
            spent: staged.spent + start.elapsed(),
        })),
    }
}

/// Stages `q` on the calling (reactor) thread and answers it there when
/// that needs no source: a request refused while staging, or a query the
/// answer cache alone serves. `Back` is what a worker must finish.
pub(crate) fn answer_or_stage(shared: &Shared, q: &QueryFrame) -> Handoff<Vec<u8>, Work> {
    match stage_query(shared, q) {
        Ok(staged) => answer_cached(shared, staged),
        Err(refusal) => Handoff::Done(refusal),
    }
}

/// For the `work_counts` row of one warm point on the reactor's inline
/// path: a served mediator under the default [`ServeConfig`] and one kept
/// connection, answering request bytes the way the reactor answers a
/// connection's.
#[doc(hidden)]
pub struct InlineAnswerProbe {
    shared: Shared,
    conn: conn::Conn,
}

impl InlineAnswerProbe {
    /// Serves `mediator` on the wall clock, as [`NetServer::bind`] does.
    pub fn new(mediator: Arc<Mediator>) -> Self {
        let config = ServeConfig::default();
        mediator.set_wall_clock(config.wall_clock);
        InlineAnswerProbe {
            conn: conn::Conn::new(&config, Instant::now()),
            shared: Shared {
                mediator,
                config,
                stop: AtomicBool::new(false),
                counters: Arc::default(),
            },
        }
    }

    /// Hands `request` (one `Query` frame) to the connection, stages the
    /// query, answers it from the cache and writes the response: the bytes
    /// written, or `None` when the reactor would hand the query to a
    /// worker.
    pub fn answer(&mut self, request: &[u8]) -> Option<usize> {
        let now = Instant::now();
        self.conn.received(request, now);
        let (seq, Frame::Query(q)) = self.conn.next_request(&self.shared.counters)? else {
            return None;
        };
        let staged = stage_query(&self.shared, &q).ok()?;
        let Handoff::Done(bytes) = answer_cached(&self.shared, staged) else {
            return None;
        };
        self.conn.complete(seq, bytes);
        let written = self.conn.output().map(|(b, sent)| b.len() - sent).sum();
        self.conn.wrote(written, now);
        Some(written)
    }
}

/// Encodes `result` as `Batch*` + `Done`, batching `batch_rows` rows
/// per frame (fewer where a frame would pass the frame cap) so a large
/// answer set stays incrementally decodable on the client side. The
/// trace is there only when the query asked for one.
fn result_bytes(shared: &Shared, result: &QueryResult, elapsed: Duration) -> Vec<u8> {
    let trace = (!result.trace.is_empty()).then(|| crate::trace::render(&result.trace));
    let lines: Vec<&str> = trace.iter().flat_map(|t| t.lines()).collect();
    let stats = &result.stats;
    let done = DoneRef {
        columns: &result.columns[..],
        rows: result.rows.len() as u64,
        incomplete: result.incomplete,
        elapsed_us: elapsed.as_micros() as u64,
        source_calls: stats.actual_calls,
        cache_hits: stats.cim_exact + stats.cim_equal + stats.cim_partial,
        tier_downgrades: stats.tier_downgrades,
        trace: &lines,
    };
    answer_bytes(&result.rows, shared.config.batch_rows, MAX_FRAME_LEN, &done)
}

/// `rows` and `done` as `Batch*` + `Done` frames no longer than `max_len`
/// each, written straight from the borrowed rows into one buffer; or the
/// `Error` frame of an answer with a row no frame can carry.
fn answer_bytes<C: AsRef<str>>(
    rows: &[Vec<Value>],
    batch_rows: usize,
    max_len: u32,
    done: &DoneRef<'_, C, &str>,
) -> Vec<u8> {
    let mut out = Vec::new();
    if let Err(e) = put_answer(rows, batch_rows, max_len, done, &mut out) {
        Frame::Error(ErrorFrame::from_error(&e)).encode_into(&mut out);
    }
    out
}

/// The admin-frame payload: server, cache, and socket counters as one
/// nested record, so clients need no schema beyond field names.
fn stats_value(shared: &Shared) -> Value {
    let s = shared.mediator.stats();
    let snap = shared.mediator.caches().stats();
    let server = Record::from_fields(vec![
        ("queries", Value::Int(s.queries as i64)),
        ("admitted", Value::Int(s.admitted as i64)),
        ("shed", Value::Int(s.shed as i64)),
        ("downgraded", Value::Int(s.downgraded as i64)),
        ("source_calls", Value::Int(s.source_calls as i64)),
        ("calls_coalesced", Value::Int(s.calls_coalesced as i64)),
        ("round_trips_saved", Value::Int(s.round_trips_saved as i64)),
        ("subplan_hits", Value::Int(s.subplan_hits as i64)),
    ]);
    let cache_hits = snap.cim.exact_hits + snap.cim.equal_hits + snap.cim.partial_hits;
    let caches = Record::from_fields(vec![
        ("hits", Value::Int(cache_hits as i64)),
        ("misses", Value::Int(snap.cim.misses as i64)),
        ("answer_entries", Value::Int(snap.answer_entries as i64)),
        ("answer_bytes", Value::Int(snap.answer_bytes as i64)),
        (
            "subplans_materialized",
            Value::Int(snap.subplans.materialized as i64),
        ),
    ]);
    let c = shared.counters.snapshot();
    let net = Record::from_fields(vec![
        ("mode", Value::str(shared.config.mode.name())),
        ("accepted", Value::Int(c.accepted as i64)),
        ("refused", Value::Int(c.refused as i64)),
        ("requests", Value::Int(c.requests as i64)),
        ("bad_frames", Value::Int(c.bad_frames as i64)),
        ("evicted", Value::Int(c.evicted as i64)),
        ("pre_gate_shed", Value::Int(c.pre_gate_shed as i64)),
        ("inline", Value::Int(c.inline_answers as i64)),
        ("workers", Value::Int(shared.config.workers.max(1) as i64)),
        ("parked", Value::Int(c.parked as i64)),
        ("threads_peak", Value::Int(c.worker_threads_peak as i64)),
    ]);
    Value::Record(Record::from_fields(vec![
        ("server", Value::Record(server)),
        ("caches", Value::Record(caches)),
        ("net", Value::Record(net)),
    ]))
}

// ------------------------------------------------------- wire client

/// A query answered over the wire: the rows plus the server's `Done`
/// summary (wall elapsed time, call counts, optional rendered trace).
#[derive(Clone, Debug)]
pub struct RemoteResult {
    /// All rows, reassembled from the batch frames.
    pub rows: Vec<Vec<Value>>,
    /// The terminating summary frame.
    pub done: DoneFrame,
}

/// A client for the frame protocol, built on the incremental
/// [`FrameDecoder`] so it supports both classic request/response
/// ([`WireClient::query`]) and **pipelining**: queue several queries
/// with [`WireClient::send_query`], then collect responses — which the
/// server returns strictly in send order — with
/// [`WireClient::recv_result`] or the nonblocking
/// [`WireClient::poll_result`].
pub struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Queries sent whose terminating frame has not yet been received.
    in_flight: usize,
    /// Batch rows of the response currently being reassembled.
    partial: Vec<Vec<Value>>,
    /// The frame being sent, encoded into the same buffer every time.
    send_buf: Vec<u8>,
    /// What one `read` takes off the socket on its way to the decoder.
    read_buf: Box<[u8]>,
}

/// Bytes a [`WireClient`] asks the socket for at once: a warm answer in
/// one `read`.
const CLIENT_READ: usize = 16 * 1024;

/// What one received frame does to the response a [`WireClient`] is
/// assembling: nothing yet (`None`), or completes it with the answer or
/// the server's error.
type Absorbed = Option<Result<RemoteResult>>;

impl WireClient {
    /// Connect (with `TCP_NODELAY` — the protocol is request/response,
    /// Nagle would serialize it at ~25 round trips/s).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(WireClient {
            stream,
            decoder: FrameDecoder::new(),
            in_flight: 0,
            partial: Vec::new(),
            send_buf: Vec::new(),
            read_buf: vec![0; CLIENT_READ].into_boxed_slice(),
        })
    }

    /// Keep trying to connect until `timeout` elapses — for racing a
    /// server that is still binding (CI smoke tests, bench warmup).
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<WireClient> {
        let deadline = Instant::now() + timeout;
        loop {
            match WireClient::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Run one query and reassemble the streamed response. A server-side
    /// error (including `Shed`) comes back as the mapped [`HermesError`].
    pub fn query(&mut self, q: QueryFrame) -> Result<RemoteResult> {
        self.send_query(q)?;
        self.recv_result()
    }

    /// Queue a query without waiting for its response (pipelining). The
    /// server answers pipelined queries in FIFO order; collect each
    /// response with [`WireClient::recv_result`] / `poll_result`.
    pub fn send_query(&mut self, q: QueryFrame) -> Result<()> {
        self.send(&Frame::Query(q))?;
        self.in_flight += 1;
        Ok(())
    }

    /// Queries sent but not yet fully answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Blockingly receive the next pipelined response, in send order.
    pub fn recv_result(&mut self) -> Result<RemoteResult> {
        loop {
            let frame = self.recv()?;
            if let Some(out) = self.absorb(frame)? {
                return out;
            }
        }
    }

    /// Nonblocking receive: drains whatever bytes the socket has and
    /// returns one completed response if available. `Ok(None)` means no
    /// complete response yet — call again after more bytes arrive.
    pub fn poll_result(&mut self) -> Result<Option<Result<RemoteResult>>> {
        // First consume frames already buffered from an earlier read.
        while let Some(frame) = self.decoder.next_frame()? {
            if let Some(out) = self.absorb(frame)? {
                return Ok(Some(out));
            }
        }
        self.stream.set_nonblocking(true).map_err(io_err)?;
        let outcome = self.fill_nonblocking();
        self.stream.set_nonblocking(false).map_err(io_err)?;
        outcome?;
        while let Some(frame) = self.decoder.next_frame()? {
            if let Some(out) = self.absorb(frame)? {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn fill_nonblocking(&mut self) -> Result<()> {
        use std::io::Read;
        loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    if self.in_flight > 0 && self.decoder.buffered() == 0 {
                        return Err(HermesError::Io(
                            "server closed the connection mid-response".into(),
                        ));
                    }
                    return Ok(());
                }
                Ok(n) => self.decoder.feed(&self.read_buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(())
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Folds one received frame into the response being assembled.
    /// `Some(..)` completes a response (successful or failed).
    fn absorb(&mut self, frame: Frame) -> Result<Absorbed> {
        match frame {
            Frame::Batch(mut rows) => {
                self.partial.append(&mut rows);
                Ok(None)
            }
            Frame::Done(done) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                let rows = std::mem::take(&mut self.partial);
                Ok(Some(Ok(RemoteResult { rows, done })))
            }
            Frame::Error(e) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.partial.clear();
                Ok(Some(Err(e.into_error())))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server's counters as the nested stats record. Requires
    /// no pipelined queries outstanding.
    pub fn stats(&mut self) -> Result<Value> {
        debug_assert_eq!(self.in_flight, 0, "stats amid pipelined queries");
        self.send(&Frame::Stats)?;
        match self.recv()? {
            Frame::StatsReply(v) => Ok(v),
            Frame::Error(e) => Err(e.into_error()),
            other => Err(unexpected(&other)),
        }
    }

    /// Round-trip a ping; returns the wall-clock RTT.
    pub fn ping(&mut self) -> Result<Duration> {
        debug_assert_eq!(self.in_flight, 0, "ping amid pipelined queries");
        let start = Instant::now();
        self.send(&Frame::Ping)?;
        match self.recv()? {
            Frame::Pong => Ok(start.elapsed()),
            Frame::Error(e) => Err(e.into_error()),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to drain and exit. The `Pong` ack arrives before
    /// the server stops accepting.
    pub fn shutdown_server(&mut self) -> Result<()> {
        debug_assert_eq!(self.in_flight, 0, "shutdown amid pipelined queries");
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::Pong => Ok(()),
            Frame::Error(e) => Err(e.into_error()),
            other => Err(unexpected(&other)),
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.send_buf.clear();
        frame.encode_into(&mut self.send_buf);
        self.stream.write_all(&self.send_buf).map_err(io_err)
    }

    /// The next frame, reading whatever the socket holds when none is
    /// buffered: a response that arrived in one piece takes one `read`.
    fn recv(&mut self) -> Result<Frame> {
        use std::io::Read;
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    return Err(HermesError::Io(
                        "server closed the connection mid-response".into(),
                    ))
                }
                Ok(n) => self.decoder.feed(&self.read_buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
        }
    }
}

fn unexpected(frame: &Frame) -> HermesError {
    HermesError::Io(format!("unexpected frame from server: {frame:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Mediator;
    use hermes_domains::slow::SlowDomain;
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_net::{profiles, Network};
    use std::io::Read;
    use std::net::TcpListener;

    fn mediator() -> Mediator {
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::cornell());
        Mediator::from_source(
            "
            item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
            item(A, B) :- in(B, d1:p_bf(A)).
            ",
            net,
        )
        .unwrap()
    }

    fn slow_mediator(delay: Duration) -> Mediator {
        let domain = SyntheticDomain::generate(
            "d1",
            42,
            &[
                RelationSpec::uniform("p", 8, 2.0),
                RelationSpec::uniform("r", 8, 2.0),
            ],
        );
        let mut net = Network::new(1);
        net.place(
            Arc::new(SlowDomain::new(Arc::new(domain), delay)),
            profiles::cornell(),
        );
        Mediator::from_source(
            "
            item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
            item(A, B) :- in(B, d1:p_bf(A)).
            chain(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & in(B, d1:r_bf(A)).
            ",
            net,
        )
        .unwrap()
    }

    fn serve(config: ServeConfig) -> (NetServer, String) {
        let server = Arc::new(mediator().to_concurrent(2));
        let net = NetServer::bind(server, "127.0.0.1:0", config).unwrap();
        let addr = net.addr().to_string();
        (net, addr)
    }

    /// Runs `body` under the pool engine and (on Linux) the reactor, so
    /// every wire behavior is pinned identical across both.
    fn in_both_modes(body: impl Fn(ServeMode)) {
        body(ServeMode::Pool);
        if cfg!(target_os = "linux") {
            body(ServeMode::Reactor);
        }
    }

    #[test]
    fn auto_mode_resolves_per_platform_and_names_are_stable() {
        let resolved = ServeMode::Auto.resolved();
        if cfg!(target_os = "linux") {
            assert_eq!(resolved, ServeMode::Reactor);
        } else {
            assert_eq!(resolved, ServeMode::Pool);
        }
        assert_eq!(ServeMode::Pool.name(), "pool");
        assert_eq!(ServeMode::parse("reactor"), Some(ServeMode::Reactor));
        assert_eq!(ServeMode::parse("auto"), Some(ServeMode::Auto));
        assert_eq!(ServeMode::parse("turbo"), None);
    }

    #[test]
    fn builder_sets_every_knob() {
        let config = ServeConfig::builder()
            .mode(ServeMode::Pool)
            .workers(3)
            .pending_conns(7)
            .max_conns(11)
            .pipeline_depth(5)
            .queue_depth(13)
            .batch_rows(17)
            .wall_clock(false)
            .idle_poll(Duration::from_millis(19))
            .frame_timeout(Duration::from_millis(23))
            .idle_timeout(Some(Duration::from_millis(29)))
            .build();
        assert_eq!(config.mode, ServeMode::Pool);
        assert_eq!(config.workers, 3);
        assert_eq!(config.pending_conns, 7);
        assert_eq!(config.max_conns, 11);
        assert_eq!(config.pipeline_depth, 5);
        assert_eq!(config.queue_depth, 13);
        assert_eq!(config.batch_rows, 17);
        assert!(!config.wall_clock);
        assert_eq!(config.idle_poll, Duration::from_millis(19));
        assert_eq!(config.frame_timeout, Duration::from_millis(23));
        assert_eq!(config.idle_timeout, Some(Duration::from_millis(29)));
    }

    #[test]
    fn query_over_loopback_matches_direct_query() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            assert_eq!(net.mode(), mode.resolved());
            let mut expected = mediator().query("?- item(A, B).").unwrap().rows;
            expected.sort();

            let mut client = WireClient::connect(&addr).unwrap();
            let got = client.query(QueryFrame::new("?- item(A, B).")).unwrap();
            let mut rows = got.rows.clone();
            rows.sort();
            assert_eq!(rows, expected);
            assert_eq!(got.done.rows as usize, got.rows.len());
            assert_eq!(got.done.columns, vec!["A".to_string(), "B".to_string()]);
            assert!(!got.done.incomplete);
            net.shutdown();
        });
    }

    #[test]
    fn batches_stream_in_configured_chunks() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).batch_rows(3).build());
            let mut client = WireClient::connect(&addr).unwrap();
            let got = client.query(QueryFrame::new("?- item(A, B).")).unwrap();
            assert!(got.rows.len() > 3, "need multiple batches to test chunking");
            net.shutdown();
        });
    }

    #[test]
    fn ping_stats_and_repeat_queries_share_one_connection() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            let mut client = WireClient::connect(&addr).unwrap();
            client.ping().unwrap();
            let first = client.query(QueryFrame::new("?- item('p_1', B).")).unwrap();
            let again = client.query(QueryFrame::new("?- item('p_1', B).")).unwrap();
            assert_eq!(first.rows, again.rows);
            assert_eq!(again.done.source_calls, 0, "second hit is cached");

            let stats = client.stats().unwrap();
            let Value::Record(rec) = &stats else {
                panic!("stats reply is not a record: {stats:?}");
            };
            let Some(Value::Record(server)) = rec.get("server") else {
                panic!("no server section: {stats:?}");
            };
            assert_eq!(server.get("queries"), Some(&Value::Int(2)));
            let Some(Value::Record(net_rec)) = rec.get("net") else {
                panic!("no net section: {stats:?}");
            };
            assert_eq!(
                net_rec.get("mode"),
                Some(&Value::str(mode.name())),
                "stats must name the serving engine"
            );
            let snap = net.net_stats();
            assert_eq!(snap.accepted, 1);
            assert_eq!(snap.requests, 4, "ping + 2 queries + stats");
            net.shutdown();
        });
    }

    #[test]
    fn parse_errors_come_back_as_error_frames_not_hangups() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            let mut client = WireClient::connect(&addr).unwrap();
            let err = client
                .query(QueryFrame::new("this is not a query"))
                .unwrap_err();
            assert!(!matches!(err, HermesError::Io(_)), "got {err:?}");
            // The connection survives a failed query.
            client.ping().unwrap();
            net.shutdown();
        });
    }

    #[test]
    fn unknown_tier_is_rejected_without_running_the_query() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            let mut client = WireClient::connect(&addr).unwrap();
            let mut q = QueryFrame::new("?- item(A, B).");
            q.tier = Some("warp-speed".into());
            let err = client.query(q).unwrap_err();
            assert!(err.to_string().contains("bad-frame"), "got {err}");
            assert_eq!(net.mediator().stats().queries, 0);
            net.shutdown();
        });
    }

    #[test]
    fn gate_sheds_surface_as_shed_errors_on_the_wire() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            net.mediator().set_gate(Some(0));
            let mut client = WireClient::connect(&addr).unwrap();
            let err = client.query(QueryFrame::new("?- item(A, B).")).unwrap_err();
            assert!(matches!(err, HermesError::Shed { .. }), "got {err:?}");
            net.shutdown();
        });
    }

    #[test]
    fn full_accept_queue_refuses_with_a_shed_frame() {
        // Pool-specific: one worker, zero pending slots — while the
        // worker is held by one connection, any new connection must be
        // refused at the socket. (The reactor has no such ceiling; its
        // equivalent is `max_conns`, covered in tests/reactor.rs.)
        let config = ServeConfig::builder()
            .mode(ServeMode::Pool)
            .workers(1)
            .pending_conns(0)
            .idle_poll(Duration::from_millis(5))
            .build();
        let (net, addr) = serve(config);

        // Zero pending slots is a rendezvous: until the worker is parked
        // in `recv` even the first client is refused. A served ping proves
        // the worker took this connection, and it stays until we hang up.
        let mut busy = loop {
            let mut c = WireClient::connect(&addr).unwrap();
            if c.ping().is_ok() {
                break c;
            }
            std::thread::yield_now();
        };
        let before = net.net_stats().refused;

        let mut refused = WireClient::connect(&addr).unwrap();
        let err = refused
            .query(QueryFrame::new("?- item('p_1', B)."))
            .unwrap_err();
        assert!(matches!(err, HermesError::Shed { .. }), "got {err:?}");

        // The held connection is still served.
        busy.query(QueryFrame::new("?- item('p_1', B).")).unwrap();
        drop(busy);
        let stats = net.shutdown();
        assert_eq!(stats.refused, before + 1);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn shutdown_frame_drains_the_server() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            let mut client = WireClient::connect(&addr).unwrap();
            client.shutdown_server().unwrap();
            let stats = net.wait();
            assert_eq!(stats.requests, 1);
            // The port is released: a fresh bind to the same address works.
            let addr: SocketAddr = addr.parse().unwrap();
            TcpListener::bind(addr).unwrap();
        });
    }

    #[test]
    fn wall_clock_deadline_binds_to_real_time_over_the_wire() {
        let server = Arc::new(slow_mediator(Duration::from_millis(120)).to_concurrent(2));
        let net = NetServer::bind(server, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = net.addr().to_string();

        let mut client = WireClient::connect(&addr).unwrap();
        // `chain` needs 1 + 8 sequential 120ms calls; a 150ms deadline
        // binds after the first few.
        let mut q = QueryFrame::new("?- chain(A, B).");
        q.deadline_us = Some(150_000);
        let start = Instant::now();
        let out = client.query(q);
        let elapsed = start.elapsed();
        match out {
            Err(HermesError::DeadlineExceeded { .. }) => {}
            Ok(r) => assert!(r.done.incomplete, "fast path must flag partiality"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "deadline did not bind to wall time: {elapsed:?}"
        );
        net.shutdown();
    }

    #[test]
    fn garbage_bytes_close_the_connection_and_count_as_bad_frames() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            let mut raw = TcpStream::connect(&addr).unwrap();
            raw.write_all(&[0xff; 64]).unwrap();
            let mut buf = Vec::new();
            let _ = raw.read_to_end(&mut buf); // server hangs up (EOF or reset)
            drop(raw);
            // The server is still alive for well-formed clients.
            let mut client = WireClient::connect(&addr).unwrap();
            client.ping().unwrap();
            let stats = net.shutdown();
            assert_eq!(stats.bad_frames, 1);
        });
    }

    #[test]
    fn pipelined_queries_come_back_in_order_via_the_client() {
        in_both_modes(|mode| {
            let (net, addr) = serve(ServeConfig::builder().mode(mode).build());
            let mut client = WireClient::connect(&addr).unwrap();
            for _ in 0..4 {
                client
                    .send_query(QueryFrame::new("?- item(A, B)."))
                    .unwrap();
            }
            assert_eq!(client.in_flight(), 4);
            let baseline = client.recv_result().unwrap().rows.len();
            while client.in_flight() > 0 {
                let got = client.recv_result().unwrap();
                assert_eq!(got.rows.len(), baseline);
            }
            net.shutdown();
        });
    }

    /// The frames of one encoded response, each checked against `max_len`.
    fn frames_within(bytes: &[u8], max_len: usize) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        let mut frames = Vec::new();
        let mut at = 0;
        while let Some(frame) = decoder.next_frame().unwrap() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            assert!(
                len <= max_len,
                "a {len}-byte frame passes the {max_len}-byte cap"
            );
            at += 4 + len;
            frames.push(frame);
        }
        assert_eq!(at, bytes.len(), "no partial frame");
        frames
    }

    #[test]
    fn answers_are_cut_into_frames_within_the_cap() {
        // One string shared by every row: each row is ~1 KiB on the wire,
        // and the cap stands in for `MAX_FRAME_LEN` at a thousandth of it.
        let cell = Value::str("x".repeat(1000));
        let rows: Vec<Vec<Value>> = (0..40).map(|i| vec![Value::Int(i), cell.clone()]).collect();
        let columns = [Arc::<str>::from("N"), Arc::from("S")];
        let done = DoneRef {
            columns: &columns,
            rows: 40,
            incomplete: false,
            elapsed_us: 7,
            source_calls: 0,
            cache_hits: 1,
            tier_downgrades: 0,
            trace: &[] as &[&str],
        };
        let cap = 4 * 1024;
        let frames = frames_within(&answer_bytes(&rows, 512, cap as u32, &done), cap);
        let (last, batches) = frames.split_last().unwrap();
        assert!(batches.len() >= 10, "{} batches", batches.len());
        let got: Vec<Vec<Value>> = batches
            .iter()
            .flat_map(|f| match f {
                Frame::Batch(rows) => rows.clone(),
                other => panic!("expected a batch, got {other:?}"),
            })
            .collect();
        assert_eq!(got, rows, "every row, complete and in order");
        assert!(matches!(last, Frame::Done(d) if d.rows == 40));

        // Rows per frame still bound a batch the cap does not cut.
        let frames = frames_within(&answer_bytes(&rows, 3, MAX_FRAME_LEN, &done), usize::MAX);
        assert_eq!(frames.len(), 14 + 1);

        // A row no frame can carry fails the query with an error frame.
        let frames = frames_within(&answer_bytes(&rows, 512, 900, &done), 900);
        match &frames[..] {
            [Frame::Error(e)] => assert!(e.message.contains("frame cap"), "{e:?}"),
            other => panic!("expected one error frame, got {other:?}"),
        }
    }

    #[test]
    fn poll_result_is_nonblocking_until_the_response_lands() {
        let (net, addr) = serve(ServeConfig::default());
        let mut client = WireClient::connect(&addr).unwrap();
        assert!(client.poll_result().unwrap().is_none(), "nothing in flight");
        client
            .send_query(QueryFrame::new("?- item(A, B)."))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let got = loop {
            if let Some(out) = client.poll_result().unwrap() {
                break out.unwrap();
            }
            assert!(Instant::now() < deadline, "response never arrived");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(!got.rows.is_empty());
        assert_eq!(client.in_flight(), 0);
        net.shutdown();
    }
}
