//! The epoll reactor engine ([`ServeMode::Reactor`]): one reactor
//! thread owns every socket; the worker pool owns every query.
//!
//! # Event loop
//!
//! The reactor registers three kinds of fds with one epoll instance:
//! the listener (token 0), an eventfd the workers signal when a query
//! completes (token 1), and one token per connection. Each wakeup it
//!
//! 1. accepts as many connections as are pending (refusing past
//!    [`max_conns`](super::ServeConfig::max_conns) with a typed
//!    `shed`/`accept-queue-full` frame),
//! 2. reads ready sockets nonblockingly into each connection's
//!    incremental [`FrameDecoder`] — partial frames simply stay
//!    buffered until more bytes arrive,
//! 3. answers admin frames (`Ping`/`Stats`/`Shutdown`) inline, and
//!    `Query` frames too when the answer cache alone serves them (see
//!    *Which thread runs a query* below); the rest go to the bounded
//!    queue of the [`workers`](super::workers),
//! 4. collects completions the workers left in the shared vector,
//!    slots each into its connection's FIFO, and
//! 5. flushes: response bytes move from the FIFO into a bounded write
//!    queue (≤ [`WQ_CAP`] buffered bytes per connection) and out
//!    through vectored writes, re-arming `EPOLLOUT` on short writes.
//!
//! # Pipelining
//!
//! A client may send many queries without waiting. Each gets a
//! sequence-numbered FIFO slot at decode time, so responses go back
//! **in request order** no matter which worker finishes first. At most
//! [`pipeline_depth`](super::ServeConfig::pipeline_depth) queries per
//! connection may be unanswered; one more is answered (in order, in
//! its own slot) with `shed`/`pipeline-full` instead of queueing
//! unboundedly — the connection-level face of the admission gate, one
//! layer below it. Sheds here never reach the mediator, so the gate
//! invariant `admitted + shed == queries` is untouched.
//!
//! # Which thread runs a query
//!
//! A hand-off costs two thread wake-ups (channel to the worker, eventfd
//! back), which on a warm point query is more than the query itself. So
//! while the admission gate is unbounded the reactor *stages* each
//! `Query` frame on its own thread — admit, parse, bind, plan — and
//! finishes it there when the plan is one constant CIM-routed call the
//! cache holds ([`answer_cached`]): that path touches no source and
//! cannot wait. Everything else goes to a worker carrying its staged
//! plan and gate permit, so nothing is parsed or planned twice. At most
//! [`INLINE_BUDGET`] queries are staged per wake; past it, and whenever
//! the gate is bounded (a staged query holds its gate slot, which must
//! not be held across a queue wait), frames go to the workers unstaged,
//! as before. No source call ever runs on the reactor thread.
//!
//! On a worker, `workers` bounds the queries *computing*: one that waits
//! — on a source, a retry back-off, another query's flight — lends its
//! slot to a queued query for the length of the wait, up to
//! `workers × PARKED_PER_WORKER` parked threads (see
//! [`workers`](super::workers)).
//!
//! # Deadlines
//!
//! A sweep every [`idle_poll`](super::ServeConfig::idle_poll) evicts
//! connections that (a) started a frame and stalled past
//! `frame_timeout` (slow loris), (b) sat idle past `idle_timeout` when
//! one is configured, or (c) stopped draining their responses during
//! shutdown. Eviction is counted in `NetServerStats::evicted`.
//!
//! [`ServeMode::Reactor`]: super::ServeMode::Reactor
//! [`FrameDecoder`]: hermes_common::frame::FrameDecoder

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hermes_common::frame::{Frame, FrameDecoder, QueryFrame};
use hermes_common::Result;

use super::sys::{
    set_nonblocking, writev_bufs, Epoll, EpollEvent, EventFd, WriteOutcome, EPOLLERR, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP,
};
use super::workers::{Job, Work, Workers};
use super::{
    answer_cached, io_err, refuse, respond_bytes, respond_query, run_staged, shed_bytes,
    stage_query, Shared, INLINE_BUDGET,
};
use crate::pipeline::Handoff;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-connection cap on buffered-but-unsent response bytes. Past it,
/// completed responses stay parked in their FIFO slots until the peer
/// drains — backpressure instead of unbounded memory.
const WQ_CAP: usize = 4 << 20;

/// Bytes one `read` asks a connection's socket for.
const READ_CHUNK: usize = 16 * 1024;

/// Bytes read per readiness event before yielding to other
/// connections. Level-triggered epoll re-reports the remainder, so a
/// firehose peer cannot starve the loop.
const READ_BUDGET: usize = 64 * 1024;

pub(crate) struct ReactorServer {
    pub(crate) shared: Arc<Shared>,
    pub(crate) addr: SocketAddr,
    wakeup: Arc<EventFd>,
    reactor: Option<JoinHandle<()>>,
    workers: Arc<Workers>,
}

impl ReactorServer {
    pub(crate) fn bind(shared: Arc<Shared>, addr: impl ToSocketAddrs) -> Result<ReactorServer> {
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;

        let epoll = Epoll::new()?;
        let wakeup = Arc::new(EventFd::new()?);
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wakeup.fd(), EPOLLIN, TOKEN_WAKEUP)?;

        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let workers = {
            let shared = shared.clone();
            let completions = completions.clone();
            let wakeup = wakeup.clone();
            Workers::start(
                shared.config.workers,
                shared.config.queue_depth,
                shared.counters.clone(),
                Box::new(move |job| run_job(&shared, job, &completions, &wakeup)),
            )?
        };

        let reactor = {
            let shared = shared.clone();
            let wakeup = wakeup.clone();
            let workers = workers.clone();
            std::thread::Builder::new()
                .name("hermes-reactor".into())
                .spawn(move || {
                    Reactor {
                        shared,
                        epoll,
                        wakeup,
                        listener: Some(listener),
                        conns: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        workers: workers.clone(),
                        completions,
                        last_sweep: Instant::now(),
                        stage_left: 0,
                        read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
                    }
                    .run();
                    // Stopped and drained: the workers finish what is
                    // queued (for connections already gone) and exit.
                    workers.close();
                })
                .map_err(io_err)?
        };

        Ok(ReactorServer {
            shared,
            addr,
            wakeup,
            reactor: Some(reactor),
            workers,
        })
    }

    /// Kicks the reactor out of `epoll_wait` so it notices the stop
    /// flag immediately instead of at the next `idle_poll` tick.
    pub(crate) fn wake(&self) {
        self.wakeup.signal();
    }

    pub(crate) fn join(&mut self) {
        // The reactor exits once stopped and drained, closing the workers.
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        self.workers.join();
    }
}

/// A finished response headed back to the reactor.
struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// One response slot in a connection's FIFO. `bytes` is `None` while a
/// worker is still computing the response.
struct Pending {
    seq: u64,
    bytes: Option<Vec<u8>>,
}

/// Per-connection state machine: decoder in, FIFO + write queue out.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    decoder: FrameDecoder,
    /// Responses owed to the peer, in request order.
    pending: VecDeque<Pending>,
    /// Queries currently at the worker pool (pending slots with
    /// `bytes == None`); bounded by `pipeline_depth`.
    inflight: usize,
    next_seq: u64,
    /// Encoded responses being written: `(buffer, bytes already sent)`.
    wq: VecDeque<(Vec<u8>, usize)>,
    wq_bytes: usize,
    /// The epoll interest set currently registered.
    interest: u32,
    /// Last byte read from or successfully written to the peer.
    last_activity: Instant,
    /// When the currently-incomplete frame started arriving.
    frame_since: Option<Instant>,
    /// Peer half-closed its write side; drain what's owed, then close.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: RawFd) -> Conn {
        Conn {
            stream,
            fd,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            inflight: 0,
            next_seq: 0,
            wq: VecDeque::new(),
            wq_bytes: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
            frame_since: None,
            eof: false,
        }
    }

    fn drained(&self) -> bool {
        self.pending.is_empty() && self.wq.is_empty()
    }
}

struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    wakeup: Arc<EventFd>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    workers: Arc<Workers>,
    completions: Arc<Mutex<Vec<Completion>>>,
    last_sweep: Instant,
    /// Queries this wake may still stage on the reactor thread.
    stage_left: usize,
    /// Where every read lands before its connection's decoder takes the
    /// bytes: allocated and zeroed once, not on every wake.
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if self.shared.stop.load(Ordering::Relaxed) {
                // Drain mode: stop accepting, stop reading, finish
                // writing what each connection is owed, then leave.
                if let Some(listener) = self.listener.take() {
                    let _ = self.epoll.delete(listener.as_raw_fd());
                }
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.flush_conn(token);
                }
                if self.conns.is_empty() {
                    return;
                }
            }

            let timeout = self.shared.config.idle_poll.as_millis().clamp(1, 1000) as i32;
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => return, // epoll itself failing is unrecoverable
            };
            self.stage_left = INLINE_BUDGET;
            for ev in events.iter().take(n) {
                // Copy out of the (packed) event record first.
                let token = { ev.data };
                let bits = { ev.events };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKEUP => self.wakeup.drain(),
                    _ => self.conn_ready(token, bits),
                }
            }
            self.deliver_completions();
            if self.last_sweep.elapsed() >= self.shared.config.idle_poll {
                self.sweep();
                self.last_sweep = Instant::now();
            }
        }
    }

    /// Accepts every pending connection; past `max_conns` each is told
    /// why (`shed`/`accept-queue-full`) and closed.
    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.shared.config.max_conns.max(1) {
                        self.shared.counters.refused.fetch_add(1, Ordering::Relaxed);
                        refuse(stream);
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    if set_nonblocking(fd).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, token).is_err() {
                        continue;
                    }
                    self.shared
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(token, Conn::new(stream, fd));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, bits: u32) {
        if bits & EPOLLERR != 0 {
            self.close(token);
            return;
        }
        // EPOLLHUP/EPOLLRDHUP arrive alongside the final readable data;
        // the read path sees the EOF itself, so both funnel into it.
        if bits & (EPOLLIN | EPOLLRDHUP | super::sys::EPOLLHUP) != 0 {
            self.read_conn(token);
        }
        if bits & EPOLLOUT != 0 {
            self.flush_conn(token);
        }
    }

    /// Reads what the socket has (up to `READ_BUDGET`), decodes every
    /// complete frame, dispatches queries, answers admin frames inline.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut close = false;
        let chunk = &mut self.read_buf;
        let mut consumed = 0;
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.feed(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    consumed += n;
                    // A short read emptied the socket, and past the
                    // budget other connections get their turn. Either
                    // way level-triggered epoll re-reports what is left
                    // or arrives later, EOF included.
                    if n < chunk.len() || consumed >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }

        while !close {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.shared
                        .counters
                        .requests
                        .fetch_add(1, Ordering::Relaxed);
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    match frame {
                        Frame::Query(q) => {
                            let depth = self.shared.config.pipeline_depth.max(1);
                            if conn.inflight >= depth {
                                self.shared
                                    .counters
                                    .pre_gate_shed
                                    .fetch_add(1, Ordering::Relaxed);
                                conn.pending.push_back(Pending {
                                    seq,
                                    bytes: Some(shed_bytes("pipeline-full")),
                                });
                                continue;
                            }
                            let work =
                                if self.stage_left > 0 && !self.shared.mediator.gate_bounded() {
                                    self.stage_left -= 1;
                                    answer_or_stage(&self.shared, &q)
                                } else {
                                    Handoff::Back(Work::Frame(q))
                                };
                            match work {
                                Handoff::Done(bytes) => {
                                    self.shared
                                        .counters
                                        .inline_answers
                                        .fetch_add(1, Ordering::Relaxed);
                                    conn.pending.push_back(Pending {
                                        seq,
                                        bytes: Some(bytes),
                                    });
                                }
                                Handoff::Back(work) => {
                                    if self.workers.submit(Job { token, seq, work }) {
                                        conn.inflight += 1;
                                        conn.pending.push_back(Pending { seq, bytes: None });
                                    } else {
                                        // A staged query the full queue
                                        // drops gives its gate slot back
                                        // uncounted: to the gate's books
                                        // it never arrived.
                                        self.shared
                                            .counters
                                            .pre_gate_shed
                                            .fetch_add(1, Ordering::Relaxed);
                                        conn.pending.push_back(Pending {
                                            seq,
                                            bytes: Some(shed_bytes("worker-queue-full")),
                                        });
                                    }
                                }
                            }
                        }
                        other => {
                            let (bytes, is_shutdown) = respond_bytes(&self.shared, other);
                            conn.pending.push_back(Pending {
                                seq,
                                bytes: Some(bytes),
                            });
                            if is_shutdown {
                                self.shared.stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.shared
                        .counters
                        .bad_frames
                        .fetch_add(1, Ordering::Relaxed);
                    close = true;
                }
            }
        }
        if conn.eof && conn.decoder.mid_frame() {
            // EOF in the middle of a frame is a protocol error, same as
            // the pool path's "connection closed mid-frame".
            self.shared
                .counters
                .bad_frames
                .fetch_add(1, Ordering::Relaxed);
            close = true;
        }
        conn.frame_since = if conn.decoder.mid_frame() {
            conn.frame_since.or_else(|| Some(Instant::now()))
        } else {
            None
        };

        if close {
            self.close(token);
        } else {
            self.flush_conn(token);
        }
    }

    /// Moves ready FIFO heads into the bounded write queue and writes as
    /// much as the socket accepts; re-arms interest; closes when done.
    fn flush_conn(&mut self, token: u64) {
        let stop = self.shared.stop.load(Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut closed = false;
        loop {
            // Promote completed responses, FIFO order, under the cap.
            while conn.wq_bytes < WQ_CAP {
                match conn.pending.front_mut() {
                    Some(p) if p.bytes.is_some() => {
                        let bytes = p.bytes.take().unwrap_or_default();
                        conn.pending.pop_front();
                        if !bytes.is_empty() {
                            conn.wq_bytes += bytes.len();
                            conn.wq.push_back((bytes, 0));
                        }
                    }
                    _ => break,
                }
            }
            if conn.wq.is_empty() {
                break;
            }
            let bufs = conn.wq.iter().map(|(b, off)| (b.as_slice(), *off));
            match writev_bufs(conn.fd, bufs) {
                WriteOutcome::Wrote(0) => break, // EINTR; EPOLLOUT re-arms below
                WriteOutcome::Wrote(mut n) => {
                    conn.last_activity = Instant::now();
                    while n > 0 {
                        let Some((buf, off)) = conn.wq.front_mut() else {
                            break;
                        };
                        let remaining = buf.len() - *off;
                        if n >= remaining {
                            n -= remaining;
                            conn.wq_bytes -= buf.len();
                            conn.wq.pop_front();
                        } else {
                            *off += n;
                            n = 0;
                        }
                    }
                }
                WriteOutcome::WouldBlock => break,
                WriteOutcome::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        if closed || ((conn.eof || stop) && conn.drained()) {
            self.close(token);
            return;
        }
        let mut want = EPOLLRDHUP;
        if !stop && !conn.eof {
            want |= EPOLLIN;
        }
        if !conn.wq.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            let fd = conn.fd;
            if self.epoll.modify(fd, want, token).is_ok() {
                conn.interest = want;
            }
        }
    }

    /// Slots worker completions into their FIFO positions and flushes
    /// the touched connections. Completions for closed connections are
    /// discarded — the work was wasted, the server is unharmed.
    fn deliver_completions(&mut self) {
        let ready = match self.completions.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => return,
        };
        let mut touched = Vec::new();
        for completion in ready {
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                continue;
            };
            if let Some(slot) = conn
                .pending
                .iter_mut()
                .find(|p| p.seq == completion.seq && p.bytes.is_none())
            {
                slot.bytes = Some(completion.bytes);
                conn.inflight = conn.inflight.saturating_sub(1);
                if !touched.contains(&completion.token) {
                    touched.push(completion.token);
                }
            }
        }
        for token in touched {
            self.flush_conn(token);
        }
    }

    /// Evicts deadline violators: mid-frame stalls (slow loris), idle
    /// timeouts, and connections not draining during shutdown.
    fn sweep(&mut self) {
        let now = Instant::now();
        let cfg = &self.shared.config;
        let stop = self.shared.stop.load(Ordering::Relaxed);
        let evict: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let loris = c
                    .frame_since
                    .is_some_and(|since| now.duration_since(since) > cfg.frame_timeout);
                let idle = cfg.idle_timeout.is_some_and(|limit| {
                    c.drained()
                        && c.decoder.buffered() == 0
                        && now.duration_since(c.last_activity) > limit
                });
                let drain_stall = stop
                    && !c.wq.is_empty()
                    && now.duration_since(c.last_activity) > cfg.frame_timeout;
                loris || idle || drain_stall
            })
            .map(|(t, _)| *t)
            .collect();
        for token in evict {
            self.shared.counters.evicted.fetch_add(1, Ordering::Relaxed);
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.fd);
            // Dropping the stream closes the fd and resets anything the
            // peer still had in flight.
        }
    }
}

/// Stages `q` on the calling (reactor) thread and answers it there when
/// that needs no source: a request refused while staging, or a query the
/// answer cache alone serves. `Back` is what a worker must finish.
fn answer_or_stage(shared: &Shared, q: &QueryFrame) -> Handoff<Vec<u8>, Work> {
    match stage_query(shared, q) {
        Ok(staged) => answer_cached(shared, staged),
        Err(refusal) => Handoff::Done(refusal),
    }
}

/// A worker's whole job: the response bytes, left for the reactor.
fn run_job(shared: &Shared, job: Job, completions: &Mutex<Vec<Completion>>, wakeup: &EventFd) {
    let bytes = match job.work {
        Work::Frame(q) => respond_query(shared, &q),
        Work::Staged(staged) => run_staged(shared, staged),
    };
    if let Ok(mut guard) = completions.lock() {
        guard.push(Completion {
            token: job.token,
            seq: job.seq,
            bytes,
        });
    }
    wakeup.signal();
}
