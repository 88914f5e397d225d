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
//!    [`Conn`] — partial frames simply stay buffered until more bytes
//!    arrive,
//! 3. answers the requests each `Conn` decodes: admin frames
//!    (`Ping`/`Stats`/`Shutdown`) inline, and `Query` frames too when the
//!    answer cache alone serves them (see *Which thread runs a query*
//!    below); the rest go to the bounded queue of the
//!    [`workers`](super::workers),
//! 4. collects completions the workers left in the shared vector and
//!    fills each into its connection's response slot, and
//! 5. flushes: what each `Conn` has queued goes out through vectored
//!    writes, re-arming `EPOLLOUT` on short writes.
//!
//! The protocol itself — framing, response order, the `pipeline-full`
//! shed, the write-queue cap and the deadlines a sweep every
//! [`idle_poll`](super::ServeConfig::idle_poll) evicts by — is the
//! [`conn`](super::conn) module's, the same for both engines.
//!
//! # Which thread runs a query
//!
//! A hand-off costs two thread wake-ups (channel to the worker, eventfd
//! back), which on a warm point query is more than the query itself. So
//! while the admission gate is unbounded the reactor *stages* each
//! `Query` frame on its own thread — admit, parse, bind, plan — and
//! finishes it there when the plan is one constant CIM-routed call the
//! cache holds ([`answer_cached`](super::answer_cached)): that path touches no source and
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
//! [`ServeMode::Reactor`]: super::ServeMode::Reactor

use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hermes_common::frame::Frame;
use hermes_common::Result;

use super::conn::Conn;
use super::sys::{
    set_nonblocking, writev_bufs, Epoll, EpollEvent, EventFd, WriteOutcome, EPOLLERR, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP,
};
use super::workers::{Job, Work, Workers};
use super::{
    answer_or_stage, io_err, refuse, respond_bytes, respond_query, run_staged, shed_bytes, Shared,
    INLINE_BUDGET, READ_CHUNK,
};
use crate::pipeline::Handoff;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Bytes read per readiness event before yielding to other
/// connections. Level-triggered epoll re-reports the remainder, so a
/// firehose peer cannot starve the loop.
const READ_BUDGET: usize = 64 * 1024;

pub(crate) struct ReactorServer {
    wakeup: Arc<EventFd>,
    reactor: Option<JoinHandle<()>>,
    workers: Arc<Workers>,
}

impl ReactorServer {
    /// Serves the nonblocking `listener`.
    pub(crate) fn start(shared: Arc<Shared>, listener: TcpListener) -> Result<ReactorServer> {
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

/// A connection the reactor owns: its socket and epoll interest around
/// the protocol state both engines share.
struct Peer {
    stream: TcpStream,
    fd: RawFd,
    /// The epoll interest set currently registered.
    interest: u32,
    conn: Conn,
}

struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    wakeup: Arc<EventFd>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Peer>,
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
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(fd, interest, token).is_err() {
                        continue;
                    }
                    self.shared
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let conn = Conn::new(&self.shared.config, Instant::now());
                    let peer = Peer {
                        stream,
                        fd,
                        interest,
                        conn,
                    };
                    self.conns.insert(token, peer);
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

    /// Reads what the socket has (up to `READ_BUDGET`), then serves every
    /// request the connection decodes: admin frames and cached queries
    /// inline, the rest on the workers.
    fn read_conn(&mut self, token: u64) {
        let Some(peer) = self.conns.get_mut(&token) else {
            return;
        };
        let chunk = &mut self.read_buf;
        let mut consumed = 0;
        loop {
            match peer.stream.read(chunk) {
                Ok(0) => {
                    peer.conn.peer_closed();
                    break;
                }
                Ok(n) => {
                    peer.conn.received(&chunk[..n], Instant::now());
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
                    self.close(token);
                    return;
                }
            }
        }

        let shared = &*self.shared;
        while let Some((seq, frame)) = peer.conn.next_request(&shared.counters) {
            let bytes = match frame {
                Frame::Query(q) => {
                    let work = if self.stage_left > 0 && !shared.mediator.gate_bounded() {
                        self.stage_left -= 1;
                        answer_or_stage(shared, &q)
                    } else {
                        Handoff::Back(Work::Frame(q))
                    };
                    match work {
                        Handoff::Done(bytes) => {
                            shared
                                .counters
                                .inline_answers
                                .fetch_add(1, Ordering::Relaxed);
                            bytes
                        }
                        Handoff::Back(work) => {
                            if self.workers.submit(Job { token, seq, work }) {
                                continue;
                            }
                            // A staged query the full queue drops gives
                            // its gate slot back uncounted: to the gate's
                            // books it never arrived.
                            shared
                                .counters
                                .pre_gate_shed
                                .fetch_add(1, Ordering::Relaxed);
                            shed_bytes("worker-queue-full")
                        }
                    }
                }
                other => respond_bytes(shared, other),
            };
            peer.conn.complete(seq, bytes);
        }
        self.flush_conn(token);
    }

    /// Writes as much of what the connection owes as the socket accepts;
    /// re-arms interest; closes when done.
    fn flush_conn(&mut self, token: u64) {
        let stop = self.shared.stop.load(Ordering::Relaxed);
        let Some(peer) = self.conns.get_mut(&token) else {
            return;
        };
        let mut closed = false;
        loop {
            match writev_bufs(peer.fd, peer.conn.output()) {
                // Nothing queued, or EINTR: EPOLLOUT re-arms below.
                WriteOutcome::Wrote(0) | WriteOutcome::WouldBlock => break,
                WriteOutcome::Wrote(n) => peer.conn.wrote(n, Instant::now()),
                WriteOutcome::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        if closed || peer.conn.finished(stop) {
            self.close(token);
            return;
        }
        let mut want = EPOLLRDHUP;
        if peer.conn.wants_read(stop) {
            want |= EPOLLIN;
        }
        if peer.conn.wants_write() {
            want |= EPOLLOUT;
        }
        if want != peer.interest && self.epoll.modify(peer.fd, want, token).is_ok() {
            peer.interest = want;
        }
    }

    /// Slots worker completions into their connections' response slots
    /// and flushes the touched connections. Completions for closed
    /// connections are discarded — the work was wasted, the server is
    /// unharmed.
    fn deliver_completions(&mut self) {
        let ready = match self.completions.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => return,
        };
        let mut touched = Vec::new();
        for completion in ready {
            let Some(peer) = self.conns.get_mut(&completion.token) else {
                continue;
            };
            if peer.conn.complete(completion.seq, completion.bytes)
                && !touched.contains(&completion.token)
            {
                touched.push(completion.token);
            }
        }
        for token in touched {
            self.flush_conn(token);
        }
    }

    /// Evicts every connection past a deadline ([`Conn::overdue`]).
    fn sweep(&mut self) {
        let now = Instant::now();
        let stop = self.shared.stop.load(Ordering::Relaxed);
        let evict: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, peer)| peer.conn.overdue(now, stop))
            .map(|(t, _)| *t)
            .collect();
        for token in evict {
            self.shared.counters.evicted.fetch_add(1, Ordering::Relaxed);
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(peer) = self.conns.remove(&token) {
            let _ = self.epoll.delete(peer.fd);
            // Dropping the stream closes the fd and resets anything the
            // peer still had in flight.
        }
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
