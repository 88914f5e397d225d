//! The worker-pool server engine ([`ServeMode::Pool`]): one *accept*
//! thread and `workers` handler threads. The accept thread runs a
//! non-blocking poll loop so it can notice shutdown promptly; accepted
//! sockets flow to the handlers through a **bounded** queue. When the
//! queue is full the connection is refused at the socket with a
//! `shed`/`accept-queue-full` error frame: the gate sheds *queries*,
//! the accept queue sheds *connections* before they cost a worker.
//!
//! Each handler owns one connection at a time and drives its
//! [`Conn`] with blocking reads and writes that wait at most `idle_poll`,
//! answering each request before it takes the next; between ticks it
//! checks the stop flag and the connection's deadlines.
//!
//! The cost of this simplicity is the connection ceiling: a handler
//! holds its connection until EOF, so at most `workers` clients are
//! served at once regardless of how idle they are. The
//! [`reactor`](super::reactor) engine removes that ceiling.
//!
//! [`ServeMode::Pool`]: super::ServeMode::Pool

use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hermes_common::Result;

use super::conn::Conn;
use super::{io_err, refuse, respond_bytes, Shared, READ_CHUNK};

pub(crate) struct PoolServer {
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PoolServer {
    /// Serves the nonblocking `listener`.
    pub(crate) fn start(shared: Arc<Shared>, listener: TcpListener) -> Result<PoolServer> {
        let workers = shared.config.workers.max(1);
        let threads = &shared.counters.worker_threads_peak;
        threads.store(workers as u64, Ordering::Relaxed);
        let (tx, rx) = sync_channel::<TcpStream>(shared.config.pending_conns);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("hermes-handler-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .map_err(io_err)
            })
            .collect::<Result<Vec<JoinHandle<()>>>>()?;
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("hermes-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &tx))
                .map_err(io_err)?
        };

        Ok(PoolServer {
            accept: Some(accept),
            workers: handles,
        })
    }

    pub(crate) fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return; // drops `tx`; workers drain the queue and exit
        }
        match listener.accept() {
            Ok((stream, _)) => match tx.try_send(stream) {
                Ok(()) => {
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Full(stream)) => {
                    shared.counters.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(stream);
                }
                Err(TrySendError::Disconnected(_)) => return,
            },
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.idle_poll);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(shared.config.idle_poll),
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let conn = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            guard.recv()
        };
        match conn {
            Ok(stream) => serve_connection(shared, stream),
            Err(_) => return, // accept loop gone and queue drained
        }
    }
}

/// Serves one connection request/response until it finishes, breaks or
/// passes a deadline: each request is answered on this thread, and its
/// response written, before the next is taken. Errors on the socket just
/// close the connection — the server itself never dies from a bad peer.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Reads and writes wait at most one poll tick, so the deadlines and
    // the stop flag are looked at every tick.
    let tick = Some(shared.config.idle_poll.max(Duration::from_millis(1)));
    if stream.set_read_timeout(tick).is_err() || stream.set_write_timeout(tick).is_err() {
        return;
    }
    let counters = &shared.counters;
    let mut conn = Conn::new(&shared.config, Instant::now());
    let mut buf = [0u8; READ_CHUNK];
    loop {
        let stop = shared.stop.load(Ordering::Relaxed);
        if conn.finished(stop) {
            return;
        }
        if conn.overdue(Instant::now(), stop) {
            counters.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let next_write = conn.output().next();
        let io = if let Some((bytes, sent)) = next_write {
            match (&stream).write(&bytes[sent..]) {
                Ok(0) => return, // the socket takes nothing more
                n => n.map(|n| conn.wrote(n, Instant::now())),
            }
        } else if let Some((seq, frame)) = conn.next_request(counters) {
            conn.complete(seq, respond_bytes(shared, frame));
            Ok(())
        } else if conn.wants_read(stop) {
            (&stream).read(&mut buf).map(|n| match n {
                0 => conn.peer_closed(),
                n => conn.received(&buf[..n], Instant::now()),
            })
        } else {
            Ok(())
        };
        if io.is_err_and(|e| !matches!(e.kind(), WouldBlock | TimedOut | Interrupted)) {
            return; // the peer reset or went away
        }
    }
}
