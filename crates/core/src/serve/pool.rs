//! The worker-pool server engine ([`ServeMode::Pool`]): one *accept*
//! thread and `workers` handler threads. The accept thread runs a
//! non-blocking poll loop so it can notice shutdown promptly; accepted
//! sockets flow to the handlers through a **bounded** queue. When the
//! queue is full the connection is refused at the socket with a
//! `shed`/`accept-queue-full` error frame — this is the socket-level
//! face of the PR 6 admission gate: the gate sheds *queries* under
//! concurrency pressure, the accept queue sheds *connections* before
//! they ever cost a worker.
//!
//! Each handler owns one connection at a time and serves its frames
//! request/response: `Query` → `Batch*` + `Done` (or `Error`),
//! `Stats` → `StatsReply`, `Ping` → `Pong`, `Shutdown` → `Pong` then a
//! graceful drain. Handlers poll for the stop flag between frames
//! (bounded by `idle_poll`), so `shutdown`/a `Shutdown` frame drains in
//! bounded time without cutting off an in-flight response.
//!
//! The cost of this simplicity is the connection ceiling: a handler
//! holds its connection until EOF, so at most `workers` clients are
//! served at once regardless of how idle they are. The
//! [`reactor`](super::reactor) engine removes that ceiling.
//!
//! [`ServeMode::Pool`]: super::ServeMode::Pool

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use hermes_common::frame::Frame;
use hermes_common::Result;

use super::{io_err, refuse, respond_bytes, Shared};

pub(crate) struct PoolServer {
    pub(crate) shared: Arc<Shared>,
    pub(crate) addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PoolServer {
    pub(crate) fn bind(shared: Arc<Shared>, addr: impl ToSocketAddrs) -> Result<PoolServer> {
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;

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
            shared,
            addr,
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

/// Serve one connection request/response until EOF, a protocol error,
/// or drain. Errors on the socket just close the connection — the
/// server itself never dies from a bad peer.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match next_frame(shared, &stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(_) => {
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (bytes, is_shutdown) = respond_bytes(shared, frame);
        if (&stream).write_all(&bytes).is_err() {
            return; // peer went away mid-response
        }
        if is_shutdown {
            shared.stop.store(true, Ordering::Relaxed);
            return;
        }
    }
}

/// Wait for the next frame, polling the stop flag while the connection
/// is idle. Once a frame's first byte arrives it must finish within
/// `frame_timeout`. `Ok(None)` means clean EOF or drain.
fn next_frame(shared: &Shared, stream: &TcpStream) -> Result<Option<Frame>> {
    let mut probe = [0u8; 1];
    loop {
        stream
            .set_read_timeout(Some(shared.config.idle_poll))
            .map_err(io_err)?;
        match stream.peek(&mut probe) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Ok(None), // connection reset: not a protocol error
        }
    }
    stream
        .set_read_timeout(Some(shared.config.frame_timeout))
        .map_err(io_err)?;
    Frame::read_from(&mut &*stream)
}
