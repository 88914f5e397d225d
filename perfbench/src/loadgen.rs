//! The load generators: the pre-generated query mix with its oracle
//! answers, the closed-loop wire client (optionally pipelined), and the
//! open-loop wire client that sends on a schedule whatever is outstanding.

use hermes_common::{Frame, FrameDecoder, HermesError, QueryFrame, Value};
use hermes_core::WireClient;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats::{row_multiset_hash, Sample};
use crate::world::oracle_hashes;

/// A workload's query mix: distinct texts, the oracle's row-multiset hash
/// of each, and one pre-drawn issue order per client. Clients cycle their
/// order for as long as the window lasts.
pub struct Mix {
    pub texts: Vec<String>,
    pub expected: Vec<u64>,
    pub orders: Vec<Vec<u32>>,
    /// Wall seconds the oracle took.
    pub oracle_s: f64,
}

/// Interns query texts while a workload draws its mix.
#[derive(Default)]
pub struct MixBuilder {
    texts: Vec<String>,
    index: HashMap<String, u32>,
}

impl MixBuilder {
    pub fn intern(&mut self, text: String) -> u32 {
        if let Some(&i) = self.index.get(&text) {
            return i;
        }
        let i = self.texts.len() as u32;
        self.index.insert(text.clone(), i);
        self.texts.push(text);
        i
    }

    /// Asks the oracle for every distinct text's answer.
    pub fn finish(self, orders: Vec<Vec<u32>>) -> Mix {
        let (expected, oracle_s) = oracle_hashes(&self.texts);
        Mix {
            texts: self.texts,
            expected,
            orders,
            oracle_s,
        }
    }
}

/// What one client (or the in-process loop) saw.
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    /// `DoneFrame.elapsed_us` per answer (traced runs only).
    pub server_elapsed_us: Vec<u64>,
    pub attempted: u64,
    pub correct: u64,
    /// Answers whose row multiset differs from the oracle's.
    pub mismatches: u64,
    /// Typed sheds by reason (`pipeline-full`, `worker-queue-full`,
    /// `gate-full`, ...). Every shed is a failure.
    pub sheds: BTreeMap<String, u64>,
    pub query_errors: u64,
    pub transport_errors: u64,
    /// The first failure's query text and what went wrong.
    pub first_failure: Option<String>,
    /// Open loop: sends that left more than 1 ms after they were due.
    pub late_sends: u64,
    /// Open loop: most requests due and unanswered at once on one
    /// connection.
    pub backlog_max: u64,
    /// Open loop: mean requests due and unanswered in the first and the
    /// second half of the window.
    pub backlog_halves: (f64, f64),
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.mismatches
            + self.sheds.values().sum::<u64>()
            + self.query_errors
            + self.transport_errors
    }

    fn fail(&mut self, text: &str, what: impl std::fmt::Display) {
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("`{text}`: {what}"));
        }
    }

    /// Books one finished request: its rows (and the server's own
    /// elapsed microseconds) or its error. With no `sample` — a warm-up
    /// request — a correct answer counts for nothing, but a failure is
    /// still a failure.
    pub fn record(
        &mut self,
        mix: &Mix,
        idx: u32,
        outcome: Result<(Vec<Vec<Value>>, u64), HermesError>,
        sample: Option<Sample>,
        traced: bool,
    ) {
        let text = &mix.texts[idx as usize];
        match outcome {
            Ok((rows, elapsed_us)) => {
                if row_multiset_hash(&rows) == mix.expected[idx as usize] {
                    if let Some(sample) = sample {
                        self.correct += 1;
                        self.samples.push(sample);
                        if traced {
                            self.server_elapsed_us.push(elapsed_us);
                        }
                    }
                } else {
                    self.mismatches += 1;
                    self.fail(
                        text,
                        format!("{} rows differ from the oracle's", rows.len()),
                    );
                }
            }
            Err(HermesError::Shed { reason }) => {
                self.fail(text, format!("shed ({reason})"));
                *self.sheds.entry(reason).or_default() += 1;
            }
            Err(HermesError::Io(e)) => {
                self.transport_errors += 1;
                self.fail(text, format!("transport error: {e}"));
            }
            Err(e) => {
                self.query_errors += 1;
                self.fail(text, e);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.server_elapsed_us.extend(other.server_elapsed_us);
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.mismatches += other.mismatches;
        for (reason, n) in other.sheds {
            *self.sheds.entry(reason).or_default() += n;
        }
        self.query_errors += other.query_errors;
        self.transport_errors += other.transport_errors;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.late_sends += other.late_sends;
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.backlog_halves.0 += other.backlog_halves.0;
        self.backlog_halves.1 += other.backlog_halves.1;
    }
}

/// One closed-loop client: keeps `depth` queries in flight on one
/// connection until `deadline`, timing each from its send to the end of
/// its response. The oracle check runs after the clock is read. The
/// window opens at `start`: answers that complete before it are checked
/// (a wrong one still fails the run) but not counted or timed.
pub fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    order: &[u32],
    depth: usize,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted = 1;
            tally.transport_errors = 1;
            tally.fail("(connect)", e);
            return tally;
        }
    };
    let mut in_flight: VecDeque<(u32, Instant)> = VecDeque::with_capacity(depth);
    let mut next = 0usize;
    loop {
        while in_flight.len() < depth && Instant::now() < deadline {
            let idx = order[next % order.len()];
            next += 1;
            let frame = QueryFrame::new(mix.texts[idx as usize].clone());
            let sent = Instant::now();
            if let Err(e) = client.send_query(frame) {
                tally.attempted += 1;
                tally.transport_errors += 1;
                tally.fail(&mix.texts[idx as usize], e);
                return tally;
            }
            in_flight.push_back((idx, sent));
        }
        let Some((idx, sent)) = in_flight.pop_front() else {
            return tally;
        };
        let outcome = client.recv_result();
        let done = Instant::now();
        let broken = matches!(outcome, Err(HermesError::Io(_)));
        let outcome = outcome.map(|r| (r.rows, r.done.elapsed_us));
        let sample = (done >= start).then(|| Sample {
            done_ns: (done - start).as_nanos() as u64,
            lat_ns: (done - sent).as_nanos() as u64,
        });
        tally.attempted += u64::from(sample.is_some());
        tally.record(mix, idx, outcome, sample, traced);
        if broken {
            // Whatever else was in flight died with the connection.
            tally.transport_errors += in_flight.len() as u64;
            return tally;
        }
    }
}

/// A send is late when it leaves this long after it was due.
const LATE: Duration = Duration::from_millis(1);
/// How long the receiver waits for outstanding answers once sending ends.
const DRAIN: Duration = Duration::from_secs(3);

/// How long a sender at the pipeline cap naps before looking again.
const CAP_NAP: Duration = Duration::from_micros(50);

/// The last stretch before a send is due, which the sender spends
/// awake. A sleep on this machine overshoots by 75 to 130 us (and by
/// milliseconds now and then), a third of a warm answer's latency, and
/// latency runs from the due instant: the sender would be measuring its
/// own timer.
pub const AWAKE_BEFORE_DUE: Duration = Duration::from_micros(200);

/// Passes some of `left`, the time until the next send is due: sleeps
/// through all but the last [`AWAKE_BEFORE_DUE`], then yields the CPU
/// (the connection's receiver shares it) without ever sleeping past the
/// due instant. The caller looks at the clock again.
fn wait_for(left: Duration) {
    if left > AWAKE_BEFORE_DUE {
        std::thread::sleep(left - AWAKE_BEFORE_DUE);
    } else {
        std::thread::yield_now();
    }
}

/// One open-loop connection: this thread sends query `k` at
/// `start + k * interval` whether or not earlier answers have arrived —
/// up to `cap` outstanding, the server's per-connection pipeline depth,
/// past which a request waits in the generator — and a receiver thread
/// reads answers as they come. Latency runs from the *due* instant, so a
/// stalled sender, a wait at the cap and a queue in the server all show;
/// the backlog counts every request that is due and not yet answered.
/// Sending stops when `window` ends, whatever is still due. `WireClient`
/// owns its socket whole, so this side speaks the frame protocol itself
/// through the public `Frame`/`FrameDecoder`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    order: &[u32],
    interval: Duration,
    cap: u64,
    start: Instant,
    window: Duration,
    traced: bool,
) -> Tally {
    let mut tally = Tally::default();
    let connect = || -> std::io::Result<(TcpStream, TcpStream)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok((stream.try_clone()?, stream))
    };
    let (mut tx_stream, rx_stream) = match connect() {
        Ok(pair) => pair,
        Err(e) => {
            tally.attempted = 1;
            tally.transport_errors = 1;
            tally.fail("(connect)", e);
            return tally;
        }
    };
    let total = (window.as_secs_f64() / interval.as_secs_f64()).floor() as u64;
    let end = start + window;
    let (due_tx, due_rx) = mpsc::channel::<(u32, Instant)>();
    let received = AtomicU64::new(0);

    let (sent, late_sends, send_error, backlog) = std::thread::scope(|s| {
        let received = &received;
        let receiver =
            s.spawn(move || receive_open_loop(rx_stream, mix, due_rx, received, start, traced));

        let mut late = 0u64;
        let mut send_error = None;
        let mut backlog_max = 0u64;
        let mut backlog_sum = [0u64; 2];
        let mut backlog_n = [0u64; 2];
        let mut buf = Vec::new();
        let mut k = 0u64;
        while k < total {
            let now = Instant::now();
            let mut due = start + interval.mul_f64(k as f64);
            if due > now {
                wait_for(due - now);
                continue;
            }
            if now >= end {
                break;
            }
            let answered = received.load(Ordering::Relaxed);
            let due_by_now = ((now - start).as_secs_f64() / interval.as_secs_f64()) as u64 + 1;
            let backlog = due_by_now.min(total) - answered;
            backlog_max = backlog_max.max(backlog);
            let half = usize::from(now >= start + window / 2);
            backlog_sum[half] += backlog;
            backlog_n[half] += 1;
            let mut room = cap.saturating_sub(k - answered);
            if room == 0 {
                std::thread::sleep(CAP_NAP);
                continue;
            }
            // Everything due by now (and under the cap) goes out in one
            // write.
            buf.clear();
            while k < total && due <= now && room > 0 {
                let idx = order[(k as usize) % order.len()];
                if now - due > LATE {
                    late += 1;
                }
                // The receiver must know a request before its answer
                // can possibly arrive.
                let _ = due_tx.send((idx, due));
                let frame = Frame::Query(QueryFrame::new(mix.texts[idx as usize].clone()));
                buf.extend(frame.encode());
                k += 1;
                room -= 1;
                due = start + interval.mul_f64(k as f64);
            }
            if let Err(e) = tx_stream.write_all(&buf) {
                send_error = Some(e.to_string());
                break;
            }
        }
        drop(due_tx);
        let mean = |h: usize| backlog_sum[h] as f64 / backlog_n[h].max(1) as f64;
        tally = receiver.join().expect("open-loop receiver does not panic");
        (k, late, send_error, (backlog_max, (mean(0), mean(1))))
    });

    tally.attempted = tally.attempted.max(sent);
    if let Some(e) = send_error {
        tally.transport_errors += 1;
        tally.fail("(send)", e);
    }
    tally.late_sends = late_sends;
    tally.backlog_max = backlog.0;
    tally.backlog_halves = backlog.1;
    tally
}

/// The receiving half of an open-loop connection: answers come back in
/// send order, so each one belongs to the oldest request not yet
/// answered.
fn receive_open_loop(
    mut stream: TcpStream,
    mix: &Mix,
    due_rx: mpsc::Receiver<(u32, Instant)>,
    received: &AtomicU64,
    start: Instant,
    traced: bool,
) -> Tally {
    let mut tally = Tally::default();
    let mut decoder = FrameDecoder::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    // An answer that never comes must not hang the run.
    let _ = stream.set_read_timeout(Some(DRAIN));
    loop {
        // Block for the next request the sender announces; a closed
        // channel with nothing left means every request is answered.
        let (idx, due) = match due_rx.recv() {
            Ok(next) => next,
            Err(_) => return tally,
        };
        let outcome = loop {
            match decoder.next_frame() {
                Ok(Some(Frame::Batch(mut batch))) => rows.append(&mut batch),
                Ok(Some(Frame::Done(done))) => {
                    break Ok((std::mem::take(&mut rows), done.elapsed_us))
                }
                Ok(Some(Frame::Error(e))) => {
                    rows.clear();
                    break Err(e.into_error());
                }
                Ok(Some(other)) => {
                    break Err(HermesError::Io(format!("unexpected frame {other:?}")))
                }
                Ok(None) => match stream.read(&mut chunk) {
                    Ok(0) => break Err(HermesError::Io("server closed the connection".into())),
                    Ok(n) => decoder.feed(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(HermesError::Io(e.to_string())),
                },
                Err(e) => break Err(e),
            }
        };
        let done = Instant::now();
        received.fetch_add(1, Ordering::Relaxed);
        tally.attempted += 1;
        let broken = matches!(outcome, Err(HermesError::Io(_)));
        let sample = Sample {
            done_ns: done.saturating_duration_since(start).as_nanos() as u64,
            lat_ns: done.saturating_duration_since(due).as_nanos() as u64,
        };
        tally.record(mix, idx, outcome, Some(sample), traced);
        if broken {
            // Nothing further can be matched to a request: count what the
            // sender still announces as lost.
            while due_rx.recv().is_ok() {
                tally.attempted += 1;
                tally.transport_errors += 1;
            }
            return tally;
        }
    }
}
