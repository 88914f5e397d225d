//! One connection's protocol, shared by both serving engines: the frame
//! decoder, the response slots, the write queue and the deadlines.
//!
//! A [`Conn`] does no I/O and reads no clock. Its driver — the epoll
//! [`reactor`](super::reactor) or a [`pool`](super::pool) handler thread —
//! hands it the bytes a read returned ([`Conn::received`]), the peer's
//! EOF ([`Conn::peer_closed`]), each response as it is computed
//! ([`Conn::complete`]), the bytes a write took ([`Conn::wrote`]) and
//! `now`; it hands back the requests to serve ([`Conn::next_request`]),
//! the bytes to write ([`Conn::output`]) and whether the connection is
//! done ([`Conn::finished`]) or past a deadline ([`Conn::overdue`]).
//!
//! # Response slots
//!
//! Every decoded request takes the next sequence number and a slot at
//! the back of a FIFO, so responses leave **in request order** whichever
//! finishes first. At most [`pipeline_depth`](super::ServeConfig::pipeline_depth)
//! `Query` requests may be unanswered at once; one more is answered in
//! its own slot with `shed`/`pipeline-full` and never reaches the
//! mediator, so the gate invariant `admitted + shed == queries` is
//! untouched. A driver that answers each request before asking for the
//! next (the pool) never has more than one unanswered and never sheds.
//!
//! # Deadlines
//!
//! A connection is [`overdue`](Conn::overdue) — the driver evicts it and
//! counts `NetServerStats::evicted` — once
//! (a) a frame has been arriving for longer than
//! [`frame_timeout`](super::ServeConfig::frame_timeout) (slow loris),
//! (b) it has owed nothing, buffered nothing and moved no byte for longer
//! than [`idle_timeout`](super::ServeConfig::idle_timeout), when one is
//! set, or (c) the server is draining and its queued bytes have not moved
//! for `frame_timeout`. Each fires on the first instant past its limit.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use hermes_common::frame::{Frame, FrameDecoder};

use super::{shed_bytes, NetCounters, ServeConfig};

/// Per-connection cap on buffered-but-unsent response bytes. Past it,
/// answered responses wait in their slots until the peer drains —
/// backpressure instead of unbounded memory.
pub(crate) const WQ_CAP: usize = 4 << 20;

/// One connection's protocol state; see the [module docs](self).
pub(crate) struct Conn {
    decoder: FrameDecoder,
    /// Responses owed to the peer, in request order: `None` while the
    /// response is being computed. The front slot is request `first_seq`.
    slots: VecDeque<Option<Vec<u8>>>,
    first_seq: u64,
    /// Slots still `None`.
    unanswered: usize,
    /// Encoded responses being written: `(buffer, bytes already sent)`.
    wq: VecDeque<(Vec<u8>, usize)>,
    wq_bytes: usize,
    /// The last read that brought bytes.
    read_at: Instant,
    /// The last read or write that moved bytes.
    active_at: Instant,
    /// When the frame still arriving started to arrive.
    frame_since: Option<Instant>,
    /// The peer closed its side: answer what is owed, then close.
    eof: bool,
    /// A malformed frame (or EOF inside one): owed nothing, close now.
    broken: bool,
    pipeline_depth: usize,
    frame_timeout: Duration,
    idle_timeout: Option<Duration>,
}

impl Conn {
    /// A connection accepted at `now`, under `config`'s limits.
    pub(crate) fn new(config: &ServeConfig, now: Instant) -> Conn {
        Conn {
            decoder: FrameDecoder::new(),
            slots: VecDeque::new(),
            first_seq: 0,
            unanswered: 0,
            wq: VecDeque::new(),
            wq_bytes: 0,
            read_at: now,
            active_at: now,
            frame_since: None,
            eof: false,
            broken: false,
            pipeline_depth: config.pipeline_depth.max(1),
            frame_timeout: config.frame_timeout,
            idle_timeout: config.idle_timeout,
        }
    }

    /// Bytes one read took off the socket at `now`.
    pub(crate) fn received(&mut self, bytes: &[u8], now: Instant) {
        self.decoder.feed(bytes);
        self.read_at = now;
        self.active_at = now;
    }

    /// The peer closed its write side.
    pub(crate) fn peer_closed(&mut self) {
        self.eof = true;
    }

    /// The next request to serve, with the sequence number its response
    /// goes back under ([`Conn::complete`]). `None` when no whole frame is
    /// buffered — or when the bytes are malformed or the peer closed
    /// inside a frame: that counts one `bad_frames` and breaks the
    /// connection. Counts `requests`, and `pre_gate_shed` for a query
    /// shed `pipeline-full` here.
    pub(crate) fn next_request(&mut self, counters: &NetCounters) -> Option<(u64, Frame)> {
        while !self.broken {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    counters.requests.fetch_add(1, Ordering::Relaxed);
                    self.frame_since = None;
                    let seq = self.first_seq + self.slots.len() as u64;
                    if matches!(frame, Frame::Query(_)) && self.unanswered >= self.pipeline_depth {
                        counters.pre_gate_shed.fetch_add(1, Ordering::Relaxed);
                        self.slots.push_back(Some(shed_bytes("pipeline-full")));
                        continue;
                    }
                    self.slots.push_back(None);
                    self.unanswered += 1;
                    return Some((seq, frame));
                }
                Ok(None) if !self.decoder.mid_frame() => return None,
                Ok(None) if !self.eof => {
                    // Whatever is buffered arrived by the last read.
                    self.frame_since.get_or_insert(self.read_at);
                    return None;
                }
                Ok(None) | Err(_) => {
                    counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    self.broken = true;
                    self.slots.clear();
                    self.unanswered = 0;
                    self.wq.clear();
                    self.wq_bytes = 0;
                }
            }
        }
        None
    }

    /// Fills request `seq`'s slot with its encoded response. False when
    /// no slot waits for it (the connection broke meanwhile).
    pub(crate) fn complete(&mut self, seq: u64, bytes: Vec<u8>) -> bool {
        let slot = seq
            .checked_sub(self.first_seq)
            .and_then(|i| self.slots.get_mut(i as usize));
        match slot {
            Some(slot @ None) => {
                *slot = Some(bytes);
                self.unanswered -= 1;
                true
            }
            _ => false,
        }
    }

    /// Moves answered slots, in request order, into the write queue while
    /// it holds less than [`WQ_CAP`] bytes, then lists what is queued:
    /// each buffer with the bytes of it already sent, oldest first.
    pub(crate) fn output(&mut self) -> impl Iterator<Item = (&[u8], usize)> + '_ {
        while self.wq_bytes < WQ_CAP && matches!(self.slots.front(), Some(Some(_))) {
            let bytes = self.slots.pop_front().flatten().unwrap_or_default();
            self.first_seq += 1;
            if !bytes.is_empty() {
                self.wq_bytes += bytes.len();
                self.wq.push_back((bytes, 0));
            }
        }
        self.wq.iter().map(|(b, sent)| (b.as_slice(), *sent))
    }

    /// A write at `now` took the first `n` bytes of [`Conn::output`].
    pub(crate) fn wrote(&mut self, mut n: usize, now: Instant) {
        self.active_at = now;
        while let Some((buf, sent)) = self.wq.front_mut() {
            let rest = buf.len() - *sent;
            if n < rest {
                *sent += n;
                return;
            }
            n -= rest;
            self.wq_bytes -= buf.len();
            self.wq.pop_front();
        }
    }

    /// Whether to read from the peer: not once it closed, broke, or the
    /// server is `stopping`.
    pub(crate) fn wants_read(&self, stopping: bool) -> bool {
        !(stopping || self.eof || self.broken)
    }

    /// Whether queued bytes wait for the socket to take them.
    pub(crate) fn wants_write(&self) -> bool {
        !self.wq.is_empty()
    }

    /// Whether to close now: the connection broke, or it reads no more
    /// (the peer closed, or the server is `stopping`) and owes nothing.
    pub(crate) fn finished(&self, stopping: bool) -> bool {
        self.broken || ((self.eof || stopping) && self.slots.is_empty() && self.wq.is_empty())
    }

    /// Whether a deadline has passed at `now` (see the module docs).
    pub(crate) fn overdue(&self, now: Instant, stopping: bool) -> bool {
        let past = |since: Instant, limit: Duration| now.duration_since(since) > limit;
        let loris = self
            .frame_since
            .is_some_and(|since| past(since, self.frame_timeout));
        let idle = self.idle_timeout.is_some_and(|limit| {
            self.slots.is_empty()
                && self.wq.is_empty()
                && self.decoder.buffered() == 0
                && past(self.active_at, limit)
        });
        let drain_stall =
            stopping && !self.wq.is_empty() && past(self.active_at, self.frame_timeout);
        loris || idle || drain_stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::frame::{ErrorFrame, QueryFrame};

    const TICK: Duration = Duration::from_nanos(1);

    fn query(src: &str) -> Vec<u8> {
        Frame::Query(QueryFrame::new(src)).encode()
    }

    /// A connection under `config`, opened at `t0`, with its counters.
    fn open(config: ServeConfig) -> (Conn, NetCounters, Instant) {
        let t0 = Instant::now();
        (Conn::new(&config, t0), NetCounters::default(), t0)
    }

    /// Everything queued for the socket, taken as one write.
    fn write_all(conn: &mut Conn, now: Instant) -> Vec<u8> {
        let out: Vec<u8> = conn
            .output()
            .flat_map(|(b, sent)| b[sent..].to_vec())
            .collect();
        conn.wrote(out.len(), now);
        out
    }

    fn count(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn a_request_split_at_any_byte_decodes_once_when_whole() {
        let bytes = query("?- item(A, B).");
        for cut in 0..=bytes.len() {
            let (mut conn, counters, t0) = open(ServeConfig::default());
            conn.received(&bytes[..cut], t0);
            if cut < bytes.len() {
                assert!(conn.next_request(&counters).is_none(), "cut {cut}");
                conn.received(&bytes[cut..], t0);
            }
            let (seq, frame) = conn.next_request(&counters).expect("whole frame");
            assert_eq!(
                (seq, frame),
                (0, Frame::Query(QueryFrame::new("?- item(A, B).")))
            );
            assert!(conn.next_request(&counters).is_none());
            assert_eq!(count(&counters.requests), 1);
            assert_eq!(count(&counters.bad_frames), 0);
            assert!(!conn.overdue(t0 + Duration::from_secs(3600), false));
        }
    }

    #[test]
    fn responses_leave_in_request_order_whatever_order_they_complete_in() {
        let (mut conn, counters, t0) = open(ServeConfig::default());
        let stream: Vec<u8> = (0..4).flat_map(|i| query(&format!("?- q({i})."))).collect();
        conn.received(&stream, t0);
        let seqs: Vec<u64> = std::iter::from_fn(|| conn.next_request(&counters))
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        let response = |seq: u64| {
            Frame::Error(ErrorFrame {
                code: "r".into(),
                message: seq.to_string(),
            })
            .encode()
        };
        let mut sent = Vec::new();
        for (seq, ready) in [(2, 0), (0, 1), (3, 1), (1, 4)] {
            assert!(conn.complete(seq, response(seq)));
            sent.extend(write_all(&mut conn, t0));
            let expected: Vec<u8> = (0..ready).flat_map(response).collect();
            assert_eq!(sent, expected, "after completing {seq}");
        }
        assert!(!conn.complete(1, response(1)), "a slot is filled once");
        assert!(conn.finished(true), "nothing owed");
    }

    #[test]
    fn a_query_past_the_pipeline_depth_is_shed_in_its_own_slot() {
        let config = ServeConfig::builder().pipeline_depth(2).build();
        let (mut conn, counters, t0) = open(config);
        let mut stream: Vec<u8> = (0..3).flat_map(|i| query(&format!("?- q({i})."))).collect();
        stream.extend(Frame::Ping.encode());
        conn.received(&stream, t0);
        let taken: Vec<(u64, Frame)> =
            std::iter::from_fn(|| conn.next_request(&counters)).collect();
        let seqs: Vec<u64> = taken.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(
            seqs,
            [0, 1, 3],
            "the third query never leaves the connection"
        );
        assert_eq!(taken[2].1, Frame::Ping, "admin frames are not shed");
        assert_eq!(count(&counters.requests), 4);
        assert_eq!(count(&counters.pre_gate_shed), 1);

        conn.complete(3, Frame::Pong.encode());
        assert!(write_all(&mut conn, t0).is_empty(), "slot 0 is still owed");
        conn.complete(1, Frame::Pong.encode());
        conn.complete(0, Frame::Pong.encode());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&write_all(&mut conn, t0));
        let frames: Vec<Frame> = std::iter::from_fn(|| decoder.next_frame().unwrap()).collect();
        let shed = Frame::Error(ErrorFrame {
            code: "shed".into(),
            message: "pipeline-full".into(),
        });
        assert_eq!(frames, [Frame::Pong, Frame::Pong, shed, Frame::Pong]);
    }

    #[test]
    fn one_request_at_a_time_never_sheds() {
        let config = ServeConfig::builder().pipeline_depth(1).build();
        let (mut conn, counters, t0) = open(config);
        let stream: Vec<u8> = (0..8).flat_map(|i| query(&format!("?- q({i})."))).collect();
        conn.received(&stream, t0);
        while let Some((seq, _)) = conn.next_request(&counters) {
            conn.complete(seq, Frame::Pong.encode());
        }
        assert_eq!(count(&counters.pre_gate_shed), 0);
        assert_eq!(
            write_all(&mut conn, t0).len(),
            8 * Frame::Pong.encode().len()
        );
    }

    #[test]
    fn the_write_queue_holds_responses_past_its_cap_and_resumes_partial_writes() {
        let (mut conn, counters, t0) = open(ServeConfig::default());
        conn.received(
            &[query("?- a."), query("?- b."), query("?- c.")].concat(),
            t0,
        );
        let seqs: Vec<u64> = std::iter::from_fn(|| conn.next_request(&counters))
            .map(|(seq, _)| seq)
            .collect();
        conn.complete(seqs[0], vec![1; WQ_CAP]);
        conn.complete(seqs[1], vec![2; 10]);
        conn.complete(seqs[2], vec![3; 10]);
        let queued = |conn: &mut Conn| -> Vec<(u8, usize, usize)> {
            conn.output()
                .map(|(buf, sent)| (buf[0], buf.len(), sent))
                .collect()
        };
        assert_eq!(
            queued(&mut conn),
            [(1, WQ_CAP, 0)],
            "the rest wait in their slots"
        );
        assert!(conn.wants_write());

        conn.wrote(100, t0);
        assert_eq!(
            queued(&mut conn),
            [(1, WQ_CAP, 100)],
            "a partial write resumes"
        );
        conn.wrote(WQ_CAP - 101, t0);
        assert_eq!(
            queued(&mut conn),
            [(1, WQ_CAP, WQ_CAP - 1)],
            "a buffer counts whole until its last byte is sent"
        );
        conn.wrote(1, t0);
        assert_eq!(queued(&mut conn), [(2, 10, 0), (3, 10, 0)]);
        conn.wrote(15, t0);
        assert_eq!(
            queued(&mut conn),
            [(3, 10, 5)],
            "a write that spans two buffers"
        );
        conn.wrote(5, t0);
        assert!(!conn.wants_write());
        assert!(queued(&mut conn).is_empty());
        assert!(conn.finished(true));
    }

    #[test]
    fn eof_between_frames_is_clean_and_eof_inside_one_is_a_bad_frame() {
        let (mut conn, counters, t0) = open(ServeConfig::default());
        conn.received(&Frame::Ping.encode(), t0);
        conn.peer_closed();
        let (seq, _) = conn.next_request(&counters).unwrap();
        assert!(conn.next_request(&counters).is_none());
        assert!(!conn.wants_read(false));
        assert!(!conn.finished(false), "the ping is still owed");
        conn.complete(seq, Frame::Pong.encode());
        assert_eq!(write_all(&mut conn, t0), Frame::Pong.encode());
        assert!(conn.finished(false));
        assert_eq!(count(&counters.bad_frames), 0);

        let bytes = query("?- q(A).");
        for cut in 1..bytes.len() {
            let (mut conn, counters, t0) = open(ServeConfig::default());
            conn.received(&Frame::Ping.encode(), t0);
            conn.received(&bytes[..cut], t0);
            conn.peer_closed();
            let (seq, _) = conn.next_request(&counters).unwrap();
            conn.complete(seq, Frame::Pong.encode());
            assert!(conn.next_request(&counters).is_none(), "cut {cut}");
            assert_eq!(count(&counters.bad_frames), 1, "cut {cut}");
            assert!(conn.finished(false), "cut {cut}");
            assert!(
                write_all(&mut conn, t0).is_empty(),
                "a broken connection is owed nothing"
            );
        }
    }

    #[test]
    fn a_garbage_header_breaks_the_connection_and_drops_what_it_was_owed() {
        let (mut conn, counters, t0) = open(ServeConfig::default());
        conn.received(&Frame::Ping.encode(), t0);
        let (seq, _) = conn.next_request(&counters).unwrap();
        conn.received(&[0xff; 64], t0);
        assert!(conn.next_request(&counters).is_none());
        assert_eq!(count(&counters.bad_frames), 1);
        assert_eq!(count(&counters.requests), 1);
        assert!(conn.finished(false));
        assert!(!conn.wants_read(false));
        assert!(
            !conn.complete(seq, Frame::Pong.encode()),
            "a late answer finds no slot"
        );
        assert_eq!(conn.output().count(), 0);
        conn.received(&Frame::Ping.encode(), t0);
        assert!(
            conn.next_request(&counters).is_none(),
            "nothing more is decoded"
        );
        assert_eq!(count(&counters.bad_frames), 1, "counted once");
    }

    #[test]
    fn a_stalled_frame_is_overdue_one_tick_past_the_frame_timeout() {
        let timeout = Duration::from_millis(300);
        let config = ServeConfig::builder().frame_timeout(timeout).build();
        let (mut conn, counters, t0) = open(config);
        let bytes = query("?- q(A).");
        // A whole frame, then the first header byte of the next.
        conn.received(&bytes, t0);
        conn.received(&bytes[..1], t0 + timeout);
        assert!(conn.next_request(&counters).is_some());
        assert!(conn.next_request(&counters).is_none());
        let since = t0 + timeout;
        // A byte every third of the timeout keeps the connection active
        // but does not move the frame's deadline.
        for (i, b) in bytes[1..3].iter().enumerate() {
            conn.received(
                std::slice::from_ref(b),
                since + timeout / 3 * (i as u32 + 1),
            );
            assert!(conn.next_request(&counters).is_none());
        }
        assert!(!conn.overdue(since + timeout, false));
        assert!(conn.overdue(since + timeout + TICK, false));
        // The frame finishes: no deadline is left.
        conn.received(&bytes[3..], since + timeout);
        assert!(conn.next_request(&counters).is_some());
        assert!(!conn.overdue(since + timeout * 100, false));
    }

    #[test]
    fn a_quiet_connection_is_overdue_one_tick_past_the_idle_timeout() {
        let (conn, _, t0) = open(ServeConfig::default());
        assert!(
            !conn.overdue(t0 + Duration::from_secs(3600), false),
            "off by default"
        );

        let idle = Duration::from_millis(120);
        let (mut conn, counters, t0) =
            open(ServeConfig::builder().idle_timeout(Some(idle)).build());
        assert!(!conn.overdue(t0 + idle, false));
        assert!(conn.overdue(t0 + idle + TICK, false));

        // Traffic moves the deadline; a request or response owed holds it off.
        let t1 = t0 + idle;
        conn.received(&Frame::Ping.encode(), t1);
        let (seq, _) = conn.next_request(&counters).unwrap();
        assert!(!conn.overdue(t1 + idle * 10, false), "a request is owed");
        conn.complete(seq, Frame::Pong.encode());
        assert!(!conn.overdue(t1 + idle * 10, false), "a response is owed");
        let t2 = t1 + idle * 10;
        write_all(&mut conn, t2);
        assert!(!conn.overdue(t2 + idle, false));
        assert!(conn.overdue(t2 + idle + TICK, false));
        // An unfinished frame is not idleness: the frame deadline covers it.
        conn.received(&[9], t2);
        assert!(conn.next_request(&counters).is_none());
        assert!(!conn.overdue(t2 + idle + TICK, false));
    }

    #[test]
    fn a_drain_that_stops_moving_is_overdue_one_tick_past_the_frame_timeout() {
        let timeout = Duration::from_millis(300);
        let config = ServeConfig::builder().frame_timeout(timeout).build();
        let (mut conn, counters, t0) = open(config);
        conn.received(&Frame::Ping.encode(), t0);
        let (seq, _) = conn.next_request(&counters).unwrap();
        conn.complete(seq, vec![7; 64]);
        assert_eq!(conn.output().count(), 1);
        conn.wrote(10, t0 + timeout);
        let t1 = t0 + timeout;
        assert!(
            !conn.overdue(t1 + timeout * 10, false),
            "only while draining"
        );
        assert!(!conn.overdue(t1 + timeout, true));
        assert!(conn.overdue(t1 + timeout + TICK, true));
        conn.wrote(54, t1 + timeout);
        assert!(
            !conn.overdue(t1 + timeout * 10, true),
            "nothing left to drain"
        );
        assert!(conn.finished(true));
    }

    #[test]
    fn stopping_reads_nothing_more_and_closes_once_what_is_owed_is_written() {
        let (mut conn, counters, t0) = open(ServeConfig::default());
        conn.received(&[query("?- a."), Frame::Shutdown.encode()].concat(), t0);
        let (a, _) = conn.next_request(&counters).unwrap();
        let (shutdown, frame) = conn.next_request(&counters).unwrap();
        assert_eq!(frame, Frame::Shutdown);
        conn.complete(shutdown, Frame::Pong.encode());
        assert!(conn.wants_read(false));
        assert!(!conn.wants_read(true));
        assert!(!conn.finished(true), "the query is owed");
        assert!(
            write_all(&mut conn, t0).is_empty(),
            "the pong waits behind it"
        );
        conn.complete(a, Frame::Pong.encode());
        assert!(!conn.finished(true), "written, not yet sent");
        assert_eq!(
            write_all(&mut conn, t0).len(),
            2 * Frame::Pong.encode().len()
        );
        assert!(conn.finished(true));
        assert!(
            !conn.finished(false),
            "a connection not stopping stays open"
        );
    }
}
