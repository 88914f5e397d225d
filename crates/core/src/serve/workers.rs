//! The reactor's query workers: a bounded job queue and the threads that
//! drain it, in which a thread about to wait on someone else *lends its
//! run slot* for the length of the wait ([`parked`]).
//!
//! [`ServeConfig::workers`](super::ServeConfig::workers) bounds the
//! queries **computing** at once — `running`, the run slots in use. A
//! worker that reaches a source call, a wall-clock retry back-off or a
//! single-flight follower wait gives its slot up; if a job is queued, an
//! idle thread is woken to run it, or a new one is started when none is
//! idle. So source waits of different queries overlap instead of queueing
//! behind sleeping threads.
//!
//! * **The thread that went idle last is woken first**, and only once the
//!   waker has let go of the pool's lock. Steady traffic therefore keeps
//!   running on the same few warm threads however many a burst started,
//!   the rest time out and retire, and a woken thread never finds the
//!   lock held by whoever woke it.
//! * **Leaving `parked` takes the slot back without waiting.** `running`
//!   may then exceed `workers` until the next job finishes — threads take
//!   a job only while `running < workers` — but no thread ever waits for
//!   a slot while holding anything another thread needs. A leader parked
//!   at a source and followers parked on its flight therefore cannot
//!   deadlock, whatever `workers` is.
//! * **Threads are capped** at `workers × (1 + PARKED_PER_WORKER)`. At the
//!   cap jobs stay queued, and past `queue_depth` of them the reactor
//!   sheds `worker-queue-full`, as it always has.
//! * A thread above `workers` that finds nothing to do for
//!   [`SPARE_LINGER`] retires; every thread is joined at shutdown. A
//!   server whose queries never park (warm traffic, CPU-bound joins)
//!   starts no thread beyond `workers`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use hermes_common::frame::QueryFrame;
use hermes_common::sync::Mutex;
use hermes_common::Result;

use super::{io_err, NetCounters, StagedFrame, PARKED_PER_WORKER};

/// How long a thread above `workers` waits for work before it retires:
/// long enough that the threads one burst started are still there for the
/// next — steady cold traffic pays no thread start per query, and a
/// server under bursty load does not start and retire threads all the
/// time — short enough that an idle server gives their memory back.
const SPARE_LINGER: Duration = Duration::from_secs(10);

/// A query headed for a worker, tagged with the connection and FIFO slot
/// its response must fill.
pub(crate) struct Job {
    pub(crate) token: u64,
    pub(crate) seq: u64,
    pub(crate) work: Work,
}

/// What a worker receives: a query the reactor already staged, or the
/// frame as it arrived.
pub(crate) enum Work {
    Frame(QueryFrame),
    Staged(StagedFrame),
}

pub(crate) struct Workers {
    state: Mutex<State>,
    /// `ServeConfig::workers`: queries computing at once.
    slots: usize,
    queue_depth: usize,
    counters: Arc<NetCounters>,
    run: Box<dyn Fn(Job) + Send + Sync>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Threads holding a run slot: inside `run` and not inside [`parked`].
    running: usize,
    /// Threads inside [`parked`].
    parked: usize,
    /// Threads waiting (in `thread::park_timeout`) for work, the one that
    /// went idle last at the end. Whoever takes a thread off this list
    /// unparks it.
    idle: Vec<Thread>,
    /// Live threads: running, parked, idle, or awake between two of those
    /// — and then about to look at the queue.
    threads: usize,
    handles: Vec<JoinHandle<()>>,
    closed: bool,
}

thread_local! {
    /// On a worker thread, the pool whose run slot the thread holds.
    static SLOT: RefCell<Option<Arc<Workers>>> = const { RefCell::new(None) };
}

/// Runs `wait` — a call that blocks on a source, a timer or another query
/// — with the calling worker's run slot lent out, so a queued query may
/// compute meanwhile. Off the reactor's worker threads (in-process
/// callers, the reactor thread, the pool engine's handlers) it just runs
/// `wait`. Must not be nested.
pub(crate) fn parked<R>(wait: impl FnOnce() -> R) -> R {
    SLOT.with(|slot| match &*slot.borrow() {
        Some(pool) => {
            pool.lend();
            let out = wait();
            // No waiting here: see the module doc.
            let mut state = pool.state.lock();
            state.parked -= 1;
            state.running += 1;
            drop(state);
            out
        }
        None => wait(),
    })
}

impl Workers {
    fn new(
        slots: usize,
        queue_depth: usize,
        counters: Arc<NetCounters>,
        run: Box<dyn Fn(Job) + Send + Sync>,
    ) -> Arc<Workers> {
        Arc::new(Workers {
            state: Mutex::new(State::default()),
            slots: slots.max(1),
            queue_depth: queue_depth.max(1),
            counters,
            run,
        })
    }

    /// A pool of `slots` threads running `run` on each submitted job.
    pub(crate) fn start(
        slots: usize,
        queue_depth: usize,
        counters: Arc<NetCounters>,
        run: Box<dyn Fn(Job) + Send + Sync>,
    ) -> Result<Arc<Workers>> {
        let pool = Workers::new(slots, queue_depth, counters, run);
        let mut state = pool.state.lock();
        for _ in 0..pool.slots {
            pool.spawn(&mut state)?;
        }
        drop(state);
        Ok(pool)
    }

    /// Queues `job`, or drops it — after letting go of the lock — and
    /// returns false when `queue_depth` jobs already wait.
    #[must_use]
    pub(crate) fn submit(self: &Arc<Self>, job: Job) -> bool {
        let mut state = self.state.lock();
        if state.queue.len() >= self.queue_depth {
            return false;
        }
        state.queue.push_back(job);
        self.kick(state);
        true
    }

    /// No more jobs will come: threads finish what is queued and exit.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        Self::wake_all(state);
    }

    /// Wakes every idle thread to see that the pool closed.
    fn wake_all(mut state: MutexGuard<'_, State>) {
        let idle = std::mem::take(&mut state.idle);
        drop(state);
        idle.iter().for_each(Thread::unpark);
    }

    /// Joins every thread; call after [`Workers::close`].
    pub(crate) fn join(&self) {
        // A thread being joined may still start another (a queued job, a
        // parked thread), so look again until none is left.
        loop {
            let handles = std::mem::take(&mut self.state.lock().handles);
            if handles.is_empty() {
                return;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }

    /// Lets go of the lock and, if a queued job may start, gets a thread
    /// to it: the one that went idle last, else one already awake and on
    /// its way to the queue, else a new one below the cap. The thread that
    /// takes a job kicks again, so a thread that two jobs counted on is
    /// made good.
    fn kick(self: &Arc<Self>, mut state: MutexGuard<'_, State>) {
        if state.queue.is_empty() || state.running >= self.slots {
            return;
        }
        if let Some(thread) = state.idle.pop() {
            drop(state);
            thread.unpark();
            return;
        }
        let in_a_job = state.running + state.parked;
        if state.threads == in_a_job && state.threads < self.slots * (1 + PARKED_PER_WORKER) {
            // Failing to start a thread leaves the job to the ones alive.
            let _ = self.spawn(&mut state);
        }
    }

    fn spawn(self: &Arc<Self>, state: &mut MutexGuard<'_, State>) -> Result<()> {
        let (retired, live) = std::mem::take(&mut state.handles)
            .into_iter()
            .partition(JoinHandle::is_finished);
        state.handles = live;
        for handle in retired {
            let _ = handle.join();
        }
        let pool = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("hermes-worker-{}", state.threads))
            .spawn(move || pool.work_loop())
            .map_err(io_err)?;
        state.handles.push(handle);
        state.threads += 1;
        self.counters
            .worker_threads_peak
            .fetch_max(state.threads as u64, Ordering::Relaxed);
        Ok(())
    }

    fn work_loop(self: Arc<Self>) {
        SLOT.with(|slot| *slot.borrow_mut() = Some(self.clone()));
        let me = std::thread::current();
        let mut lingered = false;
        let mut state = self.state.lock();
        loop {
            if state.running < self.slots {
                if let Some(job) = state.queue.pop_front() {
                    state.running += 1;
                    self.kick(state);
                    (self.run)(job);
                    lingered = false;
                    state = self.state.lock();
                    state.running -= 1;
                    continue;
                }
            }
            let drained = state.closed && state.queue.is_empty();
            if drained || (lingered && state.threads > self.slots) {
                state.threads -= 1;
                if drained {
                    // A thread that went idle while the last jobs ran.
                    Self::wake_all(state);
                }
                return;
            }
            state.idle.push(me.clone());
            drop(state);
            let since = Instant::now();
            std::thread::park_timeout(SPARE_LINGER);
            state = self.state.lock();
            // Still listed: nobody woke this thread, its time ran out (or
            // the park returned early, and then it goes back to waiting).
            let unclaimed = state.idle.iter().position(|t| t.id() == me.id());
            if let Some(at) = unclaimed {
                state.idle.remove(at);
            }
            lingered = unclaimed.is_some() && since.elapsed() >= SPARE_LINGER;
        }
    }

    /// Entering [`parked`]: gives the calling thread's run slot up.
    fn lend(self: &Arc<Self>) {
        self.counters.parked.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        state.running -= 1;
        state.parked += 1;
        self.kick(state);
    }
}

/// For the `pool_handoff_parked` micro-benchmark row: the time `iters`
/// entries into and exits from [`parked`] take on a thread that holds a
/// run slot, with nothing queued.
#[doc(hidden)]
pub fn parked_handoff_probe(iters: u32) -> Duration {
    let pool = Workers::new(1, 1, Arc::default(), Box::new(|_| {}));
    pool.state.lock().running = 1;
    SLOT.with(|slot| *slot.borrow_mut() = Some(pool));
    let start = Instant::now();
    for _ in 0..iters {
        parked(|| std::hint::black_box(()));
    }
    let elapsed = start.elapsed();
    SLOT.with(|slot| *slot.borrow_mut() = None);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Sender};

    fn job(seq: u64) -> Job {
        Job {
            token: 0,
            seq,
            work: Work::Frame(QueryFrame::new("?- q.")),
        }
    }

    #[test]
    fn parked_is_a_plain_call_off_the_worker_threads() {
        assert_eq!(parked(|| 7), 7);
        assert!(parked_handoff_probe(3) > Duration::ZERO);
    }

    #[test]
    fn a_parked_worker_lends_its_slot_up_to_the_thread_cap() {
        // One slot. Every job parks until released, so each queued job
        // needs a thread of its own: 1 + PARKED_PER_WORKER of them run,
        // the rest wait in the queue.
        let cap = 1 + PARKED_PER_WORKER;
        let counters: Arc<NetCounters> = Arc::default();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release, gate) = channel::<()>();
        let gate = Arc::new(std::sync::Mutex::new(gate));
        let (done, finished) = channel::<u64>();
        let done = std::sync::Mutex::new(done);
        let run = {
            let entered = entered.clone();
            move |job: Job| {
                parked(|| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    gate.lock().unwrap().recv().unwrap();
                });
                let done: Sender<u64> = done.lock().unwrap().clone();
                done.send(job.seq).unwrap();
            }
        };
        let pool = Workers::start(1, 2, counters.clone(), Box::new(run)).unwrap();
        for seq in 0..cap as u64 + 2 {
            assert!(pool.submit(job(seq)), "queue full");
            // Each of the first `cap` jobs reaches its wait on its own thread.
            let want = (seq as usize + 1).min(cap);
            while entered.load(Ordering::SeqCst) < want {
                std::thread::yield_now();
            }
        }
        assert!(!pool.submit(job(99)), "queue_depth 2 is full");
        let snap = counters.snapshot();
        assert_eq!(snap.worker_threads_peak, cap as u64);
        assert_eq!(snap.parked, cap as u64);

        for _ in 0..cap + 2 {
            release.send(()).unwrap();
        }
        let mut seqs: Vec<u64> = (0..cap + 2).map(|_| finished.recv().unwrap()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..cap as u64 + 2).collect::<Vec<_>>());
        pool.close();
        pool.join();
        let state = pool.state.lock();
        let counts = (state.threads, state.running, state.parked, state.idle.len());
        assert_eq!(counts, (0, 0, 0, 0));
        assert_eq!(counters.snapshot().worker_threads_peak, cap as u64);
    }

    #[test]
    fn jobs_one_at_a_time_stay_on_the_thread_that_went_idle_last() {
        // One slot; the first `cap` jobs park together, which starts every
        // thread the cap allows. The jobs after them come one at a time
        // and must not take turns through those threads.
        let cap = 1 + PARKED_PER_WORKER;
        let (release, gate) = channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        let (done, finished) = channel();
        let done = std::sync::Mutex::new(done);
        let entered = Arc::new(AtomicUsize::new(0));
        let run = {
            let entered = entered.clone();
            move |job: Job| {
                if job.seq < cap as u64 {
                    parked(|| {
                        entered.fetch_add(1, Ordering::SeqCst);
                        gate.lock().unwrap().recv().unwrap();
                    });
                }
                let done: Sender<_> = done.lock().unwrap().clone();
                done.send(std::thread::current().id()).unwrap();
            }
        };
        let pool = Workers::start(1, cap, Arc::default(), Box::new(run)).unwrap();
        let all_idle = || {
            while pool.state.lock().idle.len() < cap {
                std::thread::yield_now();
            }
        };
        for seq in 0..cap as u64 {
            assert!(pool.submit(job(seq)), "queue full");
        }
        while entered.load(Ordering::SeqCst) < cap {
            std::thread::yield_now();
        }
        for _ in 0..cap {
            release.send(()).unwrap();
        }
        let started: std::collections::HashSet<_> =
            (0..cap).map(|_| finished.recv().unwrap()).collect();
        assert_eq!(started.len(), cap, "one thread per parked job");
        let ran: Vec<_> = (0..10)
            .map(|seq| {
                all_idle();
                assert!(pool.submit(job(cap as u64 + seq)), "queue full");
                finished.recv().unwrap()
            })
            .collect();
        assert!(ran.iter().all(|id| *id == ran[0]), "{ran:?}");
        pool.close();
        pool.join();
    }

    #[test]
    fn jobs_that_never_park_start_no_thread_beyond_the_slots() {
        let counters: Arc<NetCounters> = Arc::default();
        let ran = Arc::new(AtomicUsize::new(0));
        let run = {
            let ran = ran.clone();
            move |_: Job| {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        };
        let pool = Workers::start(2, 64, counters.clone(), Box::new(run)).unwrap();
        for seq in 0..64 {
            while !pool.submit(job(seq)) {
                std::thread::yield_now();
            }
        }
        pool.close();
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 64);
        let snap = counters.snapshot();
        assert_eq!((snap.worker_threads_peak, snap.parked), (2, 0));
    }
}
