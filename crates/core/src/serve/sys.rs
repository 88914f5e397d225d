//! Minimal hand-rolled Linux FFI for the epoll reactor.
//!
//! The workspace is zero-external-dep by policy, so the reactor cannot
//! pull in `libc`/`mio`. This module declares exactly the six syscall
//! wrappers the reactor needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `writev`, `fcntl` — against the C library
//! std already links, wraps them in RAII types ([`Epoll`], [`EventFd`]),
//! and keeps every `unsafe` block three lines long with the invariant
//! stated beside it. Everything here is `cfg(target_os = "linux")`; on
//! other platforms [`ServeMode::Auto`](super::ServeMode) resolves to the
//! worker-pool server and this module does not exist.

use hermes_common::{HermesError, Result};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

// ---------------------------------------------------------------- ABI

/// One epoll readiness record. On x86-64 the kernel ABI packs this
/// struct (no padding between `events` and `data`); other 64-bit
/// targets use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bitmask (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen token, echoed back verbatim.
    pub data: u64,
}

/// One `writev` span: base pointer + length.
#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *const c_void,
    len: usize,
}

/// Buffers one [`writev_bufs`] call hands the kernel, at most.
pub const MAX_IOV: usize = 64;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn os_err(what: &str) -> HermesError {
    HermesError::Io(format!("{what}: {}", std::io::Error::last_os_error()))
}

fn last_errno_would_block() -> bool {
    matches!(
        std::io::Error::last_os_error().kind(),
        std::io::ErrorKind::WouldBlock
    )
}

fn last_errno_interrupted() -> bool {
    std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
}

// -------------------------------------------------------------- epoll

/// An owned epoll instance; closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // checked before the fd is used.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(os_err("epoll_create1"));
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(os_err("epoll_ctl"));
        }
        Ok(())
    }

    /// Registers `fd` under `token` for `events`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arms `fd`'s interest set.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> Result<()> {
        // A dummy event survives pre-2.6.9 kernels' non-null requirement.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) and fills `events`.
    /// Returns how many entries are valid. EINTR reads as zero events.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> Result<usize> {
        // SAFETY: the buffer pointer and capacity describe `events`
        // exactly; the kernel writes at most `maxevents` entries.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            if last_errno_interrupted() {
                return Ok(0);
            }
            return Err(os_err("epoll_wait"));
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: the fd is owned and closed exactly once.
        unsafe { close(self.fd) };
    }
}

// ------------------------------------------------------------ eventfd

/// A nonblocking eventfd: worker threads `signal()` it to wake the
/// reactor out of `epoll_wait`; the reactor `drain()`s it on wakeup.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd.
    pub fn new() -> Result<EventFd> {
        // SAFETY: eventfd takes no pointers; negative return checked.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(os_err("eventfd"));
        }
        Ok(EventFd { fd })
    }

    /// The fd to register with epoll.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any epoll waiter. Infallible from
    /// the caller's view: the only failure mode of interest (counter
    /// saturation, EAGAIN) still leaves the fd readable, so the wakeup
    /// is already guaranteed.
    pub fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writing exactly 8 bytes from a live u64, as the
        // eventfd contract requires.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes all pending signals.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: reading exactly 8 bytes into a live u64; EFD_NONBLOCK
        // makes an empty counter return EAGAIN instead of blocking.
        unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: the fd is owned and closed exactly once.
        unsafe { close(self.fd) };
    }
}

// ----------------------------------------------------- fd operations

/// Switches `fd` into nonblocking mode (used for accepted sockets; the
/// std `set_nonblocking` would do, but going through one fcntl keeps
/// the raw-fd handling in this module).
pub fn set_nonblocking(fd: RawFd) -> Result<()> {
    // SAFETY: fcntl with F_GETFL/F_SETFL takes no pointers.
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(os_err("fcntl(F_GETFL)"));
    }
    // SAFETY: as above.
    let rc = unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) };
    if rc < 0 {
        return Err(os_err("fcntl(F_SETFL)"));
    }
    Ok(())
}

/// The result of one nonblocking vectored write.
pub enum WriteOutcome {
    /// `n` bytes left the socket buffer.
    Wrote(usize),
    /// The socket is full; re-arm `EPOLLOUT` and try later.
    WouldBlock,
    /// The peer is gone (EPIPE/ECONNRESET/...).
    Closed,
}

/// Writes as many of `bufs` (at most the first [`MAX_IOV`]) as the socket
/// accepts in one `writev` call. Each `(buf, offset)` pair is a pending
/// buffer and how much of it has already been sent. The iovecs live on
/// the stack: a flush allocates nothing.
pub fn writev_bufs<'a>(
    fd: RawFd,
    bufs: impl IntoIterator<Item = (&'a [u8], usize)>,
) -> WriteOutcome {
    let mut iovs = [IoVec {
        base: std::ptr::null(),
        len: 0,
    }; MAX_IOV];
    let mut n = 0;
    for ((buf, off), iov) in bufs.into_iter().zip(iovs.iter_mut()) {
        let rest = &buf[off..];
        *iov = IoVec {
            base: rest.as_ptr().cast(),
            len: rest.len(),
        };
        n += 1;
    }
    if n == 0 {
        return WriteOutcome::Wrote(0);
    }
    // SAFETY: the first `n` iovecs point into slices the caller borrows
    // for at least this call, and `n` is the count passed.
    let rc = unsafe { writev(fd, iovs.as_ptr(), n as c_int) };
    if rc >= 0 {
        WriteOutcome::Wrote(rc as usize)
    } else if last_errno_would_block() {
        WriteOutcome::WouldBlock
    } else if last_errno_interrupted() {
        WriteOutcome::Wrote(0)
    } else {
        WriteOutcome::Closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.signal();
        ev.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert!({ events[0].events } & EPOLLIN != 0);

        // Drained: level-triggered readiness goes away.
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_and_writev_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        set_nonblocking(server.as_raw_fd()).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 1).unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert!({ events[0].events } & EPOLLIN != 0);

        // Vectored write with a partially sent first buffer.
        let first = b"xxhello ";
        let second = b"world";
        match writev_bufs(server.as_raw_fd(), [(&first[..], 2), (&second[..], 0)]) {
            WriteOutcome::Wrote(n) => assert_eq!(n, 11),
            _ => panic!("writev failed"),
        }
        let mut got = [0u8; 11];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");

        ep.delete(server.as_raw_fd()).unwrap();
    }
}
