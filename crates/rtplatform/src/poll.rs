//! Thin readiness-polling wrapper over Linux `epoll`, for the
//! event-driven ORB transport (DESIGN.md §5h).
//!
//! The workspace is dependency-free by design, so instead of `libc` or
//! `mio` this module declares the four syscall wrappers it needs
//! directly against the C library the Rust standard library already
//! links. The surface is deliberately tiny and `mio`-shaped:
//!
//! * [`Poller`] — an epoll instance: register/modify/deregister file
//!   descriptors with a `u64` token and an [`Interest`], then
//!   [`Poller::wait`] for [`PollEvent`]s (level-triggered, so a handler
//!   that drains only part of a socket is re-notified). A
//!   [one-shot](Interest::oneshot) registration reports once and then
//!   stays silent until [`Poller::modify`] re-arms it, which lets several
//!   threads wait on one poller without two of them handling one fd;
//! * [`Waker`] — an `eventfd` registered with the poller, letting another
//!   thread interrupt a parked `wait` from outside the poll loop;
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE`'s soft limit to the
//!   hard limit, which multi-thousand-connection load benches need.
//!
//! Everything here is Linux-specific (the repo's CI and target
//! platform); the FFI is confined to this module the same way `unsafe`
//! is confined to `ring`.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

type CInt = i32;

/// `struct epoll_event`. On x86-64 the kernel ABI packs it (64-bit
/// alignment would pad `data` to offset 8; the kernel expects 4).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct rlimit` for `RLIMIT_NOFILE`.
#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: CInt = 1;
const EPOLL_CTL_DEL: CInt = 2;
const EPOLL_CTL_MOD: CInt = 3;
const EPOLL_CLOEXEC: CInt = 0x80000;

const EFD_CLOEXEC: CInt = 0x80000;
const EFD_NONBLOCK: CInt = 0x800;

const RLIMIT_NOFILE: CInt = 7;

extern "C" {
    fn epoll_create1(flags: CInt) -> CInt;
    fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
    fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
    fn eventfd(initval: u32, flags: CInt) -> CInt;
    fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
    fn close(fd: CInt) -> CInt;
    fn getrlimit(resource: CInt, rlim: *mut RLimit) -> CInt;
    fn setrlimit(resource: CInt, rlim: *const RLimit) -> CInt;
}

fn cvt(ret: CInt) -> io::Result<CInt> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness a registration asks for. Error/hang-up conditions are
/// always reported regardless of interest (epoll semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the fd is readable (or the peer half-closed).
    pub read: bool,
    /// Notify when the fd is writable.
    pub write: bool,
    /// Report once, then disarm until [`Poller::modify`] re-arms.
    pub oneshot: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
        oneshot: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
        oneshot: false,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
        oneshot: false,
    };

    /// The same interest, one-shot (`EPOLLONESHOT`): after one event is
    /// reported the fd is disarmed, so exactly one waiting thread sees
    /// it, until [`Poller::modify`] re-arms the registration.
    pub const fn oneshot(self) -> Interest {
        Interest {
            oneshot: true,
            ..self
        }
    }

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.oneshot {
            m |= EPOLLONESHOT;
        }
        if self.read {
            m |= EPOLLIN;
        }
        if self.write {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// The fd is in an error state, or the peer closed/half-closed; the
    /// owner should read to completion and drop the connection.
    pub closed: bool,
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates an epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure, if any.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: CInt, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any (e.g. the fd is already
    /// registered).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest (and/or token) of a registered fd; re-arms
    /// a disarmed one-shot registration, reporting at once if the fd is
    /// already ready.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Harmless to call for an fd that was never
    /// registered (the error is swallowed — deregistration is a cleanup
    /// path).
    pub fn deregister(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` outlives the call (pre-2.6.9 kernels dereference
        // the pointer even for DEL).
        let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = forever), appending at most `max` (clamped to
    /// 1..=256) events into `events` (cleared first). Returns the number
    /// of events delivered; `0` means the timeout elapsed. A
    /// signal-interrupted wait retries internally.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` failure, if any.
    pub fn wait(
        &self,
        events: &mut Vec<PollEvent>,
        max: usize,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: CInt = match timeout {
            None => -1,
            // Round up so a 100 µs deadline doesn't busy-spin at 0 ms.
            Some(d) => CInt::try_from(d.as_millis().max(1).min(i32::MAX as u128)).unwrap_or(-1),
        };
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let max = max.clamp(1, MAX_EVENTS);
        let n = loop {
            // SAFETY: `raw` is a valid buffer of MAX_EVENTS >= `max`
            // entries for the duration of the call.
            let rc = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), max as CInt, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before using.
            let bits = ev.events;
            let token = ev.data;
            events.push(PollEvent {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the fd we own.
        let _ = unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for a parked [`Poller::wait`]: an `eventfd`
/// registered (level-triggered) under a caller-chosen token.
/// [`Waker::wake`] is safe from any thread. Nothing drains it: once woken
/// the token stays ready, so every later `wait` — on every thread sharing
/// the poller — reports it. It is a one-way signal, such as shutdown.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd and registers it with `poller` under `token`.
    ///
    /// # Errors
    ///
    /// `eventfd` or registration failures.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        if let Err(e) = poller.register(fd, token, Interest::READ) {
            // SAFETY: closing the fd we just created.
            let _ = unsafe { close(fd) };
            return Err(e);
        }
        Ok(Waker { fd })
    }

    /// Wakes the poll loops. Cheap and coalescing: multiple wakes
    /// collapse into one ready token.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a stack value to an owned fd. An
        // EAGAIN (counter saturated) still leaves the fd readable, which
        // is all a wakeup needs.
        let _ = unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing the fd we own.
        let _ = unsafe { close(self.fd) };
    }
}

/// Raises the soft `RLIMIT_NOFILE` to the hard limit and returns the
/// resulting soft limit. Ten thousand sockets need ~20k descriptors in
/// a single-process client+server bench; default soft limits (1024) are
/// far below that.
///
/// # Errors
///
/// `getrlimit`/`setrlimit` failures.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` outlives both calls; the kernel fills/reads it.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur < lim.rlim_max {
        lim.rlim_cur = lim.rlim_max;
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
    }
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_write() {
        let (mut a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing yet: times out.
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        a.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        // Level-triggered: still readable until drained.
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 1];
        let mut c = &b;
        c.read_exact(&mut buf).unwrap();
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn peer_close_reports_closed() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, 256, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.closed));
    }

    #[test]
    fn modify_changes_interest() {
        let (_a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 2, Interest::READ).unwrap();
        // An idle socket with write interest is immediately writable.
        poller.modify(b.as_raw_fd(), 2, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, 256, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        poller.deregister(b.as_raw_fd());
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn oneshot_reports_once_until_rearmed() {
        let (mut a, b) = pair();
        let poller = Poller::new().unwrap();
        let fd = b.as_raw_fd();
        poller.register(fd, 3, Interest::READ.oneshot()).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].token == 3 && events[0].readable);
        // Disarmed: silent although the byte is still unread.
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0, "one-shot must not report again before re-arming");
        poller.modify(fd, 3, Interest::READ.oneshot()).unwrap();
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "re-arming a ready fd reports it again");
        assert!(events[0].token == 3 && events[0].readable);
    }

    #[test]
    fn wait_delivers_at_most_max_events() {
        let (mut a1, b1) = pair();
        let (mut a2, b2) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b1.as_raw_fd(), 1, Interest::READ).unwrap();
        poller.register(b2.as_raw_fd(), 2, Interest::READ).unwrap();
        a1.write_all(b"x").unwrap();
        a2.write_all(b"y").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        // Both become ready; a one-event wait still returns one.
        while poller
            .wait(&mut events, 256, Some(Duration::from_millis(10)))
            .unwrap()
            < 2
        {
            assert!(Instant::now() < deadline, "both fds must become ready");
        }
        let n = poller
            .wait(&mut events, 1, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn waker_interrupts_wait_and_coalesces() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::new(Waker::new(&poller, u64::MAX).unwrap());
        let w2 = Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // Multiple wakes collapse into one readiness report.
            w2.wake();
            w2.wake();
            w2.wake();
        });
        let mut events = Vec::new();
        let t = Instant::now();
        poller
            .wait(&mut events, 256, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "woken, not timed out");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, u64::MAX);
        h.join().unwrap();
        let n = poller
            .wait(&mut events, 256, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 1, "a woken waker keeps reporting");
    }

    #[test]
    fn nofile_limit_is_queryable_and_raisable() {
        let lim = raise_nofile_limit().unwrap();
        assert!(lim >= 256, "soft nofile limit unexpectedly tiny: {lim}");
        // Idempotent.
        assert_eq!(raise_nofile_limit().unwrap(), lim);
    }
}
