//! A thin, std-only readiness poller over Linux `epoll`, in the same
//! no-crates.io discipline as the rest of the workspace: the three epoll
//! calls (`epoll_create1`, `epoll_ctl`, `epoll_wait`) plus a self-wake
//! pipe, declared directly against the libc symbols `std` already links —
//! no `libc` crate, no async runtime.
//!
//! The serving tier uses this to park *idle* keep-alive sockets: a parked
//! connection costs one registered fd and a small buffer instead of a
//! blocked OS thread. The poller is deliberately minimal:
//!
//! - **level-triggered** `EPOLLIN | EPOLLRDHUP` only — the server reads
//!   with blocking sockets once a fd is readable, so edge-triggered
//!   re-arm bookkeeping (and its lost-wakeup hazards) never applies;
//! - registrations carry the fd itself as the event payload, so the
//!   caller maps readiness back to its own connection table without a
//!   second allocation;
//! - a [`Waker`] (one byte down a non-blocking pipe) lets other threads
//!   interrupt a blocked [`Poller::wait`] — the park channel and shutdown
//!   path both use it.
//!
//! ## Why not `SO_RCVTIMEO` parking?
//!
//! The previous tier parked each idle connection on a blocking read with a
//! receive timeout: simple, but one OS thread per open connection. A
//! thread costs a stack and a scheduler slot; an epoll registration costs
//! on the order of a hundred bytes of kernel state. At thousands of mostly-idle
//! keep-alive peers the difference is the capacity of the box.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::sync::Arc;
use std::time::Duration;

// The libc symbols std already links on Linux. Declared here instead of
// through the libc crate, mirroring the workspace's offline-shim
// discipline (see the serde/rayon/proptest shims).
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn recv(sockfd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
/// Peer shut down its write half — a parked keep-alive socket whose client
/// vanished must wake the poller (the read that follows sees EOF).
const EPOLLRDHUP: u32 = 0x2000;
/// `EPOLL_CLOEXEC` == `O_CLOEXEC` (octal 0o2000000 on Linux).
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const O_CLOEXEC: c_int = 0o2_000_000;
/// `O_NONBLOCK` on every Linux arch this workspace targets (x86-64,
/// aarch64, riscv64 — the historical exceptions are alpha/mips/sparc).
const O_NONBLOCK: c_int = 0o4_000;
const MSG_PEEK: c_int = 0x02;
const MSG_DONTWAIT: c_int = 0x40;

/// A non-blocking one-byte `MSG_PEEK` on a socket the poller reported
/// readable: `Ok(0)` is EOF (the peer hung up), `Ok(1)` means a byte is
/// readable, and `ErrorKind::WouldBlock` means the readiness evaporated
/// between the epoll report and this call — the caller re-parks instead
/// of risking a blocking read that would stall a worker for a full
/// socket timeout. Nothing is consumed; `EINTR` is retried internally.
///
/// # Errors
///
/// `WouldBlock` as above; other `recv` failures (`ECONNRESET`, ...) mean
/// the connection is dead.
pub fn peek_ready(fd: RawFd) -> io::Result<usize> {
    let mut byte = 0u8;
    loop {
        let n = unsafe {
            recv(
                fd,
                std::ptr::addr_of_mut!(byte).cast(),
                1,
                MSG_PEEK | MSG_DONTWAIT,
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// The kernel's `struct epoll_event`. On x86 the kernel declares it
/// packed (no padding between `events` and `data`); other architectures
/// use natural alignment. Getting this wrong corrupts the payload of
/// every second event, so the layout is arch-conditional exactly like the
/// kernel header.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// The write end of the poller's self-wake pipe, sharable across threads.
/// Closed when the last clone (including the [`Poller`]'s own) drops.
#[derive(Debug)]
struct WakeFd(RawFd);

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.0) };
    }
}

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from another thread.
/// Cheap to clone (an `Arc` around one fd); waking an already-woken
/// poller is harmless, and a full pipe (the poller is far behind) is
/// treated as "a wake is already pending" rather than an error.
#[derive(Debug, Clone)]
pub struct Waker {
    fd: Arc<WakeFd>,
}

impl Waker {
    /// Interrupts the poller's current (or next) wait.
    pub fn wake(&self) {
        let byte = 1u8;
        // EAGAIN (pipe full) means wakes are already pending — mission
        // accomplished either way, so the result is deliberately ignored.
        unsafe { write(self.fd.0, std::ptr::addr_of!(byte).cast(), 1) };
    }
}

/// How many events one `epoll_wait` call collects. Level-triggered
/// registrations re-report on the next call, so a burst beyond the batch
/// is delayed one loop iteration, never lost.
const WAIT_BATCH: usize = 64;

/// A readiness poller: register fds with [`add`](Poller::add), harvest
/// readable ones with [`wait`](Poller::wait), deregister with
/// [`del`](Poller::del). One `Poller` belongs to one polling thread;
/// [`Waker`]s are the cross-thread surface.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    wake_read: RawFd,
    wake_write: Arc<WakeFd>,
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.wake_read);
            close(self.epfd);
        }
    }
}

impl Poller {
    /// Creates the epoll instance and its self-wake pipe (both
    /// close-on-exec; the pipe non-blocking on both ends).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1`/`pipe2` failures (fd exhaustion, or a
    /// kernel too old to know epoll — nothing this workspace targets).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let mut pipe_fds = [0 as c_int; 2];
        if let Err(e) = cvt(unsafe { pipe2(pipe_fds.as_mut_ptr(), O_CLOEXEC | O_NONBLOCK) }) {
            unsafe { close(epfd) };
            return Err(e);
        }
        let poller = Poller {
            epfd,
            wake_read: pipe_fds[0],
            wake_write: Arc::new(WakeFd(pipe_fds[1])),
        };
        poller.register(poller.wake_read)?;
        Ok(poller)
    }

    /// A handle other threads use to interrupt [`wait`](Poller::wait).
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            fd: Arc::clone(&self.wake_write),
        }
    }

    fn register(&self, fd: RawFd) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP,
            data: fd as u64,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut event) }).map(|_| ())
    }

    /// Starts watching `fd` for readability (level-triggered, including
    /// peer hang-up). The fd itself is the event payload.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (`EEXIST` for double registration,
    /// `ENOSPC` at the `max_user_watches` sysctl, ...). The caller treats
    /// a failed park as a connection to close, not a crash.
    pub fn add(&self, fd: RawFd) -> io::Result<()> {
        self.register(fd)
    }

    /// Stops watching `fd`. Always deregister *before* handing the fd's
    /// owner to another thread: a close on a still-registered fd would
    /// silently drop the registration at an arbitrary later point.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (`ENOENT` if never registered).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // A dummy event for portability: kernels before 2.6.9 faulted on
        // NULL even for DEL, and the struct costs nothing.
        let mut event = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) }).map(|_| ())
    }

    /// Blocks until at least one registered fd is readable, the timeout
    /// elapses, or a [`Waker`] fires. Readable fds are appended to
    /// `ready` (cleared first; the wake pipe is drained internally and
    /// never reported). Returns `true` when a waker fired.
    ///
    /// `None` blocks indefinitely; `Some(d)` rounds up to the next
    /// millisecond so a sub-millisecond remainder cannot busy-spin.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures. `EINTR` is retried internally.
    pub fn wait(&self, ready: &mut Vec<RawFd>, timeout: Option<Duration>) -> io::Result<bool> {
        ready.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
        };
        let mut events = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        let n = loop {
            let ret = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    WAIT_BATCH as c_int,
                    timeout_ms,
                )
            };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let mut woken = false;
        for event in &events[..n] {
            // Copy out of the (possibly packed) struct before use.
            let fd = { event.data } as RawFd;
            if fd == self.wake_read {
                woken = true;
                self.drain_wake_pipe();
            } else {
                ready.push(fd);
            }
        }
        Ok(woken)
    }

    /// Empties the self-wake pipe so a burst of wakes collapses into one
    /// reported wakeup instead of re-triggering the level-triggered fd.
    fn drain_wake_pipe(&self) {
        let mut buf = [0u8; 256];
        loop {
            let n = unsafe { read(self.wake_read, buf.as_mut_ptr().cast(), buf.len()) };
            if n < buf.len() as isize {
                break; // drained (or EAGAIN on the non-blocking read end)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A connected (client, server-side) socket pair on localhost.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_fd_is_reported_and_quiet_fd_is_not() {
        let poller = Poller::new().unwrap();
        let (mut client, server) = socket_pair();
        let (_quiet_client, quiet_server) = socket_pair();
        poller.add(server.as_raw_fd()).unwrap();
        poller.add(quiet_server.as_raw_fd()).unwrap();

        let mut ready = Vec::new();
        // Nothing sent yet: the wait times out empty.
        let woken = poller
            .wait(&mut ready, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!woken);
        assert!(ready.is_empty(), "{ready:?}");

        client.write_all(b"x").unwrap();
        let woken = poller
            .wait(&mut ready, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(!woken);
        assert_eq!(ready, vec![server.as_raw_fd()], "only the fed socket");

        // Level-triggered: unread bytes re-report on the next wait.
        let _ = poller.wait(&mut ready, Some(Duration::from_millis(20)));
        assert_eq!(ready, vec![server.as_raw_fd()]);
    }

    #[test]
    fn peer_close_wakes_a_parked_fd() {
        let poller = Poller::new().unwrap();
        let (client, server) = socket_pair();
        poller.add(server.as_raw_fd()).unwrap();
        drop(client);
        let mut ready = Vec::new();
        poller
            .wait(&mut ready, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(ready, vec![server.as_raw_fd()], "EOF must be readable");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_once_per_burst() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut ready = Vec::new();
        let woken = poller
            .wait(&mut ready, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(woken, "a wake from another thread must interrupt the wait");
        assert!(ready.is_empty());
        handle.join().unwrap();
        // A burst of wakes written before the next wait collapses into one
        // wakeup, not an echo: all of it is pending before the wait starts,
        // so the drain cannot land mid-burst.
        for _ in 0..10 {
            waker.wake();
        }
        let woken = poller
            .wait(&mut ready, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(woken, "the burst must report");
        // The pipe was drained: the next wait times out quietly.
        let woken = poller
            .wait(&mut ready, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!woken, "a drained wake pipe must not re-report");
    }

    #[test]
    fn peek_ready_reports_data_eof_and_quiet_without_consuming() {
        let (mut client, server) = socket_pair();
        let fd = server.as_raw_fd();
        // Quiet socket: WouldBlock, not a stall.
        let quiet = peek_ready(fd).expect_err("no data must not block");
        assert_eq!(quiet.kind(), io::ErrorKind::WouldBlock);
        client.write_all(b"xy").unwrap();
        // Give the loopback a moment to deliver.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(peek_ready(fd).unwrap(), 1);
        // Peeking consumed nothing: it reports again, and a real read
        // still sees both bytes.
        assert_eq!(peek_ready(fd).unwrap(), 1);
        let mut buf = [0u8; 4];
        let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
        assert_eq!(n, 2);
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(peek_ready(fd).unwrap(), 0, "EOF peeks as zero");
    }

    #[test]
    fn del_stops_reports_for_a_readable_fd() {
        let poller = Poller::new().unwrap();
        let (mut client, server) = socket_pair();
        poller.add(server.as_raw_fd()).unwrap();
        client.write_all(b"x").unwrap();
        let mut ready = Vec::new();
        poller
            .wait(&mut ready, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(ready, vec![server.as_raw_fd()]);
        poller.del(server.as_raw_fd()).unwrap();
        let woken = poller
            .wait(&mut ready, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!woken);
        assert!(ready.is_empty(), "deregistered fds stay silent: {ready:?}");
        // Double-del surfaces as ENOENT, not a panic.
        assert!(poller.del(server.as_raw_fd()).is_err());
    }
}
