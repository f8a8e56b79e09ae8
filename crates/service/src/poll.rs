//! The crate's one readiness binding: epoll and an eventfd waker, as raw
//! `extern "C"` declarations against the libc the binary already links
//! (no crate dependency, per the no-registry shims policy).
//! Level-triggered. The service reactor ([`crate::reactor`]) and each
//! ring node's I/O loop ([`crate::peer`]) run their own loops on it.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// `struct epoll_event`; packed on x86_64, where the kernel ABI elides
/// the padding other architectures keep. Read fields by copy: `events`
/// holds the readiness bits, `data` the fd's registration token.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    pub(crate) events: u32,
    pub(crate) data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Wraps a syscall's fd result, or its `errno`, as an owned fd.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by the kernel and nothing else
    // owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// An epoll instance. Closing a registered fd's last handle unregisters
/// it.
pub(crate) struct Poller(OwnedFd);

impl Poller {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: plain syscall with a constant flag.
        owned(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(Poller)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = Event {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live `epoll_event` for the call's duration;
        // the kernel validates both fds.
        if unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, reported under `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), events, token)
    }

    /// Changes the interest set of a registered `fd`.
    pub(crate) fn modify(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), events, token)
    }

    /// Waits until a registered fd is ready or `timeout` (rounded up to
    /// whole milliseconds; `None` waits indefinitely) passes, and
    /// returns how many leading entries of `events` were filled.
    pub(crate) fn wait(
        &self,
        events: &mut [Event],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let ms = timeout.map_or(-1, |t| {
            i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: the kernel writes at most `max` entries, all inside
        // `events`.
        let n = unsafe { epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), max, ms) };
        usize::try_from(n).map_err(|_| io::Error::last_os_error())
    }
}

/// A nonblocking eventfd: any thread's [`Waker::wake`] makes it
/// readable (so a [`Poller`] watching it returns) until the loop calls
/// [`Waker::clear`].
pub(crate) struct Waker(File);

impl Waker {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: plain syscall with constant flags.
        owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }).map(|fd| Waker(File::from(fd)))
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }

    pub(crate) fn clear(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.0).read(&mut buf);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}
