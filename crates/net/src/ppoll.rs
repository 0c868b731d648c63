//! `ppoll(2)`: wait until one of several sockets is readable.
//!
//! std offers blocking sockets and non-blocking sockets but no way to
//! wait on more than one, the vendored crates are stubs, and nothing can
//! be downloaded — so the one readiness call [`crate::tcp::TcpMailbox`]
//! needs is declared here, behind a safe wrapper, and this file holds
//! the crate's only foreign call. `ppoll` rather than `poll` because
//! its timeout is a nanosecond `timespec`: the site loop sleeps exactly
//! until its next timer deadline, and `poll`'s whole milliseconds would
//! round a sub-millisecond remainder to 0 (a spin) or up (a late timer).
//!
//! Linux and the BSDs only — what CI, the benchmark and `miniraid-site`
//! run on. Other targets fail to compile rather than getting a second
//! implementation nobody runs.

use std::ffi::{c_int, c_short, c_void};
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(all(
    target_pointer_width = "64",
    any(
        target_os = "linux",
        target_os = "android",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
        target_os = "dragonfly"
    )
)))]
compile_error!("miniraid-net's TCP mailbox declares ppoll(2) for 64-bit Linux and the BSDs only");

/// `nfds_t`.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

/// `POLLIN`, the same value on every target admitted above.
const POLLIN: c_short = 0x001;

/// `struct pollfd`: one descriptor to wait on and what the kernel
/// reported for it.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait for `fd` to become readable (data, a pending connection,
    /// EOF or an error — whatever makes the next `read` / `accept`
    /// return at once).
    pub(crate) fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this descriptor
    /// (`POLLHUP` / `POLLERR` included: the `read` that follows learns
    /// which).
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// `struct timespec` where `time_t` and `long` are both 64 bits (every
/// target admitted above).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: Nfds,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Block until a descriptor in `fds` is ready or `timeout` has passed;
/// returns how many are ready, their `revents` filled in. An interrupted
/// or failed call reports nothing ready: the caller's loop re-checks its
/// deadline and waits again.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
    let timeout = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `repr(C)` values laid out as `struct pollfd`, and its length is
    // what is passed as `nfds`, so the kernel reads and writes only
    // inside it; `timeout` is a live `repr(C)` `struct timespec` that is
    // only read; a null `sigmask` is documented as "leave the signal
    // mask alone". The descriptors themselves need not be valid: the
    // kernel answers `POLLNVAL` for one that is not.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as Nfds,
            &timeout,
            std::ptr::null(),
        )
    };
    usize::try_from(ready).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn times_out_in_microseconds_and_reports_a_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::readable(listener.as_raw_fd())];

        let start = Instant::now();
        assert_eq!(wait(&mut fds, Duration::from_micros(200)), 0);
        let waited = start.elapsed();
        assert!(waited >= Duration::from_micros(200), "{waited:?}");
        assert!(!fds[0].is_ready());

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(wait(&mut fds, Duration::from_secs(2)), 1);
        assert!(fds[0].is_ready());

        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [
            PollFd::readable(listener.as_raw_fd()),
            PollFd::readable(server.as_raw_fd()),
        ];
        assert_eq!(wait(&mut fds, Duration::from_secs(2)), 1);
        assert!(!fds[0].is_ready() && fds[1].is_ready());
    }

    #[test]
    fn an_invalid_descriptor_is_reported_not_trusted() {
        let mut fds = [PollFd::readable(-1), PollFd::readable(1 << 20)];
        // A negative fd is ignored by the kernel; an unopened one reads
        // back POLLNVAL.
        assert_eq!(wait(&mut fds, Duration::ZERO), 1);
        assert!(!fds[0].is_ready() && fds[1].is_ready());
    }
}
