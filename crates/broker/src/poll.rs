//! `ppoll(2)` over a slice of descriptors: the workspace's one `unsafe` block
//! and its one foreign declaration (std links libc, so the symbol resolves
//! without a package). [`crate::transport::wait_readable`] is the only caller.

#![allow(unsafe_code)]

use std::os::unix::io::RawFd;
use std::time::Duration;

/// One source of a [`wait_readable`](crate::transport::wait_readable) call:
/// the descriptor a connection or listener reports through `readiness`, or
/// the lack of one. Laid out as a C `struct pollfd` whose `events` are always
/// `POLLIN`; the kernel skips a negative `fd`, which is how "none" is kept.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct Source {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

impl From<Option<RawFd>> for Source {
    fn from(fd: Option<RawFd>) -> Self {
        Source {
            fd: fd.unwrap_or(-1),
            events: POLLIN,
            revents: 0,
        }
    }
}

impl Source {
    pub(crate) fn has_descriptor(&self) -> bool {
        self.fd >= 0
    }
}

/// Blocks until a source is readable (or hung up, or in error: anything a
/// `recv` or `accept` would not answer with `WouldBlock`) or `timeout`
/// passes. `Some(true)` = one is, `Some(false)` = the timeout passed or a
/// signal interrupted the wait, `None` = the platform or the kernel refused
/// and the caller should sleep instead.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn wait(sources: &mut [Source], timeout: Duration) -> Option<bool> {
    /// `struct timespec` of 64-bit Linux: two C `long`s.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut Source, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    let timeout = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds`/`nfds` are the pointer and length of one live, exclusively
    // borrowed slice of `#[repr(C)]` values laid out as `struct pollfd`, of
    // which the kernel writes only `revents`; `timeout` points at a live
    // `struct timespec` it only reads; a null `sigmask` leaves the signal
    // mask alone. No descriptor is owned, closed or read through: one that is
    // stale or was never open is reported in `revents`, not dereferenced.
    let ready = unsafe {
        ppoll(
            sources.as_mut_ptr(),
            sources.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    match ready {
        0.. => Some(ready > 0),
        _ if std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted => {
            Some(false)
        }
        _ => None,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn wait(_: &mut [Source], _: Duration) -> Option<bool> {
    None
}
