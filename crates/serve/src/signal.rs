//! SIGTERM/SIGINT → drain wiring, hand-rolled as a self-pipe.
//!
//! The workspace has no `libc` crate, but `std` already links the C
//! library, so the symbols needed — `signal(2)`, `write(2)` and the
//! integer signal numbers — are declared here directly. The acceptor
//! parks in a blocking `accept(2)`, and glibc's `signal(2)` installs
//! handlers with `SA_RESTART`, so a signal does not interrupt it. The
//! handler therefore does two async-signal-safe things: it sets a
//! process-global atomic, and on the first request it writes one byte
//! to a pipe. A watcher thread blocks on the pipe's read end and calls
//! [`crate::ServerHandle::drain`] on every daemon inside
//! [`crate::Server::run`]; `drain` then wakes that daemon's acceptor.

use crate::ServerHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

/// Set once a termination signal has been observed.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Daemons currently inside `Server::run`: a termination request drains
/// them all.
static RUNNING: Mutex<Vec<ServerHandle>> = Mutex::new(Vec::new());

static INSTALL: Once = Once::new();

#[cfg(unix)]
mod unix {
    use std::sync::atomic::{AtomicI32, Ordering};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Write end of the self-pipe; `-1` until installed.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        // `sighandler_t signal(int signum, sighandler_t handler)`.
        fn signal(signum: i32, handler: usize) -> usize;
        // `ssize_t write(int fd, const void *buf, size_t count)`.
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_term(_signum: i32) {
        super::request_termination();
    }

    /// One byte to the watcher. Async-signal-safe: an atomic load and
    /// `write(2)`. Called once per request, so the pipe never fills and
    /// the write never fails (and never touches the interrupted code's
    /// `errno`).
    pub(super) fn wake_watcher() {
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: the buffer is a live one-byte array, and `fd` is the
            // pipe's write end, which `install` leaks so it is never closed.
            unsafe {
                write(fd, [1u8].as_ptr(), 1);
            }
        }
    }

    pub(super) fn install() {
        use std::os::fd::IntoRawFd;
        let (read, write) = match std::io::pipe() {
            Ok(pipe) => pipe,
            Err(e) => {
                eprintln!("bce-serve: no self-pipe, SIGTERM/SIGINT will not drain: {e}");
                return;
            }
        };
        // Detached on purpose: the watcher serves every daemon for the
        // life of the process.
        std::thread::Builder::new()
            .name("bce-serve-signal".into())
            .spawn(move || watch(read))
            .expect("cannot start the signal watcher thread");
        // The write end lives as long as the process.
        WAKE_FD.store(write.into_raw_fd(), Ordering::SeqCst);
        // SAFETY: `on_term` is an `extern "C" fn(i32)`, the handler type
        // `signal(2)` takes, and does only async-signal-safe work: an
        // atomic swap and `write(2)`.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }

    /// The watcher: one byte on the pipe means "drain every running
    /// daemon".
    fn watch(mut pipe: std::io::PipeReader) {
        use std::io::Read;
        let mut byte = [0u8; 1];
        loop {
            match pipe.read(&mut byte) {
                Ok(0) => return,
                Ok(_) => super::drain_running(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Install the SIGTERM/SIGINT handler and start the watcher thread
/// (idempotent). Off Unix only the in-process paths exist:
/// [`crate::ServerHandle::drain`] and [`set_termination_requested`].
pub fn install_termination_handler() {
    INSTALL.call_once(|| {
        #[cfg(unix)]
        unix::install();
    });
}

fn drain_running() {
    // Drain outside the lock: `drain` connects to each listener.
    let running = RUNNING.lock().expect("signal registry poisoned").clone();
    for handle in running {
        handle.drain();
    }
}

/// Set the flag; on the first request, wake the watcher.
fn request_termination() {
    if !TERM_REQUESTED.swap(true, Ordering::SeqCst) {
        #[cfg(unix)]
        unix::wake_watcher();
        #[cfg(not(unix))]
        drain_running();
    }
}

/// Has SIGTERM/SIGINT been received?
pub fn termination_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// Test hook: simulate (or clear) a received signal in-process. `true`
/// takes the signal handler's own path through the self-pipe.
pub fn set_termination_requested(v: bool) {
    if v {
        request_termination();
    } else {
        TERM_REQUESTED.store(false, Ordering::SeqCst);
    }
}

/// Keeps a daemon on the drain-on-termination list until dropped.
pub(crate) struct Registration(ServerHandle);

/// Put `handle` on the list a termination request drains. A request that
/// arrived before registration drains it at once.
pub(crate) fn drain_on_termination(handle: ServerHandle) -> Registration {
    let mut running = RUNNING.lock().expect("signal registry poisoned");
    // Checked under the lock: the watcher either sees this handle or the
    // flag was already set when it was pushed.
    if termination_requested() {
        handle.drain();
    }
    running.push(handle.clone());
    Registration(handle)
}

impl Drop for Registration {
    fn drop(&mut self) {
        if let Ok(mut running) = RUNNING.lock() {
            running.retain(|h| !h.same_server(&self.0));
        }
    }
}
