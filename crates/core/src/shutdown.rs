//! Std-only SIGINT/SIGTERM handling for graceful shutdown.
//!
//! Both the one-shot CLI (flush the cache log, print partial stats)
//! and the resident server (stop accepting, drain, flush) need to
//! observe Ctrl-C / SIGTERM without pulling in a signal-handling
//! crate. The mechanism is the minimal async-signal-safe one: a
//! process-wide atomic flag set by a `signal(2)`-installed handler.
//! The handler does nothing but store `true` — every other reaction
//! (draining, flushing, exiting 130) happens on ordinary threads that
//! poll [`requested`] or [`flag`].
//!
//! On non-Unix targets installation is a no-op: the flag exists and
//! can be set programmatically (tests do this), it just is not wired
//! to any OS signal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// The process-wide shutdown flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

static INSTALL: Once = Once::new();

/// `true` once SIGINT or SIGTERM has been received (or the flag was
/// set programmatically via [`flag`]).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// The raw flag, for wiring into
/// [`crate::pipeline::MineOptions::cancel`] or polling loops.
/// `'static` by construction, so no lifetime threads through the
/// pipeline types.
pub fn flag() -> &'static AtomicBool {
    &SHUTDOWN
}

/// Installs the SIGINT + SIGTERM handler (idempotent; later calls are
/// no-ops). Call early in `main`, before any worker threads exist.
pub fn install() {
    INSTALL.call_once(|| {
        imp::install();
    });
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // `signal(2)` from libc, which every Unix target links anyway.
    // Handlers are passed and returned as plain addresses, which is
    // all the std-only FFI needs: we never inspect the previous
    // handler.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // The only async-signal-safe thing worth doing: set the flag.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // Failure (SIG_ERR) is deliberately ignored: a process that
        // cannot install handlers degrades to default signal behavior,
        // which is the pre-existing state of the world.
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn flag_round_trips_and_install_is_idempotent() {
        install();
        install();
        assert!(!requested(), "fresh process has no pending shutdown");
        flag().store(true, Ordering::SeqCst);
        assert!(requested());
        flag().store(false, Ordering::SeqCst);
        assert!(!requested());
    }
}
