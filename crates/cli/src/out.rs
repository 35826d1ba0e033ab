//! Standard output that tolerates its reader going away.
//!
//! `println!` panics — message, backtrace, exit 101 — when stdout is a
//! pipe whose reader has exited (`dgrace analyze t.dgrt | head`). Every
//! line the commands print goes through `outln!` instead: after the
//! first broken-pipe error the rest of the output is dropped silently,
//! the command finishes what it was doing (files, checkpoints, socket
//! clean-up), and `main` turns a would-be success into
//! [`EXIT_BROKEN_PIPE`].

use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Exit status after a broken stdout pipe: 128 + `SIGPIPE`, what `$?`
/// holds for any other tool that dies writing to a closed pipe.
pub const EXIT_BROKEN_PIPE: u8 = 141;

static READER_GONE: AtomicBool = AtomicBool::new(false);

/// Whether a write to stdout has failed with a broken pipe.
pub fn reader_gone() -> bool {
    READER_GONE.load(Ordering::Relaxed)
}

/// Writes one line to stdout; the body of `outln!`.
pub fn line(args: std::fmt::Arguments<'_>) {
    if reader_gone() {
        return;
    }
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.write_all(b"\n")) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => READER_GONE.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `println!`, except that a closed stdout is not a panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::line(format_args!($($arg)*))
    };
}
