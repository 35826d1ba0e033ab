//! A reader that closes stdout early must not make `dgrace` panic.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use dgrace_trace::io::write_trace;
use dgrace_trace::{AccessSize, TraceBuilder};

/// A trace whose `analyze` output is far larger than a pipe buffer: 4000
/// separate words written by two threads with no lock held, so one
/// ~100-byte "unlocked shared range" warning line each.
fn noisy_trace() -> PathBuf {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for i in 0..4000u64 {
        b.write(0u32, 0x1000 + i * 16, AccessSize::U32);
        b.write(1u32, 0x1000 + i * 16, AccessSize::U32);
    }
    b.join(0u32, 1u32);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("broken_pipe.dgrt");
    let mut w = BufWriter::new(File::create(&path).expect("create trace"));
    write_trace(&b.build(), &mut w).expect("write trace");
    w.flush().expect("flush trace");
    path
}

#[test]
fn analyze_into_a_reader_that_closes_after_one_line() {
    let trace = noisy_trace();
    let dgrace = || {
        let mut c = Command::new(env!("CARGO_BIN_EXE_dgrace"));
        c.arg("analyze").arg(&trace);
        c
    };
    let full = dgrace().output().expect("run dgrace");
    assert!(full.status.success());
    assert!(
        full.stdout.len() > 4 * 64 * 1024,
        "output must overflow any pipe buffer, got {} bytes",
        full.stdout.len()
    );

    let mut child = dgrace()
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dgrace");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read one line");
    assert!(first.starts_with("analyzed"), "{first:?}");
    drop(stdout); // the reader goes away, as `| head -1` does

    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    let status = child.wait().expect("wait for dgrace");
    assert_eq!(
        stderr, "",
        "a closed stdout is not an error worth a message"
    );
    assert_eq!(status.code(), Some(141), "128 + SIGPIPE, by convention");
}
