//! `dgrace detect` never holds its trace whole. It reads it once, in
//! every mode, and validates each block before the detector sees it.
//! Everything that can be wrong with the input is still reported as if
//! the whole file had been read before detection: same exit code, same
//! message, nothing on stdout, no checkpoint directory left behind.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use dgrace_analysis::analyze;
use dgrace_trace::io::{read_trace_with, summary_to_bytes, to_bytes};
use dgrace_trace::{
    seal_crc, AccessSize, ReadOptions, SnapshotWriter, Trace, TraceBuilder, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};

/// Two workers racing on one word, then a few thousand private writes
/// each (several decode blocks' worth of records).
fn racy_trace(words: u64) -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32).fork(0u32, 2u32);
    b.write(1u32, 0x100u64, AccessSize::U32);
    b.write(2u32, 0x100u64, AccessSize::U32);
    for i in 0..words {
        b.write(1u32, 0x10_000 + i * 8, AccessSize::U64);
        b.write(2u32, 0x80_000 + i * 8, AccessSize::U64);
    }
    b.join(0u32, 1u32).join(0u32, 2u32);
    b.build()
}

/// A scratch directory of this test's own.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("streaming-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(dir: &Path, name: &str, bytes: &[u8]) -> String {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write input");
    path.to_str().expect("utf-8 path").to_string()
}

fn dgrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgrace"))
        .args(args)
        .output()
        .expect("run dgrace")
}

/// `dgrace`, killed if it has not exited after `limit`.
fn dgrace_within(limit: Duration, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dgrace"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run dgrace");
    let start = Instant::now();
    while child.try_wait().expect("poll dgrace").is_none() {
        if start.elapsed() > limit {
            child.kill().expect("kill dgrace");
            panic!("dgrace {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect dgrace's output")
}

/// `dgrace` with `input` written to a pipe on its stdin.
fn dgrace_piped(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dgrace"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run dgrace");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_vec();
    // A child that rejects its input early closes the pipe under us.
    let feeder = std::thread::spawn(move || drop(stdin.write_all(&input)));
    let out = child.wait_with_output().expect("wait for dgrace");
    feeder.join().expect("feeder thread");
    out
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A rejected input: the exit code, one `dgrace:` line on stderr that
/// contains `message`, and not a byte of report.
#[track_caller]
fn assert_rejected(out: &Output, code: i32, message: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(code), "{err}");
    assert!(out.stdout.is_empty(), "a rejected input prints no report");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.starts_with("dgrace: "), "{err}");
    assert!(err.contains(message), "{err:?} lacks {message:?}");
}

/// Byte offset of record `n` of an encoded trace.
fn record_offset(bytes: &[u8], n: usize) -> usize {
    let mut at = 16;
    for _ in 0..n {
        at += match bytes[at] {
            0 | 1 => 14,
            6 | 7 => 21,
            _ => 9,
        };
    }
    at
}

#[test]
fn truncated_trace_is_a_decode_error_with_the_offset() {
    let dir = scratch("truncated");
    let bytes = to_bytes(&racy_trace(6000));
    let cut = bytes.len() - 5;
    let path = write(&dir, "t.dgrt", &bytes[..cut]);
    for extra in [&[][..], &["--json"], &["--shards", "2", "--pipeline"]] {
        let out = dgrace(&[&["detect", "dynamic", &path], extra].concat());
        assert_rejected(
            &out,
            4,
            &format!(
                "decode {path}: truncated stream at byte {cut}: 5 more byte(s) expected \
                 (hint: --resync skips damaged frames and keeps the decodable rest)"
            ),
        );
    }
}

#[test]
fn bad_tag_is_a_decode_error_even_after_an_invalid_event() {
    let dir = scratch("badtag");
    // Event 2 releases a lock nobody holds; record 9000 (in the second
    // decode block) has a corrupt tag. Decoding fails the run, as it did
    // when the whole file was decoded before it was validated.
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32).fork(0u32, 2u32).release(1u32, 9u32);
    let mut events = b.build().events;
    events.extend(racy_trace(6000).events.into_iter().skip(2));
    let mut bytes = to_bytes(&Trace::from_events(events));
    let at = record_offset(&bytes, 9000);
    bytes[at] = 0xEE;
    let path = write(&dir, "t.dgrt", &bytes);
    let out = dgrace(&["detect", "dynamic", &path]);
    assert_rejected(
        &out,
        4,
        &format!("decode {path}: corrupt stream at byte {at}: unknown event tag 238"),
    );
}

#[test]
fn invalid_schedule_is_rejected_before_any_side_effect() {
    let dir = scratch("invalid");
    let mut events = racy_trace(6000).events;
    let at = events.len() - 2;
    let mut tail = TraceBuilder::new();
    tail.release(1u32, 77u32);
    events.insert(at, tail.build().events[0]);
    let path = write(&dir, "t.dgrt", &to_bytes(&Trace::from_events(events)));
    let message =
        format!("{path}: invalid trace: event {at}: thread T1 releases L77 it does not hold");
    assert_rejected(&dgrace(&["detect", "dynamic", &path]), 5, &message);

    // Nothing of a checkpointed run has started either: the directory a
    // run creates up front does not exist.
    let ckpt = dir.join("ckpt");
    let out = dgrace(&[
        "detect",
        "dynamic",
        &path,
        "--json",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "100",
    ]);
    assert_rejected(&out, 5, &message);
    assert!(!ckpt.exists(), "rejected before the checkpoint dir is made");
}

#[test]
fn stale_summary_is_exit_8_by_count_and_by_fingerprint() {
    let dir = scratch("stale");
    let this = write(&dir, "this.dgrt", &to_bytes(&racy_trace(100)));
    let longer = write(&dir, "longer.dgrt", &to_bytes(&racy_trace(101)));
    // Same length, different content: only the fingerprint tells.
    let mut twin = racy_trace(100);
    twin.events.swap(2, 3);
    let twin = write(&dir, "twin.dgrt", &to_bytes(&twin));
    let summary_of = |trace: &str, name: &str| {
        let summary = dir.join(name).to_str().unwrap().to_string();
        let out = dgrace(&["analyze", trace, "-o", &summary]);
        assert!(out.status.success(), "{}", stderr(&out));
        summary
    };
    let own = summary_of(&this, "this.dgas");
    let by_count = summary_of(&longer, "longer.dgas");
    let by_print = summary_of(&twin, "twin.dgas");

    let out = dgrace(&["detect", "dynamic", &this, "--prune-with", &own, "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stale = |summary: &str| {
        let args = ["detect", "dynamic", &this, "--prune-with", summary];
        dgrace(&[&args[..], &["--shards", "2"]].concat())
    };
    assert_rejected(
        &stale(&by_count),
        8,
        &format!(
            "summary {by_count} was built from a 208-event trace, but this trace has 206 events"
        ),
    );
    assert_rejected(
        &stale(&by_print),
        8,
        &format!("summary {by_print} was built from a different trace (fingerprint 0x"),
    );

    // A pruned run's manifests are built with a prune set verified only
    // when the pass ends: a stale one leaves a checkpoint directory as it
    // found it.
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let out = dgrace(&[
        "detect",
        "dynamic",
        &this,
        "--checkpoint-dir",
        ckpt,
        "--checkpoint-every",
        "60",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let manifest = Path::new(ckpt).join("checkpoint.dgcp");
    let before = std::fs::read(&manifest).expect("a manifest at event 180");

    // A resumed run writes manifests at events 190 and 200 before the
    // pass ends; the summary of the twin is found stale only then.
    for stale in [&by_count, &by_print] {
        let args = ["--prune-with", stale, "--checkpoint-every", "10"];
        let run = |how: &str, dir: &str| {
            dgrace(&[&["detect", "dynamic", &this, how, dir], &args[..]].concat())
        };
        let out = run("--resume", ckpt);
        assert_eq!(out.status.code(), Some(8), "{stale}: {}", stderr(&out));
        assert!(out.stdout.is_empty());
        assert!(std::fs::read(&manifest).unwrap() == before, "{stale}");

        // An empty directory stays empty; one the run made, any number
        // of levels deep, is gone.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = run("--checkpoint-dir", empty.to_str().unwrap());
        assert_eq!(out.status.code(), Some(8), "{stale}: {}", stderr(&out));
        assert_eq!(std::fs::read_dir(&empty).unwrap().count(), 0, "{stale}");
        let deep = dir.join("new/a/b");
        let out = run("--checkpoint-dir", deep.to_str().unwrap());
        assert_eq!(out.status.code(), Some(8), "{stale}: {}", stderr(&out));
        assert!(!dir.join("new").exists(), "{stale}");
    }
}

#[test]
fn a_summary_of_an_older_format_version_is_a_decode_error() {
    // `data/pr18-v2.dgas` is what the last build with `DGAS` version 2
    // (affinity and heat sections) wrote for a fluidanimate trace. The
    // version is refused before the summary is compared with the trace,
    // so any trace will do.
    let dir = scratch("dgas-v2");
    let trace = write(&dir, "t.dgrt", &to_bytes(&racy_trace(100)));
    let summary = write(&dir, "v2.dgas", include_bytes!("data/pr18-v2.dgas"));
    for extra in [&[][..], &["--shards", "2", "--pipeline"]] {
        let args = [&["detect", "byte", &trace, "--prune-with", &summary], extra].concat();
        assert_rejected(
            &dgrace(&args),
            4,
            &format!("decode {summary}: unsupported format version 2"),
        );
    }
}

#[test]
fn a_checkpoint_of_an_older_format_version_is_a_decode_error() {
    // `data/dgcp-v2.dgcp` is what the last build with `DGCP` version 2
    // wrote, mid-run, for `racy_trace(100)` under `--memory-limit 262144
    // --sample loc:2`. It is intact (its CRC holds) and still refused.
    let dir = scratch("dgcp-v2");
    let trace = write(&dir, "t.dgrt", &to_bytes(&racy_trace(100)));
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).expect("checkpoint dir");
    write(
        &ckpt,
        "checkpoint.dgcp",
        include_bytes!("data/dgcp-v2.dgcp"),
    );
    let stack = ["--memory-limit", "262144", "--sample", "loc:2"];
    let resume = ["--resume", ckpt.to_str().unwrap()];
    let out = dgrace(&[&["detect", "dynamic", &trace][..], &stack, &resume].concat());
    assert_rejected(&out, 4, "unsupported format version 2");
}

#[test]
fn a_checkpoint_holding_an_older_state_version_is_a_decode_error() {
    // `data/dgss-v3.dgcp` is what the last build with `DGSS` version 3
    // (per-thread same-epoch bitmaps in the happens-before state) wrote,
    // mid-run, for `racy_trace(100)` under `--checkpoint-every 60`. The
    // manifest's own version is current; the detector state inside it is
    // refused.
    let dir = scratch("dgss-v3");
    let trace = write(&dir, "t.dgrt", &to_bytes(&racy_trace(100)));
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).expect("checkpoint dir");
    write(
        &ckpt,
        "checkpoint.dgcp",
        include_bytes!("data/dgss-v3.dgcp"),
    );
    let out = dgrace(&[
        "detect",
        "dynamic",
        &trace,
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_rejected(&out, 4, "unsupported format version 3");
}

#[test]
fn a_checkpoint_of_the_paged_store_names_both_detectors() {
    // `data/shadow-paged.dgcp` is what the last build with `--shadow
    // paged` wrote, mid-run, for `racy_trace(100)` under `--shadow paged
    // --checkpoint-every 60`. Its shards' state is `dynamic+paged`, which
    // no detector of this build is.
    let dir = scratch("shadow-paged");
    let trace = write(&dir, "t.dgrt", &to_bytes(&racy_trace(100)));
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).expect("checkpoint dir");
    write(
        &ckpt,
        "checkpoint.dgcp",
        include_bytes!("data/shadow-paged.dgcp"),
    );
    let out = dgrace(&[
        "detect",
        "dynamic",
        &trace,
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_rejected(
        &out,
        5,
        "checkpoint was taken with detector 'dynamic+paged', this run uses 'dynamic'",
    );
}

#[test]
fn a_forged_count_in_a_sealed_manifest_is_a_decode_error_not_an_allocation() {
    // A well-formed, correctly sealed manifest of about 90 bytes that
    // claims 2^28 router ranges or 2^28 shards: sizing a buffer by either
    // count asks for gigabytes. Under an address-space cap that is an
    // abort; the count has to be refused against the bytes left instead.
    let dir = scratch("forged-count");
    let trace = write(&dir, "t.dgrt", &to_bytes(&racy_trace(100)));
    for (ranges, shards) in [(1u64 << 28, 0u64), (0, 1 << 28)] {
        let mut w = SnapshotWriter::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        w.str("dynamic");
        for word in [206, 100, 0, 0, 0, 0, ranges] {
            w.u64(word);
        }
        if ranges == 0 {
            w.u64(shards);
        }
        let mut bytes = w.finish();
        seal_crc(&mut bytes);
        let ckpt = dir.join(format!("ckpt-{ranges}-{shards}"));
        std::fs::create_dir_all(&ckpt).expect("checkpoint dir");
        write(&ckpt, "checkpoint.dgcp", &bytes);
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v 65536; exec {} detect dynamic {trace} --resume {}",
                env!("CARGO_BIN_EXE_dgrace"),
                ckpt.display()
            ))
            .output()
            .expect("run dgrace under a cap");
        assert_rejected(&out, 4, "corrupt checkpoint: truncated stream");
    }
}

#[test]
fn resync_reports_its_loss_and_detects_the_rest() {
    let dir = scratch("resync");
    let trace = racy_trace(6000);
    let bytes = to_bytes(&trace);
    let whole = write(&dir, "whole.dgrt", &bytes);
    let cut = write(&dir, "cut.dgrt", &bytes[..bytes.len() - 5]);
    let mut corrupt = bytes.clone();
    corrupt[record_offset(&bytes, 9000)] = 0xEE;
    let corrupt = write(&dir, "corrupt.dgrt", &corrupt);

    let clean = dgrace(&["detect", "dynamic", &whole, "--resync", "--json"]);
    assert_eq!(clean.status.code(), Some(0));
    assert_eq!(stderr(&clean), "", "nothing lost, nothing to warn about");
    let report = String::from_utf8_lossy(&clean.stdout).into_owned();
    assert!(report.contains("\"races\""), "{report}");

    // The cut drops the last join; the recovered schedule is still valid.
    let out = dgrace(&["detect", "dynamic", &cut, "--resync", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        format!(
            "dgrace: warning: {cut}: resync dropped 1 event(s) / 4 corrupt byte(s); \
             races can only be missed, not invented\n"
        )
    );
    let lossy = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(lossy.contains("\"dropped_events\": 1"), "{lossy}");

    // What sliding over a corrupt record recovers is the decoder's
    // business (`decode_fuzz`); here, that both passes of both engines
    // recover the same thing and say so once.
    let serial = dgrace(&["detect", "dynamic", &corrupt, "--resync", "--json"]);
    let sharded = dgrace(&[
        "detect", "dynamic", &corrupt, "--resync", "--json", "--shards", "2",
    ]);
    assert_eq!(serial.status.code(), Some(0), "{}", stderr(&serial));
    let warning = format!("dgrace: warning: {corrupt}: resync dropped ");
    assert!(stderr(&serial).starts_with(&warning), "{}", stderr(&serial));
    assert_eq!(stderr(&serial).matches(&warning).count(), 1);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stderr(&sharded), stderr(&serial));
    let races = |out: &Output| {
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        let at = report.find("\"races\"").expect("a report with races");
        let end = report.find("\"stats\"").expect("a report with stats");
        report[at..end].to_string()
    };
    assert_eq!(races(&sharded), races(&serial));
    assert_eq!(races(&serial), races(&clean), "the racy pair survived");
}

#[test]
fn a_pipe_is_detected_like_the_file_it_carries() {
    // A pipe yields its bytes once, and once is all a run reads them.
    let dir = scratch("pipe");
    let bytes = to_bytes(&racy_trace(6000));
    let path = write(&dir, "t.dgrt", &bytes);
    for extra in [&["--json"][..], &["--json", "--shards", "2", "--pipeline"]] {
        let from_file = dgrace(&[&["detect", "dynamic", &path], extra].concat());
        assert_eq!(from_file.status.code(), Some(0), "{}", stderr(&from_file));
        let piped = dgrace_piped(
            &[&["detect", "dynamic", "/dev/stdin"], extra].concat(),
            &bytes,
        );
        assert_eq!(piped.status.code(), Some(0), "{}", stderr(&piped));
        assert_eq!(stderr(&piped), "");
        assert_eq!(piped.stdout, from_file.stdout);
    }

    // And what is wrong with it is wrong at the same byte.
    let cut = bytes.len() - 5;
    let out = dgrace_piped(&["detect", "dynamic", "/dev/stdin"], &bytes[..cut]);
    assert_rejected(
        &out,
        4,
        &format!("decode /dev/stdin: truncated stream at byte {cut}: 5 more byte(s) expected"),
    );
}

#[test]
fn an_alloc_at_the_last_address_routes_like_any_other() {
    // `Alloc { addr: u64::MAX, size: 0 }` decodes (`addr + size` does not
    // wrap); the validator objects to its size, which `--resync` turns
    // into a warning. The shard router registers the object's one-byte
    // range, which must end at the top of the address space, not wrap
    // past it: both transports give the serial report.
    let top = u64::MAX;
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .alloc(0u32, 0x1000u64, 64)
        .alloc(0u32, top, 0)
        .write(0u32, 0x1000u64, AccessSize::U64)
        .write(1u32, 0x1000u64, AccessSize::U64)
        .write(0u32, top, AccessSize::U8)
        .write(1u32, top, AccessSize::U8)
        .join(0u32, 1u32);
    let dir = scratch("top-alloc");
    let path = write(&dir, "t.dgrt", &to_bytes(&b.build()));
    // `peak_total_bytes` is a sum of per-shard peaks; nothing else moves.
    let report = |extra: &[&str]| {
        let args = [&["detect", "dynamic", &path, "--resync", "--json"], extra].concat();
        let out = dgrace_within(Duration::from_secs(30), &args);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("zero-sized alloc/free"));
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        let (head, tail) = report
            .split_once("\"peak_total_bytes\": ")
            .expect("a report with its peak bytes");
        let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        format!("{head}{tail}")
    };
    let serial = report(&[]);
    assert!(serial.contains("\"race_count\": 2"), "{serial}");
    assert_eq!(report(&["--shards", "2"]), serial, "funnel");
    assert_eq!(report(&["--shards", "2", "--pipeline"]), serial, "rings");
}

#[test]
fn the_last_address_has_no_successor() {
    // Accesses at 0xffff_ffff_ffff_ffff: the first-epoch neighbor scan
    // (over an empty read plane, then over a write plane that holds a
    // word at 0x100), the second-epoch `L + size` probe and a free of the
    // last bytes a trace can name all reach the end of the address
    // space. Nothing lies 2^64 bytes "after" it: no endless scan for a
    // successor, and no sharing a clock with the word at 0x100.
    let top = u64::MAX;
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .read(0u32, top, AccessSize::U8)
        .write(0u32, 0x100u64, AccessSize::U32)
        .write(0u32, top, AccessSize::U8)
        .write(1u32, top, AccessSize::U8)
        .write(0u32, top - 3, AccessSize::U8)
        .free(0u32, top - 7, 7)
        .write(0u32, top - 1, AccessSize::U8)
        .join(0u32, 1u32);
    let dir = scratch("top");
    let path = write(&dir, "t.dgrt", &to_bytes(&b.build()));
    let out = dgrace_within(
        Duration::from_secs(30),
        &["detect", "dynamic", &path, "--json"],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(report.contains("\"race_count\": 1"), "{report}");
    let untainted = "{\"addr\": \"0xffffffffffffffff\", \"kind\": \"write-write\", \
                     \"current\": {\"tid\": 1, \"clock\": 1}, \"previous\": {\"tid\": 0, \"clock\": 2}, \
                     \"share_count\": 1, \"tainted\": false}";
    assert!(report.contains(untainted), "{report}");
}

/// The ways a run can meet its input, each as the arguments it adds:
/// the serial path in text and in JSON, the engine on the ring
/// transport, a checkpointed run into a directory under `dir` that does
/// not exist yet, and a run pruned with `summary`.
fn one_pass_modes(dir: &Path, summary: &str) -> Vec<Vec<String>> {
    let ckpt = dir.join("one-pass-ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 path");
    let modes: [&[&str]; 5] = [
        &[],
        &["--json"],
        &["--shards", "2", "--pipeline"],
        &["--checkpoint-dir", ckpt, "--checkpoint-every", "100"],
        &["--prune-with", summary],
    ];
    let owned = |mode: &[&str]| mode.iter().map(|a| a.to_string()).collect();
    modes.into_iter().map(owned).collect()
}

/// The checkpoint directory a mode names, if it names one.
fn checkpoint_dir<'a>(mode: &[&'a str]) -> Option<&'a str> {
    let at = mode.iter().position(|&a| a == "--checkpoint-dir")?;
    mode.get(at + 1).copied()
}

/// The `.dgas` summary of the events `bytes` decode to (under resync,
/// those that survive), written to `dir`: a summary a run over `bytes`
/// finds fresh.
fn own_summary(dir: &Path, bytes: &[u8]) -> String {
    let resync = ReadOptions {
        resync: true,
        ..ReadOptions::default()
    };
    let (trace, _) = read_trace_with(&mut &bytes[..], resync).expect("decodes under resync");
    write(dir, "own.dgas", &summary_to_bytes(&analyze(&trace)))
}

/// `racy_trace(6000)` with a release of a lock nobody holds inserted as
/// event `at`.
fn with_invalid_event_at(at: usize) -> Vec<u8> {
    let mut events = racy_trace(6000).events;
    let mut tail = TraceBuilder::new();
    tail.release(1u32, 77u32);
    events.insert(at, tail.build().events[0]);
    to_bytes(&Trace::from_events(events))
}

#[test]
fn a_decode_error_after_an_invalid_event_wins_in_every_one_pass_mode() {
    // The invalid event is in the first decode block, the bad tag in
    // the second: the run stops detecting at the first, and keeps
    // decoding to reach the second.
    let dir = scratch("one-pass-badtag");
    let mut bytes = with_invalid_event_at(3);
    let at = record_offset(&bytes, 9000);
    bytes[at] = 0xEE;
    let path = write(&dir, "t.dgrt", &bytes);
    for mode in one_pass_modes(&dir, &own_summary(&dir, &bytes)) {
        let extra: Vec<&str> = mode.iter().map(String::as_str).collect();
        let extra = &extra[..];
        let out = dgrace(&[&["detect", "dynamic", &path], extra].concat());
        assert_rejected(
            &out,
            4,
            &format!(
                "decode {path}: corrupt stream at byte {at}: unknown event tag 238 \
                 (hint: --resync skips damaged frames and keeps the decodable rest)"
            ),
        );
        if let Some(ckpt) = checkpoint_dir(extra) {
            assert!(!Path::new(ckpt).exists(), "the run removed what it created");
        }
    }
}

#[test]
fn a_late_invalid_event_is_exit_5_with_nothing_printed_in_every_one_pass_mode() {
    let dir = scratch("one-pass-invalid");
    let at = 2 * 6000 + 2;
    let bytes = with_invalid_event_at(at);
    let path = write(&dir, "t.dgrt", &bytes);
    let message = format!(
        "dgrace: {path}: invalid trace: event {at}: thread T1 releases L77 it does not hold\n"
    );
    for mode in one_pass_modes(&dir, &own_summary(&dir, &bytes)) {
        let extra: Vec<&str> = mode.iter().map(String::as_str).collect();
        let extra = &extra[..];
        let out = dgrace(&[&["detect", "dynamic", &path], extra].concat());
        assert_eq!(out.status.code(), Some(5), "{extra:?}: {}", stderr(&out));
        assert_eq!(stderr(&out), message, "{extra:?}");
        assert!(
            out.stdout.is_empty(),
            "{extra:?}: a rejected input prints no report"
        );
        if let Some(ckpt) = checkpoint_dir(extra) {
            assert!(!Path::new(ckpt).exists(), "the run removed what it created");
        }
    }
}

#[test]
fn resync_warns_of_loss_and_of_an_invalid_schedule_in_every_one_pass_mode() {
    // A corrupt record and an invalid event: under --resync both are
    // warnings, and the run reports on what decoded, invalid event
    // included — as a run over a file holding just those events does.
    let dir = scratch("one-pass-resync");
    let mut bytes = with_invalid_event_at(5000);
    let at = record_offset(&bytes, 9000);
    bytes[at] = 0xEE;
    let path = write(&dir, "t.dgrt", &bytes);
    let resync = ReadOptions {
        resync: true,
        ..ReadOptions::default()
    };
    let (decoded, _) = read_trace_with(&mut &bytes[..], resync).expect("decodes under resync");
    let decoded = write(&dir, "decoded.dgrt", &to_bytes(&decoded));
    // Everything but the `time` line, which varies from run to run, and
    // the JSON's account of what decoding dropped, which marks the report
    // of the damaged file degraded.
    let report = |out: &Output| {
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        let lines = report.lines().filter(|l| !l.starts_with("time "));
        let decode = ["\"decode\":", "\"degraded\":"];
        let lines = lines.filter(|l| !decode.iter().any(|d| l.trim_start().starts_with(d)));
        lines.collect::<Vec<_>>().join("\n")
    };
    let summary = own_summary(&dir, &bytes);
    let references = one_pass_modes(&dir.join("reference"), &summary);
    for (mode, reference) in one_pass_modes(&dir, &summary).iter().zip(&references) {
        let extra: Vec<&str> = mode.iter().map(String::as_str).collect();
        let extra = &extra[..];
        let run = [&["detect", "dynamic", &path, "--resync"], extra].concat();
        let once = dgrace(&run);
        assert_eq!(once.status.code(), Some(0), "{extra:?}: {}", stderr(&once));
        let err = stderr(&once);
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{extra:?}: {err}");
        assert!(
            lines[0].starts_with(&format!("dgrace: warning: {path}: resync dropped ")),
            "{err}"
        );
        assert!(
            lines[1].starts_with(&format!(
                "dgrace: warning: {path}: recovered trace fails validation ("
            )),
            "{err}"
        );
        assert!(!once.stdout.is_empty(), "{extra:?}: a report");

        let reference: Vec<&str> = reference.iter().map(String::as_str).collect();
        let args = [&["detect", "dynamic", &decoded, "--resync"], &reference[..]].concat();
        let whole = dgrace(&args);
        assert_eq!(whole.status.code(), Some(0), "{}", stderr(&whole));
        assert_eq!(lines[1].replace(&path, &decoded), stderr(&whole).trim_end());
        assert_eq!(report(&once), report(&whole), "{extra:?}");
    }
}

#[test]
fn a_resume_against_another_trace_is_exit_5_and_a_pipe_resumes_like_the_file() {
    let dir = scratch("resume-other");
    let bytes = to_bytes(&racy_trace(100));
    let this = write(&dir, "this.dgrt", &bytes);
    let longer = write(&dir, "longer.dgrt", &to_bytes(&racy_trace(101)));
    // The run finishes; its last manifest, at event 180 of 206, stays.
    let written = dir.join("written");
    let out = dgrace(&[
        "detect",
        "dynamic",
        &this,
        "--checkpoint-dir",
        written.to_str().unwrap(),
        "--checkpoint-every",
        "60",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let manifest = std::fs::read(written.join("checkpoint.dgcp")).expect("a manifest");
    let copy = |name: &str| {
        let ckpt = dir.join(name);
        std::fs::create_dir_all(&ckpt).expect("checkpoint dir");
        write(&ckpt, "checkpoint.dgcp", &manifest);
        ckpt.to_str().unwrap().to_string()
    };

    let other = copy("other");
    let out = dgrace(&["detect", "dynamic", &longer, "--json", "--resume", &other]);
    assert_rejected(
        &out,
        5,
        "checkpoint covers a trace of 206 events, this trace has 208",
    );
    assert!(Path::new(&other).join("checkpoint.dgcp").exists());

    let resume = |input: &str, ckpt: &str| {
        let args = ["detect", "dynamic", input, "--json", "--resume", ckpt];
        let out = if input == "/dev/stdin" {
            dgrace_piped(&args, &bytes)
        } else {
            dgrace(&args)
        };
        assert_eq!(out.status.code(), Some(0), "{input}: {}", stderr(&out));
        assert_eq!(stderr(&out), "", "{input}");
        out.stdout
    };
    let from_file = resume(&this, &copy("from-file"));
    assert!(!from_file.is_empty());
    assert_eq!(resume("/dev/stdin", &copy("from-pipe")), from_file);
}
