//! Soak tests for `dgrace serve`, both `#[ignore]`d: the soak streams
//! 6.4 M events, about a second in release and far longer in debug.
//!
//! ```text
//! cargo test --release -p dgrace-cli --test soak -- --ignored
//! ```
//!
//! * **Soak** (in-process server): 200 sessions stream the same workload
//!   trace concurrently. Most flood; every tenth stalls between round
//!   trips; every tenth disconnects after half the trace without
//!   `FINISH`. Each finisher's report must equal a solo single-client
//!   run, and the server's counters must account for every event the
//!   schedule sent, with nothing lost and nothing shed.
//! * **Kill/resume** (the real binary): sessions stream half their
//!   events into `dgrace serve` with checkpointing on, the process is
//!   SIGKILLed, a new one is started with `--resume`, and each client
//!   reconnects, streams the suffix from the announced offset, and must
//!   receive its solo run's report.
//!
//! The admission ladder (full → sampled → shed) is a row of
//! `crates/server/tests/serve.rs::overload_degrades_then_sheds`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgrace_core::DynamicGranularityOn;
use dgrace_detectors::Report;
use dgrace_runtime::IngestSession;
use dgrace_server::proto::report_json;
use dgrace_server::{Client, ClientError, Server, ServerConfig};
use dgrace_shadow::HashSelect;
use dgrace_trace::Trace;
use dgrace_workloads::{Workload, WorkloadKind};

/// Detector each session requests; [`solo_report`] builds the same
/// prototype the server's `dynamic` name maps to.
const DETECTOR: &str = "dynamic";

/// Events per round trip: one `send_events` + `await_credits` cycle,
/// inside the default 4096-event credit window.
const ROUND_TRIP_EVENTS: usize = 1024;

/// `pbzip2` is byte-heavy: the most shadow work per event, so the most
/// server-side pressure per client.
fn workload_trace() -> Trace {
    Workload::new(WorkloadKind::Pbzip2)
        .with_scale(0.05)
        .with_seed(7)
        .generate()
        .0
}

/// The single-client reference report for `trace` under `dynamic`.
fn solo_report(trace: &Trace) -> Report {
    let proto = DynamicGranularityOn::<HashSelect>::new();
    let mut sess = IngestSession::new(&proto, 1, None);
    sess.feed_all(&trace.events);
    sess.finalize()
}

/// A fresh scratch directory. Under the system temp dir rather than the
/// target dir: a Unix socket path must fit in 108 bytes.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgrace-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Connects with retries: a 200-client herd can transiently overflow
/// the listen backlog, which is load, not failure.
fn connect_retry(socket: &Path, session: &str) -> Result<Client, ClientError> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(socket, session, DETECTOR) {
            Err(ClientError::Io(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return other,
        }
    }
}

/// What one soak client did, for exact server-side accounting.
enum Outcome {
    /// Finished cleanly; carries the server's report JSON.
    Finished(String),
    /// Disconnected without `FINISH` after exactly this many events.
    Dropped(u64),
}

/// One soak client: role 9 drops after half the trace, role 7 stalls
/// between round trips, every other role floods.
fn soak_client(socket: &Path, name: &str, trace: &Trace, role: usize) -> Outcome {
    let mut client = connect_retry(socket, name).expect("soak client connects");
    assert_eq!(client.start_offset(), 0, "{name}: fresh session");
    assert!(!client.degraded(), "{name}: soak server must not degrade");
    let send_upto = if role == 9 {
        trace.events.len() / 2
    } else {
        trace.events.len()
    };
    for chunk in trace.events[..send_upto].chunks(ROUND_TRIP_EVENTS) {
        client.send_events(chunk).expect("send");
        // Also the sync point that makes a dropper's count exact.
        client.await_credits().expect("credited");
        if role == 7 {
            // Well inside the idle timeout, long enough that the
            // session sits parked between frames.
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    if role == 9 {
        client.abandon();
        return Outcome::Dropped(send_upto as u64);
    }
    Outcome::Finished(client.finish().expect("finish").report_json)
}

#[test]
#[ignore = "release-only soak: cargo test --release -p dgrace-cli --test soak -- --ignored"]
fn two_hundred_clients_lose_nothing_and_match_solo() {
    const CLIENTS: usize = 200;
    let trace = Arc::new(workload_trace());
    let solo = solo_report(&trace);
    let dir = scratch("soak");
    let mut cfg = ServerConfig::new(dir.join("serve.sock"));
    // Headroom above the herd: admission control is not this test's
    // subject.
    cfg.max_sessions = CLIENTS + 16;
    cfg.degrade_sessions = CLIENTS + 16;
    cfg.degrade_sample = None;
    let socket = cfg.socket.clone();
    let server = Server::spawn(cfg).expect("spawn soak server");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let socket = socket.clone();
            let trace = Arc::clone(&trace);
            std::thread::spawn(move || {
                let name = format!("soak-{i:04}");
                let out = soak_client(&socket, &name, &trace, i % 10);
                (name, out)
            })
        })
        .collect();

    let (mut expected_events, mut finished, mut dropped) = (0u64, 0u64, 0u64);
    for w in workers {
        let (name, out) = w.join().expect("soak client thread");
        match out {
            Outcome::Finished(json) => {
                assert_eq!(
                    json,
                    report_json(&name, &solo, 0, false),
                    "{name}: report differs from solo run"
                );
                expected_events += trace.events.len() as u64;
                finished += 1;
            }
            Outcome::Dropped(n) => {
                expected_events += n;
                dropped += 1;
            }
        }
    }
    // Quarantines land when the server notices EOF; the graceful stop
    // joins every session thread, so the stats are final after it.
    let stats = server.stop().expect("stop soak server");
    assert_eq!((finished, dropped), (180, 20));
    assert_eq!(stats.finished, finished, "server finished count");
    assert_eq!(stats.quarantined, dropped, "droppers quarantine exactly");
    assert_eq!(stats.events, expected_events, "exact event accounting");
    assert_eq!(stats.events_lost, 0, "soak must lose nothing");
    assert_eq!(stats.shed, 0, "soak server never sheds");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `dgrace serve` process, SIGKILLed when dropped.
struct Serve(Child);

impl Serve {
    /// Spawns `dgrace serve` and waits for its socket to appear.
    fn spawn(socket: &Path, ckpt: &Path, resume: bool) -> Serve {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dgrace"));
        cmd.arg("serve")
            .arg(socket)
            .arg("--checkpoint-dir")
            .arg(ckpt)
            .arg("--checkpoint-every")
            .arg("2000")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let serve = Serve(cmd.spawn().expect("spawn dgrace serve"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "serve never bound its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
        serve
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
#[ignore = "release-only soak: cargo test --release -p dgrace-cli --test soak -- --ignored"]
fn sigkilled_server_resumes_every_session_to_its_solo_report() {
    const SESSIONS: usize = 8;
    let trace = workload_trace();
    let solo = solo_report(&trace);
    let dir = scratch("resume");
    let socket = dir.join("serve.sock");
    let ckpt = dir.join("ckpt");
    let half = trace.events.len() / 2;

    let serve = Serve::spawn(&socket, &ckpt, false);
    let clients: Vec<Client> = (0..SESSIONS)
        .map(|i| {
            let mut c = connect_retry(&socket, &format!("kr-{i}")).expect("client connects");
            c.send_events(&trace.events[..half]).expect("first half");
            // Everything sent is processed, so the last periodic
            // checkpoint covers a known prefix.
            c.await_credits().expect("first half credited");
            c
        })
        .collect();
    // SIGKILL: no destructors, no final checkpoints — durability comes
    // from the periodic manifests alone.
    drop(serve);
    for c in clients {
        c.abandon();
    }

    let _serve = Serve::spawn(&socket, &ckpt, true);
    for i in 0..SESSIONS {
        let name = format!("kr-{i}");
        let mut c = connect_retry(&socket, &name).expect("resumed client connects");
        let skip = c.start_offset();
        assert!(
            skip > 0 && skip <= half as u64,
            "{name}: resume offset {skip} outside the streamed prefix"
        );
        c.send_events(&trace.events[skip as usize..])
            .expect("suffix");
        let end = c.finish().expect("resumed session finishes");
        assert_eq!(
            end.report_json,
            report_json(&name, &solo, 0, false),
            "{name}: resumed report differs from solo run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
