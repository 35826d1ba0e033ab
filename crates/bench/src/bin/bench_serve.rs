//! Soak baseline for `dgrace serve`: hundreds of concurrent clients
//! with mixed connect/flood/stall/disconnect schedules against a live
//! server, written to `BENCH_serve.json` at the repo root in a stable
//! schema so successive runs (and CI artifacts) can be diffed.
//!
//! ```text
//! cargo run --release -p dgrace-bench --bin bench_serve \
//!     [-- --clients 200 --scale 0.05 --server-bin target/release/dgrace]
//! ```
//!
//! Three phases, each against a fresh server:
//!
//! 1. **Soak** (in-process): `--clients` sessions stream the same
//!    workload trace concurrently. Most flood; every tenth stalls
//!    between batches; every tenth disconnects mid-stream without
//!    `FINISH`. Each finisher's report must be byte-identical to a
//!    solo single-client run, the server's event counter must equal
//!    the exact number of events the schedule sent, and `events_lost`
//!    must be zero. Batch round-trip latency (send + credits back,
//!    i.e. the server has *processed* the batch) is sampled on every
//!    batch of every client.
//! 2. **Overload** (in-process): a small server (hard watermark 8,
//!    soft 4) is walked up the degradation ladder — full-fidelity
//!    admissions, then sampled-tier admissions, then typed
//!    `OVERLOADED` sheds — and the counts are checked exactly.
//! 3. **Kill/resume** (only with `--server-bin`): sessions stream half
//!    their events into a real `dgrace serve` process with
//!    checkpointing on, the process is SIGKILLed mid-stream, a new one
//!    is started with `--resume`, and each client reconnects, streams
//!    the suffix from the server's announced offset, and must receive
//!    a report byte-identical to its solo run.
//!
//! The harness asserts every invariant it states — a violated one
//! aborts the run rather than writing a quietly-wrong baseline.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dgrace_core::DynamicGranularityOn;
use dgrace_runtime::IngestSession;
use dgrace_server::proto::report_json;
use dgrace_server::{Client, ClientError, Server, ServerConfig};
use dgrace_shadow::HashSelect;
use dgrace_trace::Trace;
use dgrace_workloads::{Workload, WorkloadKind};

/// Workload every session streams. `pbzip2` is the byte-heavy outlier
/// of the detect baseline — the most shadow work per event, so the
/// most server-side pressure per client.
const WORKLOAD: WorkloadKind = WorkloadKind::Pbzip2;

/// Detector each session requests; the solo reference must build the
/// same prototype the server's `dynamic` name maps to.
const DETECTOR: &str = "dynamic";

/// Events per timed round trip: one `send_events` + `await_credits`
/// cycle. Two wire batches per round trip, comfortably inside the
/// default 4096-event credit window.
const ROUND_TRIP_EVENTS: usize = 1024;

const SEED: u64 = 7;

fn parse_args() -> (usize, f64, Option<PathBuf>, PathBuf) {
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    let args: Vec<String> = std::env::args().collect();
    let mut clients = 200usize;
    let mut scale = 0.05f64;
    let mut server_bin = None;
    let mut out = default_out;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                clients = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--clients needs a positive count");
                i += 2;
            }
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a positive number");
                i += 2;
            }
            "--server-bin" => {
                server_bin = Some(PathBuf::from(
                    args.get(i + 1).expect("--server-bin needs a path"),
                ));
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).expect("--out needs a path").into();
                i += 2;
            }
            other => panic!(
                "unknown argument {other} \
                 (use --clients N / --scale X / --server-bin PATH / --out PATH)"
            ),
        }
    }
    (clients, scale, server_bin, out)
}

/// A scratch directory under the target dir, fresh per phase.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgrace-bench-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The single-client reference report for `trace` under the server's
/// `dynamic` detector, rendered per session name.
fn solo_report(trace: &Trace) -> dgrace_detectors::Report {
    let proto = DynamicGranularityOn::<HashSelect>::new();
    let mut sess = IngestSession::new(&proto, 1, None);
    sess.feed_all(&trace.events);
    sess.finalize()
}

/// Connects with retries: a 200-client herd can transiently overflow
/// the listen backlog, which is load, not failure.
fn connect_retry(socket: &Path, session: &str) -> Result<Client, ClientError> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(socket, session, DETECTOR) {
            Err(ClientError::Io(e)) if Instant::now() < deadline => {
                let _ = e;
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

/// One soak client: floods, stalls, or drops depending on `role`,
/// timing every round trip.
fn soak_client(
    socket: &Path,
    name: &str,
    trace: &Trace,
    role: usize,
    latencies_us: &Mutex<Vec<u64>>,
) -> Result<Outcome, ClientError> {
    let mut client = connect_retry(socket, name)?;
    assert_eq!(client.start_offset(), 0, "{name}: fresh session");
    assert!(!client.degraded(), "{name}: soak server must not degrade");
    let events = &trace.events;
    // Droppers abandon mid-stream after exactly half the trace; the
    // await_credits sync point makes the server-side count exact.
    let send_upto = if role == 9 {
        events.len() / 2
    } else {
        events.len()
    };
    let mut local = Vec::with_capacity(send_upto / ROUND_TRIP_EVENTS + 1);
    for chunk in events[..send_upto].chunks(ROUND_TRIP_EVENTS) {
        let start = Instant::now();
        client.send_events(chunk)?;
        client.await_credits()?;
        local.push(start.elapsed().as_micros() as u64);
        if role == 7 {
            // Stall schedule: well inside the idle timeout, long
            // enough that the session sits parked between frames.
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    latencies_us.lock().expect("latency lock").extend(local);
    if role == 9 {
        client.abandon();
        return Ok(Outcome::Dropped(send_upto as u64));
    }
    let end = client.finish()?;
    Ok(Outcome::Finished(end.report_json))
}

struct SoakResult {
    elapsed_secs: f64,
    events: u64,
    finished: u64,
    quarantined: u64,
    races_streamed: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Phase 1: the in-process soak. Panics on any accounting violation.
fn run_soak(clients: usize, trace: &Arc<Trace>, solo: &dgrace_detectors::Report) -> SoakResult {
    let dir = scratch("soak");
    let mut cfg = ServerConfig::new(dir.join("serve.sock"));
    // Headroom above the herd: admission control is phase 2's subject.
    cfg.max_sessions = clients + 16;
    cfg.degrade_sessions = clients + 16;
    cfg.degrade_sample = None;
    let socket = cfg.socket.clone();
    let server = Server::spawn(cfg).expect("spawn soak server");
    let latencies_us = Arc::new(Mutex::new(Vec::new()));

    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let socket = socket.clone();
            let trace = Arc::clone(trace);
            let lat = Arc::clone(&latencies_us);
            std::thread::spawn(move || {
                let name = format!("soak-{i:04}");
                let out = soak_client(&socket, &name, &trace, i % 10, &lat);
                (name, out)
            })
        })
        .collect();

    let mut expected_events = 0u64;
    let mut finished = 0u64;
    let mut dropped = 0u64;
    for w in workers {
        let (name, out) = w.join().expect("soak client thread");
        match out {
            Ok(Outcome::Finished(json)) => {
                let want = report_json(&name, solo, 0, false);
                assert_eq!(json, want, "{name}: report differs from solo run");
                expected_events += trace.events.len() as u64;
                finished += 1;
            }
            Ok(Outcome::Dropped(n)) => {
                expected_events += n;
                dropped += 1;
            }
            Err(e) => panic!("{name}: soak client failed: {e}"),
        }
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    // Quarantines land when the server notices EOF; the graceful stop
    // below joins every session thread, so stats are final after it.
    let stats = server.stop().expect("stop soak server");
    assert_eq!(stats.finished, finished, "server finished count");
    assert_eq!(stats.quarantined, dropped, "droppers quarantine exactly");
    assert_eq!(stats.events, expected_events, "exact event accounting");
    assert_eq!(stats.events_lost, 0, "soak must lose nothing");
    assert_eq!(stats.shed, 0, "soak server never sheds");

    let mut lat = Arc::try_unwrap(latencies_us)
        .unwrap_or_else(|_| panic!("latency vec uniquely owned"))
        .into_inner()
        .expect("latency lock");
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    let result = SoakResult {
        elapsed_secs,
        events: stats.events,
        finished,
        quarantined: dropped,
        races_streamed: stats.races_streamed,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

struct OverloadResult {
    accepted: u64,
    degraded: u64,
    shed: u64,
}

/// Phase 2: walk the degradation ladder on a deliberately tiny server.
/// Sequential connects from one thread make the counts deterministic.
fn run_overload(trace: &Trace) -> OverloadResult {
    let dir = scratch("overload");
    let mut cfg = ServerConfig::new(dir.join("serve.sock"));
    cfg.max_sessions = 8;
    cfg.degrade_sessions = 4;
    let socket = cfg.socket.clone();
    let server = Server::spawn(cfg).expect("spawn overload server");

    // Fill the ladder: 4 full-fidelity, then 4 sampled-tier holders.
    let mut holders = Vec::new();
    for i in 0..8 {
        let name = format!("hold-{i}");
        let mut c = connect_retry(&socket, &name).expect("holder admitted");
        assert_eq!(c.degraded(), i >= 4, "{name}: soft watermark at 4");
        c.send_events(&trace.events[..512]).expect("holder feeds");
        c.await_credits().expect("holder credited");
        holders.push(c);
    }
    // Past the hard watermark every connection is a typed shed.
    for i in 0..4 {
        match Client::connect(&socket, &format!("shed-{i}"), DETECTOR) {
            Err(ClientError::Overloaded) => {}
            Ok(_) => panic!("shed-{i}: admitted past the hard watermark"),
            Err(other) => panic!("shed-{i}: expected OVERLOADED, got {other}"),
        }
    }
    for c in holders {
        c.finish().expect("holder finishes");
    }
    let stats = server.stop().expect("stop overload server");
    assert_eq!(stats.accepted, 12);
    assert_eq!(stats.degraded, 4);
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.finished, 8);
    assert_eq!(stats.events_lost, 0);
    let _ = std::fs::remove_dir_all(&dir);
    OverloadResult {
        accepted: stats.accepted,
        degraded: stats.degraded,
        shed: stats.shed,
    }
}

struct KillResumeResult {
    sessions: u64,
    resumed_offset_events: u64,
}

/// Spawns `dgrace serve` and waits for its socket to appear.
fn spawn_serve(bin: &Path, socket: &Path, ckpt: &Path, resume: bool) -> std::process::Child {
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("serve")
        .arg(socket)
        .arg("--checkpoint-dir")
        .arg(ckpt)
        .arg("--checkpoint-every")
        .arg("2000")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if resume {
        cmd.arg("--resume");
    }
    let child = cmd.spawn().expect("spawn dgrace serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "serve never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// Phase 3: SIGKILL a real `dgrace serve` process mid-stream, restart
/// it with `--resume`, and prove every reconnecting session ends with
/// a report byte-identical to its solo run.
fn run_kill_resume(bin: &Path, trace: &Trace, solo: &dgrace_detectors::Report) -> KillResumeResult {
    let dir = scratch("kill");
    let socket = dir.join("serve.sock");
    let ckpt = dir.join("ckpt");
    let sessions = 8usize;
    let half = trace.events.len() / 2;

    let mut child = spawn_serve(bin, &socket, &ckpt, false);
    let clients: Vec<(String, Client)> = (0..sessions)
        .map(|i| {
            let name = format!("kr-{i}");
            let mut c = connect_retry(&socket, &name).expect("kill-phase client connects");
            c.send_events(&trace.events[..half]).expect("first half");
            // Sync point: everything sent is *processed*, so the last
            // periodic checkpoint covers a known-stable prefix.
            c.await_credits().expect("first half credited");
            (name, c)
        })
        .collect();

    // SIGKILL: no destructors, no final checkpoints — durability must
    // come entirely from the periodic cadence manifests.
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    for (_, c) in clients {
        c.abandon();
    }

    let mut resumed_offset_events = 0u64;
    let child = spawn_serve(bin, &socket, &ckpt, true);
    for i in 0..sessions {
        let name = format!("kr-{i}");
        let mut c = connect_retry(&socket, &name).expect("resume client connects");
        let skip = c.start_offset();
        assert!(
            skip > 0 && skip <= half as u64,
            "{name}: resume offset {skip} outside the streamed prefix"
        );
        resumed_offset_events += skip;
        c.send_events(&trace.events[skip as usize..])
            .expect("suffix");
        let end = c.finish().expect("resumed session finishes");
        let want = report_json(&name, solo, 0, false);
        assert_eq!(
            end.report_json, want,
            "{name}: resumed report differs from solo run"
        );
    }
    terminate(child);
    let _ = std::fs::remove_dir_all(&dir);
    KillResumeResult {
        sessions: sessions as u64,
        resumed_offset_events,
    }
}

/// Graceful SIGTERM via /bin/kill (std can only SIGKILL); falls back to
/// SIGKILL if the host has no `kill` binary.
fn terminate(mut child: std::process::Child) {
    let ok = std::process::Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !ok {
        let _ = child.kill();
    }
    let _ = child.wait();
}

fn main() {
    let (clients, scale, server_bin, out_path) = parse_args();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (trace, _) = Workload::new(WORKLOAD)
        .with_scale(scale)
        .with_seed(SEED)
        .generate();
    let trace = Arc::new(trace);
    let events_per_client = trace.events.len() as u64;
    eprintln!(
        "{}: {} events/client, {clients} clients, host_cpus={host_cpus}",
        WORKLOAD.name(),
        events_per_client
    );

    let solo = solo_report(&trace);
    let soak = run_soak(clients, &trace, &solo);
    eprintln!(
        "soak: {:.2}s, {:.2} Mev/s, p50 {}us p99 {}us",
        soak.elapsed_secs,
        soak.events as f64 / soak.elapsed_secs.max(1e-9) / 1e6,
        soak.p50_us,
        soak.p99_us
    );
    let overload = run_overload(&trace);
    eprintln!(
        "overload ladder: {} accepted, {} degraded, {} shed",
        overload.accepted, overload.degraded, overload.shed
    );
    let kill = server_bin.map(|bin| {
        let r = run_kill_resume(&bin, &trace, &solo);
        eprintln!(
            "kill/resume: {} sessions, {} events skipped via checkpoints",
            r.sessions, r.resumed_offset_events
        );
        r
    });

    // Stable hand-rolled schema, one phase per block; every flag below
    // was asserted above, so `true` here means proven, not hoped.
    let mut j = String::from("{\n");
    j.push_str("  \"schema_version\": 1,\n");
    j.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    j.push_str(&format!("  \"workload\": \"{}\",\n", WORKLOAD.name()));
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"clients\": {clients},\n"));
    j.push_str(&format!("  \"events_per_client\": {events_per_client},\n"));
    j.push_str("  \"soak\": {\n");
    j.push_str(&format!(
        "    \"elapsed_secs\": {:.3},\n",
        soak.elapsed_secs
    ));
    j.push_str(&format!("    \"events\": {},\n", soak.events));
    j.push_str(&format!(
        "    \"events_per_sec\": {:.0},\n",
        soak.events as f64 / soak.elapsed_secs.max(1e-9)
    ));
    j.push_str(&format!("    \"finished\": {},\n", soak.finished));
    j.push_str(&format!("    \"quarantined\": {},\n", soak.quarantined));
    j.push_str(&format!(
        "    \"races_streamed\": {},\n",
        soak.races_streamed
    ));
    j.push_str(&format!("    \"batch_p50_us\": {},\n", soak.p50_us));
    j.push_str(&format!("    \"batch_p99_us\": {},\n", soak.p99_us));
    j.push_str("    \"events_lost\": 0,\n");
    j.push_str("    \"zero_loss\": true,\n");
    j.push_str("    \"reports_match_solo\": true\n");
    j.push_str("  },\n");
    j.push_str("  \"overload\": {\n");
    j.push_str(&format!("    \"accepted\": {},\n", overload.accepted));
    j.push_str(&format!("    \"degraded\": {},\n", overload.degraded));
    j.push_str(&format!("    \"shed\": {}\n", overload.shed));
    j.push_str("  },\n");
    match &kill {
        Some(k) => {
            j.push_str("  \"kill_resume\": {\n");
            j.push_str("    \"ran\": true,\n");
            j.push_str(&format!("    \"sessions\": {},\n", k.sessions));
            j.push_str(&format!(
                "    \"resumed_offset_events\": {},\n",
                k.resumed_offset_events
            ));
            j.push_str("    \"reports_match_solo\": true\n");
            j.push_str("  }\n");
        }
        None => j.push_str("  \"kill_resume\": {\"ran\": false}\n"),
    }
    j.push_str("}\n");
    std::fs::write(&out_path, j).expect("write BENCH_serve.json");
    println!("wrote {}", out_path.display());
}
