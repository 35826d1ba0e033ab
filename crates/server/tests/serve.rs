//! End-to-end robustness tests for `dgrace serve`: session isolation,
//! exact loss accounting, timeouts, the degradation ladder, and
//! crash-resume byte-identity.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use dgrace_detectors::{FastTrack, Granularity};
use dgrace_runtime::IngestSession;
use dgrace_server::proto::{self, FRAME_ERROR, FRAME_EVENTS};
use dgrace_server::{Client, ClientError, Server, ServerConfig};
use dgrace_trace::{encode_events, AccessSize, Trace, TraceBuilder};

/// A unique scratch directory per test (sockets + checkpoints).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dgrace-serve-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn racy_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write(0u32, 0x100u64, AccessSize::U64)
        .write(1u32, 0x100u64, AccessSize::U64)
        .locked(0u32, 0u32, |b| {
            b.write(0u32, 0x5000u64, AccessSize::U64);
        })
        .locked(1u32, 0u32, |b| {
            b.write(1u32, 0x5000u64, AccessSize::U64);
        })
        .write(1u32, 0x200u64, AccessSize::U32)
        .write(0u32, 0x200u64, AccessSize::U32)
        .join(0u32, 1u32);
    b.build()
}

/// What the server must report for `racy_trace` under detector `byte`,
/// session name `name`: the same engine fed the same events in-process.
fn solo_json(name: &str, trace: &Trace) -> String {
    let mut s = IngestSession::new(&FastTrack::with_granularity(Granularity::Byte), 1, None);
    s.feed_all(&trace.events);
    let report = s.finalize();
    proto::report_json(name, &report, 0, false)
}

fn base_config(dir: &std::path::Path) -> ServerConfig {
    let mut cfg = ServerConfig::new(dir.join("serve.sock"));
    cfg.idle_timeout = Duration::from_secs(5);
    cfg
}

#[test]
fn concurrent_sessions_match_solo_runs() {
    let dir = scratch("multi");
    let handle = Server::spawn(base_config(&dir)).expect("spawn");
    let trace = racy_trace();
    let sock = handle.socket().to_path_buf();

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let sock = sock.clone();
            let trace = trace.clone();
            std::thread::spawn(move || {
                let name = format!("client-{i}");
                let mut c = Client::connect(&sock, &name, "byte").expect("connect");
                assert_eq!(c.start_offset(), 0);
                assert!(!c.degraded());
                c.send_events(&trace.events).expect("send");
                let end = c.finish().expect("finish");
                (name, end)
            })
        })
        .collect();
    for w in workers {
        let (name, end) = w.join().expect("client thread");
        assert_eq!(end.report_json, solo_json(&name, &trace));
        // Streamed races and the final report agree.
        assert!(end.report_json.contains("\"events_lost\":0"));
        assert!(!end.races.is_empty(), "races streamed live");
    }
    let stats = handle.stop().expect("stop");
    assert_eq!(stats.finished, 8);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.events, 8 * trace.len() as u64);
    assert_eq!(stats.events_lost, 0);
}

#[test]
fn malformed_batch_quarantines_exactly_that_session() {
    let dir = scratch("malformed");
    let handle = Server::spawn(base_config(&dir)).expect("spawn");
    let trace = racy_trace();

    // The well-behaved session, running concurrently with the attack.
    let good_sock = handle.socket().to_path_buf();
    let good_trace = trace.clone();
    let good = std::thread::spawn(move || {
        let mut c = Client::connect(&good_sock, "good", "byte").expect("connect");
        c.send_events(&good_trace.events).expect("send");
        c.finish().expect("finish")
    });

    // The faulty session: declares 5 events, encodes 3, then garbage.
    let mut bad = Client::connect(handle.socket(), "bad", "byte").expect("connect");
    let three = &trace.events[1..4]; // accesses, no syncs
    let mut payload = 5u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&encode_events(three)[4..]);
    payload.push(0xFE); // not a DGRT tag
    bad.send_raw(FRAME_EVENTS, &payload).expect("send raw");
    let frames = bad.drain_to_close().expect("drain");
    let err = frames
        .iter()
        .find(|f| f.kind == FRAME_ERROR)
        .expect("quarantine ERROR frame");
    let reason = String::from_utf8_lossy(&err.payload);
    assert!(
        reason.contains("malformed event batch") && reason.contains("2 of 5"),
        "reason: {reason}"
    );

    // The good session is byte-identical to a solo run regardless.
    let end = good.join().expect("good client");
    assert_eq!(end.report_json, solo_json("good", &trace));

    let stats = handle.stop().expect("stop");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.finished, 1);
    // Exact loss accounting: declared 5, decoded 3.
    assert_eq!(stats.events_lost, 2);
    assert_eq!(stats.events, trace.len() as u64 + 3);
}

#[test]
fn disconnect_mid_stream_quarantines_and_checkpoints() {
    let dir = scratch("disconnect");
    let mut cfg = base_config(&dir);
    cfg.checkpoint_dir = Some(dir.join("ckpt"));
    cfg.checkpoint_every = 1 << 20; // only the final checkpoint fires
    let handle = Server::spawn(cfg).expect("spawn");
    let trace = racy_trace();

    let mut c = Client::connect(handle.socket(), "dropper", "byte").expect("connect");
    c.send_events(&trace.events[..4]).expect("send");
    c.await_credits().expect("processed");
    c.abandon();

    // The quarantine (and its final checkpoint) land asynchronously.
    let manifest = dir.join("ckpt").join("dropper.dgcp");
    for _ in 0..200 {
        if manifest.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.stop().expect("stop");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.events, 4);
    assert_eq!(stats.events_lost, 0, "a clean disconnect loses nothing");
    assert!(manifest.exists(), "final checkpoint written on disconnect");
}

#[test]
fn slowloris_session_hits_idle_timeout() {
    let dir = scratch("slowloris");
    let mut cfg = base_config(&dir);
    cfg.idle_timeout = Duration::from_millis(200);
    let handle = Server::spawn(cfg).expect("spawn");

    let mut c = Client::connect(handle.socket(), "slow", "byte").expect("connect");
    // A frame header promising 64 bytes that never arrive: the idle
    // deadline spans the whole frame, so trickling can't reset it.
    c.send_bytes(&64u32.to_le_bytes()).expect("send prefix");
    let frames = c.drain_to_close().expect("drain");
    let err = frames
        .iter()
        .find(|f| f.kind == FRAME_ERROR)
        .expect("timeout ERROR frame");
    assert!(
        String::from_utf8_lossy(&err.payload).contains("idle timeout"),
        "reason: {}",
        String::from_utf8_lossy(&err.payload)
    );
    let stats = handle.stop().expect("stop");
    assert_eq!(stats.quarantined, 1);
}

/// The admission ladder at two sizes: `degrade` full-fidelity sessions,
/// then sampled-tier ones up to the hard watermark, then as many typed
/// sheds as there were sampled admissions. Sequential connects from one
/// thread make every count exact.
#[test]
fn overload_degrades_then_sheds() {
    let trace = racy_trace();
    for (max, degrade) in [(2usize, 1usize), (8, 4)] {
        let row = format!("max={max} degrade={degrade}");
        let dir = scratch("overload");
        let mut cfg = base_config(&dir);
        cfg.max_sessions = max;
        cfg.degrade_sessions = degrade;
        let handle = Server::spawn(cfg).expect("spawn");

        let mut holders = Vec::new();
        for i in 0..max {
            let name = format!("hold-{i}");
            let mut c = Client::connect(handle.socket(), &name, "byte").expect("holder admitted");
            // Past the soft watermark new sessions run on sampling.
            assert_eq!(c.degraded(), i >= degrade, "{row} {name}");
            c.send_events(&trace.events).expect("holder feeds");
            c.await_credits().expect("holder credited");
            holders.push((name, c));
        }
        // Past the hard watermark every connection is shed with a typed
        // reply.
        let sampled = max - degrade;
        for i in 0..sampled {
            match Client::connect(handle.socket(), &format!("shed-{i}"), "byte") {
                Err(ClientError::Overloaded) => {}
                Err(other) => panic!("{row}: expected Overloaded, got {other}"),
                Ok(_) => panic!("{row}: expected Overloaded, got a session"),
            }
        }
        for (i, (name, c)) in holders.into_iter().enumerate() {
            let end = c.finish().expect("holder finishes");
            if i < degrade {
                assert_eq!(end.report_json, solo_json(&name, &trace), "{row} {name}");
            } else {
                assert!(
                    end.report_json.contains("\"degraded\":true"),
                    "{row} {name}"
                );
            }
        }

        let stats = handle.stop().expect("stop");
        assert_eq!(stats.accepted, (max + sampled) as u64, "{row}");
        assert_eq!(stats.degraded, sampled as u64, "{row}");
        assert_eq!(stats.shed, sampled as u64, "{row}");
        assert_eq!(stats.finished, max as u64, "{row}");
        assert_eq!(stats.events_lost, 0, "{row}");
    }
}

/// The race addresses in a `REPORT` payload, in report order.
fn race_addrs(report_json: &str) -> Vec<&str> {
    report_json
        .split("\"addr\":\"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("a closed address"))
        .collect()
}

/// A session on the sampling tier is flagged, but it still finds the
/// races: the default `loc:` spec admits every location's first
/// accesses, which is where `racy_trace`'s races are.
#[test]
fn degraded_session_finds_the_solo_races() {
    let dir = scratch("sampled");
    let mut cfg = base_config(&dir);
    cfg.degrade_sessions = 0;
    let handle = Server::spawn(cfg).expect("spawn");
    let trace = racy_trace();

    let mut c = Client::connect(handle.socket(), "thin", "byte").expect("admitted");
    assert!(c.degraded(), "past a soft watermark of 0 sessions");
    c.send_events(&trace.events).expect("send");
    let end = c.finish().expect("finish");
    assert!(end.report_json.contains("\"degraded\":true"));
    let solo = solo_json("thin", &trace);
    assert!(!race_addrs(&solo).is_empty(), "the solo run finds races");
    assert_eq!(race_addrs(&end.report_json), race_addrs(&solo));

    let stats = handle.stop().expect("stop");
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.finished, 1);
}

#[test]
fn memory_pressure_degrades_then_sheds() {
    let dir = scratch("mempress");
    let mut cfg = base_config(&dir);
    cfg.max_sessions = 8;
    // Session-count ladder disabled: only memory pressure acts here.
    cfg.degrade_sessions = 8;
    cfg.memory_limit = Some(1 << 20); // high at 80%, critical at 95%
    let handle = Server::spawn(cfg).expect("spawn");
    let trace = racy_trace();
    let gauge = dgrace_shadow::process_gauge();

    // Plenty of headroom: full fidelity, byte-identical to a solo run.
    let mut c1 = Client::connect(handle.socket(), "roomy", "byte").expect("c1");
    assert!(!c1.degraded());

    // Push the process gauge past the high watermark: new sessions are
    // admitted, but onto the sampling tier.
    gauge.add(dgrace_shadow::MemComponent::Shadow, 850 << 10);
    let mut c2 = Client::connect(handle.socket(), "tight", "byte").expect("c2");
    assert!(c2.degraded(), "high watermark degrades new admissions");

    // Past the critical watermark: new sessions are shed with a typed
    // OVERLOADED reply; the live ones keep running.
    gauge.add(dgrace_shadow::MemComponent::Shadow, 200 << 10);
    match Client::connect(handle.socket(), "doomed", "byte") {
        Err(ClientError::Overloaded) => {}
        Err(other) => panic!("expected Overloaded, got {other}"),
        Ok(_) => panic!("expected Overloaded, got a session"),
    }
    gauge.sub(
        dgrace_shadow::MemComponent::Shadow,
        (850 << 10) + (200 << 10),
    );

    c1.send_events(&trace.events).expect("send");
    c2.send_events(&trace.events).expect("send");
    let full = c1.finish().expect("finish");
    let sampled = c2.finish().expect("finish");
    assert_eq!(full.report_json, solo_json("roomy", &trace));
    assert!(sampled.report_json.contains("\"degraded\":true"));

    let stats = handle.stop().expect("stop");
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.shed_memory, 1);
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.finished, 2);
}

#[test]
fn checkpoint_write_failure_degrades_not_aborts() {
    let dir = scratch("ckptfail");
    let ckpt = dir.join("ckpt");
    let mut cfg = base_config(&dir);
    cfg.checkpoint_dir = Some(ckpt.clone());
    cfg.checkpoint_every = 2; // several periodic attempts over the trace
    let handle = Server::spawn(cfg).expect("spawn");
    let trace = racy_trace();

    // Sabotage the manifest path: a non-empty directory where the
    // manifest file should land makes every atomic rename fail, the
    // same observable failure as ENOSPC at commit time.
    let manifest = ckpt.join("brownout.dgcp");
    std::fs::create_dir_all(manifest.join("occupied")).expect("squat manifest path");

    let mut c = Client::connect(handle.socket(), "brownout", "byte").expect("connect");
    c.send_events(&trace.events).expect("send");
    let end = c
        .finish()
        .expect("checkpoint failure must not kill the session");

    // Detection ran to completion on the full stream and the report
    // carries the durability caveat.
    assert!(end.report_json.contains("\"checkpointing_degraded\":true"));
    assert!(end.report_json.contains("\"events_lost\":0"));
    assert!(!end.races.is_empty(), "races still streamed live");

    let stats = handle.stop().expect("stop");
    assert_eq!(stats.finished, 1);
    assert_eq!(stats.quarantined, 0, "degraded durability is not a fault");
    assert_eq!(stats.events, trace.len() as u64);
}

#[test]
fn restart_resume_is_byte_identical() {
    let dir = scratch("resume");
    let trace = racy_trace();
    let want = solo_json("phoenix", &trace);

    for cut in [1usize, 3, 5, 8] {
        let ckpt = dir.join(format!("ckpt-{cut}"));
        let mut cfg = base_config(&dir);
        cfg.checkpoint_dir = Some(ckpt.clone());
        cfg.checkpoint_every = 2;
        let handle = Server::spawn(cfg.clone()).expect("spawn");

        // First incarnation: stream a prefix, then vanish without FINISH.
        let mut c = Client::connect(handle.socket(), "phoenix", "byte").expect("connect");
        c.send_events(&trace.events[..cut]).expect("send");
        c.await_credits().expect("processed");
        c.abandon();
        handle.stop().expect("stop"); // joins the session thread

        // Second incarnation: resume from the checkpoint, stream the
        // suffix the server asks for, and compare byte-for-byte.
        let mut cfg2 = cfg;
        cfg2.resume = true;
        let handle2 = Server::spawn(cfg2).expect("respawn");
        let mut c2 = Client::connect(handle2.socket(), "phoenix", "byte").expect("reconnect");
        assert_eq!(c2.start_offset(), cut as u64, "cut={cut}");
        c2.send_events(&trace.events[cut..]).expect("send suffix");
        let end = c2.finish().expect("finish");
        assert_eq!(end.report_json, want, "cut={cut}");

        let stats = handle2.stop().expect("stop");
        assert_eq!(stats.resumed, 1);
        assert_eq!(stats.finished, 1);
    }
}

#[test]
fn graceful_stop_suspends_and_resume_completes() {
    let dir = scratch("suspend");
    let trace = racy_trace();
    let ckpt = dir.join("ckpt");
    let mut cfg = base_config(&dir);
    cfg.checkpoint_dir = Some(ckpt.clone());
    let handle = Server::spawn(cfg.clone()).expect("spawn");

    let mut c = Client::connect(handle.socket(), "steady", "byte").expect("connect");
    c.send_events(&trace.events[..5]).expect("send");
    c.await_credits().expect("processed");

    // Graceful shutdown: the live session is suspended with a final
    // checkpoint, not quarantined.
    let stats = handle.stop().expect("stop");
    assert_eq!(stats.suspended, 1);
    assert_eq!(stats.quarantined, 0);
    assert!(ckpt.join("steady.dgcp").exists());

    let mut cfg2 = cfg;
    cfg2.resume = true;
    let handle2 = Server::spawn(cfg2).expect("respawn");
    let mut c2 = Client::connect(handle2.socket(), "steady", "byte").expect("reconnect");
    assert_eq!(c2.start_offset(), 5);
    c2.send_events(&trace.events[5..]).expect("send suffix");
    let end = c2.finish().expect("finish");
    assert_eq!(end.report_json, solo_json("steady", &trace));
    handle2.stop().expect("stop");
}

#[test]
fn duplicate_session_name_is_refused() {
    let dir = scratch("dup");
    let handle = Server::spawn(base_config(&dir)).expect("spawn");
    let _c1 = Client::connect(handle.socket(), "singleton", "byte").expect("first");
    match Client::connect(handle.socket(), "singleton", "byte") {
        Err(ClientError::Refused(reason)) => assert!(reason.contains("already live")),
        Err(other) => panic!("expected Refused, got {other}"),
        Ok(_) => panic!("expected Refused, got a session"),
    }
    let stats = handle.stop().expect("stop");
    assert_eq!(stats.quarantined, 1);
}

#[test]
fn unknown_detector_is_refused_with_reason() {
    let dir = scratch("unknown-det");
    let handle = Server::spawn(base_config(&dir)).expect("spawn");
    match Client::connect(handle.socket(), "s", "oracle") {
        Err(ClientError::Refused(reason)) => assert!(reason.contains("unknown detector")),
        Err(other) => panic!("expected Refused, got {other}"),
        Ok(_) => panic!("expected Refused, got a session"),
    }
    handle.stop().expect("stop");
}

/// A finished session whose race list does not fit one `REPORT` frame
/// still gets its report: the list is cut to fit and the rest counted in
/// `races_truncated` (every race was already streamed in a `RACE`
/// frame) — the session is finished, not quarantined after the fact.
#[test]
fn oversized_race_list_is_truncated_not_quarantined() {
    const LOCATIONS: u64 = 24_000;
    let dir = scratch("bigreport");
    let handle = Server::spawn(base_config(&dir)).expect("spawn");
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for i in 0..LOCATIONS {
        b.write(0u32, 0x10_0000 + i * 64, AccessSize::U64);
    }
    for i in 0..LOCATIONS {
        b.write(1u32, 0x10_0000 + i * 64, AccessSize::U64);
    }
    b.join(0u32, 1u32);
    let trace = b.build();
    let full = solo_json("big", &trace);
    assert!(
        full.len() > dgrace_trace::MAX_FRAME_LEN as usize,
        "the untruncated report must not fit a frame"
    );

    let mut c = Client::connect(handle.socket(), "big", "byte").expect("connect");
    c.send_events(&trace.events).expect("send");
    let end = c.finish().expect("a REPORT arrives");
    assert_eq!(end.races.len() as u64, LOCATIONS, "every race streamed");
    assert!(end.report_json.len() < dgrace_trace::MAX_FRAME_LEN as usize);

    // The report is the full one with the tail of the list replaced by
    // the count of what was cut.
    let (kept, tail) = end
        .report_json
        .rsplit_once("],\"races_truncated\":")
        .expect("truncation is flagged");
    let cut: u64 = tail.trim_end_matches('}').parse().expect("a count");
    assert!(cut > 0 && cut < LOCATIONS);
    assert!(full.starts_with(kept), "the kept prefix is unchanged");
    let kept_races = kept.matches("{\"addr\"").count() as u64;
    assert_eq!(kept_races + cut, LOCATIONS, "kept + cut == all");

    let stats = handle.stop().expect("stop");
    assert_eq!(stats.finished, 1);
    assert_eq!(stats.quarantined, 0);
}
