//! One run of a workload's user command through the `dgrace` binary,
//! measured from outside and verified.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::measure::{run_child, terminate, vm_hwm_kib, wait_child, ChildUsage};
use crate::pinned::{Event, Session};
use crate::workloads::{
    verify_detect_json, verify_report_json, Files, Reference, User, Workload, ROUND_TRIP_EVENTS,
    SERVE_CLIENTS,
};

/// Where the binary under test and the scratch files are.
pub struct Env {
    pub dgrace: PathBuf,
    pub work: PathBuf,
}

/// What one run of the user command cost and whether it was right.
#[derive(Clone, Debug, Default)]
pub struct RunSample {
    /// Events the command processed (the divisor of the per-event rates).
    pub events: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_kib: u64,
    /// `stats.peak_total_bytes` of the final `--json` report.
    pub shadow_peak_bytes: u64,
    /// Operations attempted: a run for the CLI workloads; every round
    /// trip, every session and the server's exit for `serve`.
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl RunSample {
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Runs `dgrace detect dynamic <input> --json <flags>` with its report
/// going to the workload's stdout file; returns the usage and the parsed,
/// verified report's `peak_total_bytes`.
fn detect(
    env: &Env,
    files: &Files,
    flags: &[&str],
    reference: &Reference,
) -> Result<(ChildUsage, u64), String> {
    let out = File::create(&files.stdout).map_err(|e| format!("create stdout file: {e}"))?;
    let usage = run_child(
        Command::new(&env.dgrace)
            .args(["detect", "dynamic"])
            .arg(&files.input)
            .arg("--json")
            .args(flags)
            .stdout(out)
            .stderr(Stdio::null()),
    )
    .map_err(|e| format!("spawn dgrace detect: {e}"))?;
    if !usage.exit_ok {
        return Err("dgrace detect exited non-zero".into());
    }
    let text = fs::read_to_string(&files.stdout).map_err(|e| format!("read report: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("report is not JSON: {e}"))?;
    verify_detect_json(&doc, reference)?;
    let peak = doc
        .get("stats")
        .and_then(|s| s.get("peak_total_bytes"))
        .and_then(Json::as_u64)
        .ok_or("no `stats.peak_total_bytes`")?;
    Ok((usage, peak))
}

/// One run of a CLI workload (`Detect` or `Aot`).
pub fn run_cli(env: &Env, w: &Workload, files: &Files, reference: &Reference) -> RunSample {
    let mut s = RunSample {
        events: reference.events,
        ..RunSample::default()
    };
    let outcome = (|| {
        let mut flags: Vec<&str> = Vec::new();
        let summary = files.summary.to_string_lossy().into_owned();
        match w.user {
            User::Detect(extra) => flags.extend(extra),
            User::Aot => {
                let usage = run_child(
                    Command::new(&env.dgrace)
                        .arg("analyze")
                        .arg(&files.input)
                        .arg("-o")
                        .arg(&files.summary)
                        .stdout(Stdio::null())
                        .stderr(Stdio::null()),
                )
                .map_err(|e| format!("spawn dgrace analyze: {e}"))?;
                if !usage.exit_ok {
                    return Err("dgrace analyze exited non-zero".to_string());
                }
                s.wall_s += usage.wall_s;
                s.cpu_s += usage.cpu_s;
                s.peak_rss_kib = usage.peak_rss_kib;
                flags.extend(["--prune-with", &summary]);
            }
            User::Serve => unreachable!("serve runs through run_serve"),
        }
        let (usage, peak) = detect(env, files, &flags, reference)?;
        s.wall_s += usage.wall_s;
        s.cpu_s += usage.cpu_s;
        s.peak_rss_kib = s.peak_rss_kib.max(usage.peak_rss_kib);
        s.shadow_peak_bytes = peak;
        Ok(())
    })();
    s.check(w.name, outcome);
    s
}

/// The modeled shadow peak for the `serve` input. A session's `REPORT`
/// does not carry it, so it is read from `dgrace detect dynamic --json`
/// over the file the clients stream.
pub fn shadow_peak_via_cli(env: &Env, files: &Files, reference: &Reference) -> Result<u64, String> {
    detect(env, files, &[], reference).map(|(_, peak)| peak)
}

/// Client-side timings of one `serve` run, for the per-layer metrics.
#[derive(Default)]
pub struct ServeTimings {
    /// Every `send_events` + `await_credits` round trip, in seconds.
    pub rtt_s: Vec<f64>,
    /// Per session: `connect` and `finish` durations, in seconds.
    pub connect_s: Vec<f64>,
    pub finish_s: Vec<f64>,
}

/// Connects once the server listens: the socket file appears at `bind`,
/// so a refusal before that is the server still starting, not a failure.
/// Also returns when the attempt that succeeded began.
fn connect_when_listening(socket: &Path, session: &str) -> Result<(Session, Instant), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let began = Instant::now();
        match Session::connect(socket, session) {
            Ok(s) => return Ok((s, began)),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One `serve` run: a fresh `dgrace serve <socket>` with default flags,
/// [`SERVE_CLIENTS`] connections each streaming `events` in closed-loop
/// 1024-event round trips, then `FINISH`. Wall time runs from the first
/// connect to the last `REPORT`; CPU and peak RSS are the server's.
pub fn run_serve(
    env: &Env,
    files: &Files,
    events: &[Event],
    reference: &Reference,
) -> (RunSample, ServeTimings) {
    let mut s = RunSample {
        events: (events.len() * SERVE_CLIENTS) as u64,
        ..RunSample::default()
    };
    let mut timings = ServeTimings::default();
    let _ = fs::remove_file(&files.socket);
    let started = Instant::now();
    let server = match Command::new(&env.dgrace)
        .arg("serve")
        .arg(&files.socket)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            s.check("serve", Err(format!("spawn dgrace serve: {e}")));
            return (s, timings);
        }
    };

    // One session per thread; each returns its timings and check results.
    struct SessionOutcome {
        /// When the successful connect began, and when the session ended.
        span: Option<(Instant, Instant)>,
        rtt_s: Vec<f64>,
        connect_s: f64,
        finish_s: f64,
        /// Round trips that succeeded; a failed one is in `checks`.
        round_trips_ok: u64,
        /// Everything else that was checked, with its outcome.
        checks: Vec<(String, Result<(), String>)>,
    }
    let socket = files.socket.as_path();
    let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    let name = format!("s{i}");
                    let mut o = SessionOutcome {
                        span: None,
                        rtt_s: Vec::with_capacity(events.len() / ROUND_TRIP_EVENTS + 1),
                        connect_s: 0.0,
                        finish_s: 0.0,
                        round_trips_ok: 0,
                        checks: Vec::new(),
                    };
                    let (mut session, began) = match connect_when_listening(socket, &name) {
                        Ok(connected) => connected,
                        Err(e) => {
                            o.checks.push((format!("{name} connect"), Err(e)));
                            return o;
                        }
                    };
                    o.connect_s = began.elapsed().as_secs_f64();
                    for (n, batch) in events.chunks(ROUND_TRIP_EVENTS).enumerate() {
                        let t = Instant::now();
                        let r = session.round_trip(batch);
                        o.rtt_s.push(t.elapsed().as_secs_f64());
                        match r {
                            Ok(()) => o.round_trips_ok += 1,
                            Err(e) => {
                                o.checks.push((format!("{name} round trip {n}"), Err(e)));
                                return o;
                            }
                        }
                    }
                    let t = Instant::now();
                    let report = session.finish();
                    o.finish_s = t.elapsed().as_secs_f64();
                    o.span = Some((began, Instant::now()));
                    let verdict = report.and_then(|json| {
                        let doc =
                            Json::parse(&json).map_err(|e| format!("REPORT is not JSON: {e}"))?;
                        verify_report_json(&doc, reference)
                    });
                    o.checks.push((format!("{name} report"), verdict));
                    o
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let spans = outcomes.iter().filter_map(|o| o.span);
    if let (Some(first), Some(last)) = (
        spans.clone().map(|(began, _)| began).min(),
        spans.map(|(_, ended)| ended).max(),
    ) {
        s.wall_s = (last - first).as_secs_f64();
    }

    // The server is idle but alive: its high-water mark is final. (The
    // rusage peak would carry this process's own RSS — it holds the
    // trace — across the server's exec.)
    s.peak_rss_kib = vm_hwm_kib(server.id()).unwrap_or(0);
    terminate(&server);
    match wait_child(server, started) {
        Ok(usage) => {
            s.cpu_s = usage.cpu_s;
            let exit = if usage.exit_ok {
                Ok(())
            } else {
                Err("dgrace serve exited non-zero after SIGTERM".to_string())
            };
            s.check("serve exit", exit);
        }
        Err(e) => s.check("serve exit", Err(format!("wait4: {e}"))),
    }
    let _ = fs::remove_file(&files.socket);

    for o in outcomes {
        timings.rtt_s.extend(o.rtt_s);
        timings.connect_s.push(o.connect_s);
        timings.finish_s.push(o.finish_s);
        s.attempted += o.round_trips_ok;
        for (what, outcome) in o.checks {
            s.check(&what, outcome);
        }
    }
    (s, timings)
}
