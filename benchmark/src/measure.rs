//! Estimators, child-process measurement and spans, done once.
//!
//! * A sample set is summarised as median / min / max / MAD with its
//!   count; the warm-up is dropped by the caller before it gets here.
//! * A child's wall time, CPU time and peak RSS come from one `wait4`.
//! * A percentile is reported only where at least ten samples lie
//!   beyond it.
//! * Spans are kept in memory and written when the run ends; a span's
//!   self time is its duration minus its children's.

use std::io;
use std::process::{Child, Command};
use std::time::Instant;

use crate::json::num;

/// Median, extremes, median absolute deviation and count of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
    pub n: usize,
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let median = median_of_sorted(&v);
    let mut dev: Vec<f64> = v.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    Some(Summary {
        median,
        min: v[0],
        max: v[v.len() - 1],
        mad: median_of_sorted(&dev),
        n: v.len(),
    })
}

impl Summary {
    /// `"median": .., "min": .., "max": .., "mad": .., "n": ..`, the
    /// members of a JSON object.
    pub fn json_fields(self) -> String {
        format!(
            "\"median\": {}, \"min\": {}, \"max\": {}, \"mad\": {}, \"n\": {}",
            num(self.median),
            num(self.min),
            num(self.max),
            num(self.mad),
            self.n
        )
    }
}

/// The `p`-th percentile (nearest rank) of `sorted`, or `None` when
/// fewer than ten samples lie beyond it — a tail estimated from fewer
/// does not repeat.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= 10).then(|| sorted[rank - 1])
}

/// What one finished child process cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    /// Spawn to exit.
    pub wall_s: f64,
    /// User plus system CPU of the process and the children it waited for.
    pub cpu_s: f64,
    /// Peak resident set. Linux carries the spawning process's own peak
    /// across `exec` as a floor, so the ledger keeps itself small while it
    /// measures (inputs are generated in a separate set-up process).
    pub peak_rss_kib: u64,
    /// Whether the process exited with status 0.
    pub exit_ok: bool,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss_kib: i64,
        rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    pub const SIGTERM: i32 = 15;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads child rusage through the 64-bit Linux `wait4` ABI");

/// Reaps `child` with `wait4` and returns its resource usage. `started`
/// is the instant just before it was spawned.
pub fn wait_child(child: Child, started: Instant) -> io::Result<ChildUsage> {
    let mut status = 0i32;
    let mut ru = sys::Rusage::default();
    // SAFETY: `child.id()` is a live, unreaped child of this process
    // (`Child` never waits unless asked, and it is consumed here);
    // `status` and `ru` are valid for writes of their C types, whose
    // layout `Rusage` reproduces for the only ABI the module compiles on.
    let got = unsafe { sys::wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = started.elapsed().as_secs_f64();
    if got < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(ChildUsage {
        wall_s,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        peak_rss_kib: ru.maxrss_kib.max(0) as u64,
        // WIFEXITED && WEXITSTATUS == 0 is an all-zero status word.
        exit_ok: status == 0,
    })
}

/// Spawns `cmd` and waits for it; see [`wait_child`].
pub fn run_child(cmd: &mut Command) -> io::Result<ChildUsage> {
    let started = Instant::now();
    let child = cmd.spawn()?;
    wait_child(child, started)
}

/// Asks `child` to stop with SIGTERM (the graceful stop `dgrace serve`
/// handles).
pub fn terminate(child: &Child) {
    // SAFETY: plain syscall on the pid of a child this process has not
    // reaped yet, so the pid cannot have been reused.
    unsafe { sys::kill(child.id() as i32, sys::SIGTERM) };
}

/// The calibration program's fixed work, in four parts of 10–30 ms each
/// on the host the bounds were set on: fill and sum a 32 MiB buffer (page
/// faults and streaming, what loading a trace is made of), a dependent
/// random walk over all of it (memory latency, what a scattered shadow
/// is made of), the same walk over 1 MiB of it (cache latency), and a
/// register-only mixing loop (core clock). Returns a checksum so that none
/// of it can be optimised away.
///
/// It uses no dgrace code, so it costs the same on every commit: the
/// only thing that moves it is the speed of the machine at that moment.
pub fn calibration_work() -> u64 {
    const WORDS: usize = 1 << 22;
    let mut buf: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut x = buf.iter().fold(0x243f_6a88_85a3_08d3u64, |x, v| {
        x.wrapping_add(*v).rotate_left(7)
    });
    let mut walk = |steps: usize, words: usize, shift: u32| {
        for _ in 0..steps {
            let slot = &mut buf[(x >> shift) as usize & (words - 1)];
            x = (x ^ *slot)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .rotate_left(29);
            *slot = x;
        }
    };
    walk(200_000, WORDS, 42);
    walk(3_000_000, 1 << 17, 47);
    for _ in 0..12_000_000 {
        x = (x ^ (x >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    }
    x
}

/// What the calibration takes on the reference host when it is quiet.
/// Timed metrics are scaled by `CALIBRATION_REFERENCE_S / calibration`,
/// so they read as seconds on that host.
pub const CALIBRATION_REFERENCE_S: f64 = 0.090;

/// How long the calibration program (`program calibrate`, which runs
/// [`calibration_work`] and exits) takes right now, spawn to exit, in
/// seconds: the yardstick the timed end-to-end metrics are normalised by.
///
/// The host the bounds were set on runs at speeds that drift by 10–25 %
/// over tens of seconds (no steal time, the other CPU idle: the whole
/// guest slows down), which is more than any bound worth having. A
/// calibration run on each side of every timed repetition sees the same
/// drift, and dividing by it takes most of it out: over 8 runs of each
/// workload the spread of the medians fell from 1–13 % to 2–4 %
/// (`README.md`, "Calibration").
pub fn calibrate(program: &std::path::Path) -> io::Result<f64> {
    let usage = run_child(
        Command::new(program)
            .arg("calibrate")
            .stdout(std::process::Stdio::null()),
    )?;
    if usage.exit_ok {
        Ok(usage.wall_s)
    } else {
        Err(io::Error::other("the calibration program failed"))
    }
}

/// `VmHWM` of a live process in KiB, from `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log for one workload's traced replay.
pub struct Spans {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; returns its result and the span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].end_ns = end;
        (out, (end - self.spans[id].start_ns) as f64 / 1e9)
    }

    /// Mean cost of recording one empty span, in nanoseconds.
    pub fn overhead_ns() -> f64 {
        const N: usize = 20_000;
        let mut probe = Spans::new("");
        let t = Instant::now();
        for _ in 0..N {
            probe.time("probe", |_| ());
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }

    /// Self time per span: duration minus the children's durations.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The log as a JSON document.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut o = format!("{{\"workload\": \"{}\", \"spans\": [", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            o.push_str(&format!(
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                own[i]
            ));
        }
        o.push_str("\n]}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_sets() {
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(
            (s.median, s.min, s.max, s.mad, s.n),
            (3.0, 1.0, 5.0, 2.0, 3)
        );
        let s = summarize(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.median, s.mad), (2.5, 1.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
    }

    #[test]
    fn child_usage_from_one_wait() {
        let ok = run_child(Command::new("true").stdout(std::process::Stdio::null())).unwrap();
        assert!(ok.exit_ok && ok.wall_s > 0.0 && ok.peak_rss_kib > 0);
        let bad = run_child(&mut Command::new("false")).unwrap();
        assert!(!bad.exit_ok);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let mut s = Spans::new("w");
        s.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = s.self_ns();
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(own[1] >= 5_000_000);
        assert!(own[0] < own[1], "outer's self time excludes inner");
        let j = crate::json::Json::parse(&s.to_json()).unwrap();
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
