//! `dgrace-ledger`: the dgrace performance ledger.
//!
//! `benchmark/run.sh` builds `dgrace` and this harness and calls it with
//! `--dgrace <binary> --work <scratch dir>` followed by one of:
//!
//! ```text
//! --workload W --seed N --seconds S --trace 0|1   one measured run (the driver's contract)
//! [--seed N] [--seconds S]                        every workload, both ways; writes results.json
//! --smoke                                         every workload at 1/20 size, checks only
//! compare <a.json> <b.json>                       two results.json files against the bounds
//! ```
//!
//! A run with `--trace 0` measures the user command through the `dgrace`
//! binary with tracing off and prints the end-to-end metrics; `--trace 1`
//! replays the same input layer by layer in-process and prints the
//! per-layer metrics. Either way the last line of standard output is the
//! result object.

mod e2e;
mod gen;
mod json;
mod layers;
mod measure;
mod metrics;
mod pinned;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use e2e::{Env, RunSample};
use json::{num, Json};
use measure::{calibrate, run_child, summarize, Spans, Summary, CALIBRATION_REFERENCE_S};
use metrics::{END_TO_END, PER_LAYER};
use workloads::{Files, Reference, User, Workload, WORKLOADS};

/// Seed of a full run when none is given.
const DEFAULT_SEED: u64 = 7;
/// Measured seconds of one run when none are given; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;
/// Times a workload is set up in one run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured repetitions of the user command, however slow.
const MIN_REPS: usize = 3;
/// How much smaller `--smoke` makes every input.
const SMOKE_DIV: u64 = 20;

/// Options shared by every mode.
struct Opts {
    env: Env,
    seed: u64,
    seconds: u64,
    smoke: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dgrace-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` means the mode ran and its verdict is "not good": a failed
/// smoke check, a run that was not correct in a full run, a bound
/// exceeded in `compare`.
fn run(argv: &[String]) -> Result<bool, String> {
    let mut opt: BTreeMap<&str, &str> = BTreeMap::new();
    let mut positional = Vec::new();
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => smoke = true,
            name @ ("--dgrace" | "--work" | "--workload" | "--seed" | "--seconds" | "--trace") => {
                let value = argv
                    .get(i + 1)
                    .ok_or(format!("option `{name}` needs a value"))?;
                opt.insert(name, value);
                i += 1;
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => positional.push(other),
        }
        i += 1;
    }
    let number = |name: &str, default: u64| match opt.get(name) {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("option `{name}`: cannot parse `{v}`")),
        None => Ok(default),
    };

    if positional == ["calibrate"] {
        println!("{}", measure::calibration_work());
        return Ok(true);
    }
    if positional.first() == Some(&"compare") {
        return match positional.as_slice() {
            [_, a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        };
    }

    let o = Opts {
        env: Env {
            dgrace: PathBuf::from(opt.get("--dgrace").ok_or("missing --dgrace <binary>")?),
            work: PathBuf::from(opt.get("--work").ok_or("missing --work <dir>")?),
        },
        seed: number("--seed", DEFAULT_SEED)?,
        seconds: number("--seconds", if smoke { 0 } else { DEFAULT_SECONDS })?,
        smoke,
    };
    let workload = match opt.get("--workload") {
        Some(name) => {
            let w = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
            Some(if smoke { w.shrunk(SMOKE_DIV) } else { *w })
        }
        None => None,
    };
    match (positional.as_slice(), workload) {
        (["setup"], Some(w)) => {
            workloads::set_up(&w, o.seed, &Files::new(&o.env.work, w.name))?;
            Ok(true)
        }
        ([], Some(w)) => {
            let result = match number("--trace", 0)? {
                0 => measure_end_to_end(&o, &w)?,
                1 => measure_layers(&o, &w)?,
                t => return Err(format!("--trace must be 0 or 1, got {t}")),
            };
            result.report(&o)?;
            Ok(true)
        }
        ([], None) => full(&o),
        _ => Err(format!("unexpected arguments {positional:?}")),
    }
}

/// The outcome of one measured run: every metric of one table with its
/// spread, and the verification counts.
struct RunResult {
    workload: &'static str,
    trace: u8,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, Summary)>,
    /// The calibration runs of a `--trace 0` run, in raw seconds.
    calibration_s: Option<Summary>,
}

impl RunResult {
    fn new(workload: &'static str, trace: u8) -> Self {
        RunResult {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            calibration_s: None,
        }
    }

    /// Adds the verification counts of one run or replay pass.
    fn tally(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend_from_slice(failures);
    }

    /// Prints every metric by name with its unit and spread, writes the
    /// detailed result beside the inputs, and prints the result object as
    /// the last line.
    fn report(&self, o: &Opts) -> Result<(), String> {
        for f in &self.failures {
            eprintln!("FAILED {}: {f}", self.workload);
        }
        println!(
            "{} (seed {}, --trace {}): {} attempted, {} failed",
            self.workload, o.seed, self.trace, self.attempted, self.failed
        );
        let unit = |name: &str| metrics::unit_of(name).unwrap_or("");
        for (name, s) in &self.metrics {
            println!(
                "  {name:<38} {:>16.6} {:<6} (min {:.6}, max {:.6}, MAD {:.6}, n={})",
                s.median,
                unit(name),
                s.min,
                s.max,
                s.mad,
                s.n
            );
        }
        let mut calibration = String::new();
        if let Some(c) = self.calibration_s {
            println!(
                "  calibration {:.4} s (min {:.4}, max {:.4}, n={}): host at {:.2}x the reference speed; \
                 the times above are scaled to the reference",
                c.median,
                c.min,
                c.max,
                c.n,
                CALIBRATION_REFERENCE_S / c.median
            );
            calibration = format!("\"calibration_s\": {{{}}}, ", c.json_fields());
        }
        let correct = self.failed == 0;
        let detail: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\": {{{}, \"unit\": \"{}\"}}",
                    s.json_fields(),
                    unit(name)
                )
            })
            .collect();
        let detail = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \
             \"attempted\": {}, \"failed\": {}, {calibration}\"metrics\": {{\n  {}\n}}}}\n",
            self.workload,
            o.seed,
            o.seconds,
            self.trace,
            self.attempted,
            self.failed,
            detail.join(",\n  ")
        );
        let path = detail_path(&o.env.work, self.workload, self.trace);
        std::fs::write(&path, detail).map_err(|e| format!("write {}: {e}", path.display()))?;

        let flat: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    num(s.median),
                    unit(name)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            flat.join(", ")
        );
        Ok(())
    }
}

fn detail_path(work: &Path, workload: &str, trace: u8) -> PathBuf {
    work.join(format!("result-{workload}-trace{trace}.json"))
}

/// This executable with the options every mode shares.
fn this_program(o: &Opts) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--dgrace")
        .arg(&o.env.dgrace)
        .arg("--work")
        .arg(&o.env.work);
    cmd.args(["--seed", &o.seed.to_string()]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// `--trace 0`: sets the workload up (in a process of its own, several
/// times, for `setup_s`), then repeats the user command through the
/// `dgrace` binary for `--seconds` seconds after one discarded warm-up.
/// Every timed step has a calibration run on each side, and its times are
/// scaled to the reference host's speed (see [`calibrate`]).
fn measure_end_to_end(o: &Opts, w: &Workload) -> Result<RunResult, String> {
    let files = Files::new(&o.env.work, w.name);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sample = || calibrate(&exe).map_err(|e| format!("calibration: {e}"));
    let mut calibrations = vec![sample()?];
    // The factor that turns a time measured since the last calibration
    // into reference-host seconds: the calibrations on both sides of it.
    let scale = |calibrations: &mut Vec<f64>| -> Result<f64, String> {
        let before = calibrations[calibrations.len() - 1];
        let after = sample()?;
        calibrations.push(after);
        Ok(CALIBRATION_REFERENCE_S / ((before + after) / 2.0))
    };

    // Set-up runs in a child so this process stays small: Linux carries
    // the spawner's peak RSS across exec as the floor of a child's
    // `ru_maxrss`, and the children measured below are the point.
    let mut setup_s = Vec::new();
    for _ in 0..if o.smoke { 1 } else { SETUPS } {
        let usage = run_child(this_program(o)?.args(["setup", "--workload", w.name]))
            .map_err(|e| format!("spawn set-up: {e}"))?;
        if !usage.exit_ok {
            return Err(format!("{}: set-up failed", w.name));
        }
        setup_s.push(usage.wall_s * scale(&mut calibrations)?);
    }
    let reference = Reference::load(&files.reference)?;

    // `serve` streams from memory and reads its modeled shadow peak
    // through the CLI once; the CLI workloads read it off every run.
    let serve_input = match w.user {
        User::Serve => Some((
            pinned::decode_trace_file(&files.input)?,
            e2e::shadow_peak_via_cli(&o.env, &files, &reference)?,
        )),
        _ => None,
    };
    let once = || -> RunSample {
        match &serve_input {
            Some((trace, shadow_peak)) => {
                let (mut run, _) = e2e::run_serve(&o.env, &files, &trace.events, &reference);
                run.shadow_peak_bytes = *shadow_peak;
                run
            }
            None => e2e::run_cli(&o.env, w, &files, &reference),
        }
    };

    let mut result = RunResult::new(w.name, 0);
    if !o.smoke {
        // The warm-up's time is discarded; its verification is not.
        let warm_up = once();
        result.tally(warm_up.attempted, warm_up.failed, &warm_up.failures);
        scale(&mut calibrations)?;
    }
    let mut runs: Vec<RunSample> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let min_reps = if o.smoke { 1 } else { MIN_REPS };
    while runs.len() < min_reps || Instant::now() < deadline {
        let mut run = once();
        result.tally(run.attempted, run.failed, &run.failures);
        let factor = scale(&mut calibrations)?;
        run.wall_s *= factor;
        run.cpu_s *= factor;
        runs.push(run);
    }

    let series = |f: &dyn Fn(&RunSample) -> f64| -> Result<Summary, String> {
        summarize(&runs.iter().map(f).collect::<Vec<_>>()).ok_or("no repetitions".to_string())
    };
    let mev = |r: &RunSample| r.events as f64 / 1e6;
    for m in &END_TO_END {
        let summary = match m.name {
            "events_per_s" => series(&|r| r.events as f64 / r.wall_s)?,
            "cpu_s_per_mev" => series(&|r| r.cpu_s / mev(r))?,
            "peak_rss_mib" => series(&|r| r.peak_rss_kib as f64 / 1024.0)?,
            "shadow_peak_bytes" => series(&|r| r.shadow_peak_bytes as f64)?,
            "setup_s" => summarize(&setup_s).ok_or("no set-up")?,
            other => unreachable!("end-to-end metric `{other}` has no measurement"),
        };
        result.metrics.push((m.name, summary));
    }
    result.calibration_s = summarize(&calibrations);
    Ok(result)
}

/// `--trace 1`: sets the workload up in-process and replays its input
/// layer by layer, as many passes as fit in `--seconds` (at least one);
/// each metric is the median over the passes.
fn measure_layers(o: &Opts, w: &Workload) -> Result<RunResult, String> {
    let files = Files::new(&o.env.work, w.name);
    let (trace, reference) = workloads::set_up(w, o.seed, &files)?;
    let mut spans = Spans::new(w.name);
    let mut result = RunResult::new(w.name, 1);
    let mut passes: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let began = Instant::now();
    loop {
        let pass_began = Instant::now();
        let pass = layers::replay(&o.env, w, &files, &trace, &reference, &mut spans)?;
        result.tally(pass.attempted, pass.failed, &pass.failures);
        passes.push(pass.metrics);
        // Another pass only if it would end inside the window.
        if began.elapsed() + pass_began.elapsed() > Duration::from_secs(o.seconds) {
            break;
        }
    }
    for (name, _, _) in &PER_LAYER {
        let values: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        let summary = summarize(&values).ok_or(format!("the replay produced no `{name}`"))?;
        result.metrics.push((name, summary));
    }
    let path = o.env.work.join(format!("spans-{}.json", w.name));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(result)
}

/// Every workload both ways, each run in a process of its own (so one
/// run's memory never shows in the next one's children), then
/// `results.json`. Every result line is checked against the driver's
/// schema and the metric tables; `--smoke` makes the inputs small and the
/// repetitions one, and also checks `BENCHMARK.json` against the tables.
fn full(o: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&o.env.work)
        .map_err(|e| format!("create {}: {e}", o.env.work.display()))?;
    let began = Instant::now();
    let mut good = true;
    if o.smoke {
        good &= check(
            benchmark_json_agrees(Path::new("BENCHMARK.json")),
            "BENCHMARK.json",
        );
    }
    let mut sections = Vec::new();
    for w in &WORKLOADS {
        let mut tables = Vec::new();
        for (trace, table) in [(0u8, "end_to_end"), (1u8, "per_layer")] {
            let out = this_program(o)?
                .args(["--workload", w.name])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            if !out.status.success() {
                return Err(format!("{} --trace {trace}: the run failed", w.name));
            }
            let last = stdout.lines().last().unwrap_or("");
            let what = format!("{} --trace {trace} result line", w.name);
            good &= check(result_line_is_well_formed(last, trace), &what);
            let path = detail_path(&o.env.work, w.name, trace);
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            tables.push(format!("\"{table}\": {}", detail.trim_end()));
        }
        sections.push(format!("\"{}\": {{{}}}", w.name, tables.join(", ")));
    }
    let results = format!(
        "{{\"seed\": {}, \"run_seconds\": {}, \"smoke\": {}, \"host_cpus\": {}, \"workloads\": {{\n{}\n}}}}\n",
        o.seed,
        o.seconds,
        o.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sections.join(",\n")
    );
    let path = o.env.work.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{}: wrote {} in {:.0} s",
        if good { "ok" } else { "NOT OK" },
        path.display(),
        began.elapsed().as_secs_f64()
    );
    Ok(good)
}

fn check(outcome: Result<(), String>, what: &str) -> bool {
    if let Err(e) = &outcome {
        eprintln!("CHECK FAILED {what}: {e}");
    }
    outcome.is_ok()
}

/// The driver's contract for the last line of a run: exactly `correct`,
/// `attempted`, `failed` and `metrics`; every metric of the table for
/// this `--trace`, and no other, each a number with the table's unit.
/// The ledger additionally wants the run correct.
fn result_line_is_well_formed(line: &str, trace: u8) -> Result<(), String> {
    let doc = Json::parse(line)?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("not an object")?
        .keys()
        .map(String::as_str)
        .collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("keys are {keys:?}"));
    }
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("`correct` is not true".into());
    }
    if doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) < 1 {
        return Err("`attempted` is not a count of at least 1".into());
    }
    if doc.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err("`failed` is not 0".into());
    }
    let expected: Vec<(&str, &str)> = match trace {
        0 => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        _ => PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
    };
    let got = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no `metrics` object")?;
    if got.len() != expected.len() {
        return Err(format!(
            "{} metrics, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let m = got.get(name).ok_or(format!("metric `{name}` is missing"))?;
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("`{name}` has no numeric value"))?;
        if !value.is_finite() {
            return Err(format!("`{name}` is not finite"));
        }
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("`{name}` does not carry unit `{unit}`"));
        }
        if trace == 0 && value <= 0.0 {
            return Err(format!("end-to-end metric `{name}` is {value}"));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` repeats the workload and metric tables for the
/// driver; this holds the two together.
fn benchmark_json_agrees(path: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let rows = |key: &str, fields: &[&str]| -> Result<Vec<Vec<String>>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("no `{key}` array"))?
            .iter()
            .map(|row| {
                fields
                    .iter()
                    .map(|f| match row.get(f) {
                        Some(Json::Str(s)) => Ok(s.clone()),
                        Some(Json::Num(n)) => Ok(num(*n)),
                        _ => Err(format!("a `{key}` row lacks `{f}`")),
                    })
                    .collect()
            })
            .collect()
    };
    if rows("workloads", &["name", "why"])?
        != WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect::<Vec<_>>()
    {
        return Err("`workloads` differs from workloads.rs".into());
    }
    if rows("end_to_end", &["name", "unit", "better", "bound"])?
        != END_TO_END
            .iter()
            .map(|m| {
                vec![
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.to_string(),
                    num(m.bound),
                ]
            })
            .collect::<Vec<_>>()
    {
        return Err("`end_to_end` differs from metrics.rs".into());
    }
    if rows("per_layer", &["name", "unit", "better"])?
        != PER_LAYER
            .iter()
            .map(|m| vec![m.0.to_string(), m.1.to_string(), m.2.to_string()])
            .collect::<Vec<_>>()
    {
        return Err("`per_layer` differs from metrics.rs".into());
    }
    if doc.get("run_seconds").and_then(Json::as_u64) != Some(DEFAULT_SECONDS) {
        return Err(format!("`run_seconds` is not {DEFAULT_SECONDS}"));
    }
    Ok(())
}

/// `compare a.json b.json`: for every (workload, end-to-end metric) both
/// medians, the relative change from `a` to `b`, and the bound; `false`
/// when `b` is worse than `a` by more than a bound or reports a failure.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let table = |doc: &Json, workload: &str| -> Option<Json> {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")
            .cloned()
    };
    let median = |t: &Json, metric: &str| -> Option<f64> {
        t.get("metrics")?.get(metric)?.get("median")?.as_f64()
    };
    println!(
        "{:<10} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    let mut good = true;
    for w in &WORKLOADS {
        let (ta, tb) = match (table(&a, w.name), table(&b, w.name)) {
            (Some(ta), Some(tb)) => (ta, tb),
            _ => return Err(format!("workload `{}` is missing from a file", w.name)),
        };
        for m in &END_TO_END {
            let (va, vb) = match (median(&ta, m.name), median(&tb, m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{}: `{}` is missing from a file", w.name, m.name)),
            };
            let change = (vb - va) / va;
            let worse = if m.better == "higher" {
                -change
            } else {
                change
            };
            let verdict = if worse > m.bound { "  REGRESSION" } else { "" };
            good &= worse <= m.bound;
            println!(
                "{:<10} {:<18} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                change * 100.0,
                m.bound * 100.0
            );
        }
        for (side, t) in [("a", &ta), ("b", &tb)] {
            let failed = t.get("failed").and_then(Json::as_u64);
            if failed != Some(0) {
                println!(
                    "{:<10} {side}: failed = {failed:?} (bound: 0, absolute)",
                    w.name
                );
                good = false;
            }
        }
    }
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(trace: u8) -> String {
        let metrics: Vec<String> = match trace {
            0 => END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
            _ => PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
        }
        .iter()
        .map(|(n, u)| format!("\"{n}\": {{\"value\": 1.5, \"unit\": \"{u}\"}}"))
        .collect();
        format!(
            "{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    #[test]
    fn result_line_schema() {
        result_line_is_well_formed(&line(0), 0).unwrap();
        result_line_is_well_formed(&line(1), 1).unwrap();
        assert!(result_line_is_well_formed(&line(0), 1).is_err());
        assert!(
            result_line_is_well_formed(&line(0).replace("\"failed\": 0", "\"failed\": 1"), 0)
                .is_err()
        );
        assert!(result_line_is_well_formed(
            &line(0).replace("\"unit\": \"MiB\"", "\"unit\": \"MB\""),
            0
        )
        .is_err());
        assert!(result_line_is_well_formed(&line(0).replacen("1.5", "0", 1), 0).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in names.iter().chain(WORKLOADS.iter().map(|w| &w.name)) {
            assert!(
                ok(n, "_.-", 64) && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(ok(metrics::unit_of(n).unwrap_or("s"), "_/%.-", 16));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn committed_benchmark_json_agrees_with_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        benchmark_json_agrees(&path).unwrap();
    }
}
