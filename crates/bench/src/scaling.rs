//! The `BENCH_detect.json` schema, shared by the `bench_detect` writer
//! and the `bench_scaling_gate` checker.
//!
//! Schema (`schema_version` 4): `{ schema_version, scale, seed,
//! host_cpus, runs: [ { workload, detector, variant, store, shards,
//! events, best_secs, events_per_sec, races, vc_allocs,
//! peak_vc_bytes, peak_total_bytes, recall } ] }`. Keys are emitted in
//! that order; new keys may be appended but existing ones never renamed.
//! `host_cpus` records the parallelism of the machine that produced the
//! file — scaling claims are only meaningful relative to it, so the
//! gate reads it before judging speedup ratios. Version 3 adds the
//! `variant` column (`cold` for every unsampled row). Version 4 adds
//! the `recall` column and the `sampled@<spec>` rows: the dynamic
//! detector behind the sampling tier, with recall measured against the full (unsampled)
//! detector's race set on the same cell. Sampled rows run at shards=1
//! only — they chart recall vs overhead, not the scaling curve — so the
//! structural full-curve requirement exempts them.
//!
//! The parser below is deliberately minimal: it reads exactly the format
//! [`BenchFile::to_json`] emits (one run object per line), which is the
//! only producer. It is not a general JSON parser.

use std::fmt::Write as _;

/// One timed replay: a (workload, detector, store, shards) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Workload name (e.g. `pbzip2`, `sharing-churn`).
    pub workload: String,
    /// Detector name as reported (e.g. `dynamic`, `fasttrack-byte`).
    pub detector: String,
    /// `cold` (the bare detector) or `sampled@<spec>`. Absent in schema
    /// ≤ 2 files, where every row is `cold`.
    pub variant: String,
    /// Shadow store: `hash` or `paged`.
    pub store: String,
    /// Shard count; 1 replays through the funnel, >1 through the
    /// SPSC-ring pipeline.
    pub shards: usize,
    /// Events analyzed.
    pub events: u64,
    /// Best (minimum) wall-clock seconds over the reps — the
    /// least-noise-contaminated estimate on a shared host.
    pub best_secs: f64,
    /// Races reported.
    pub races: usize,
    /// Vector-clock allocations.
    pub vc_allocs: u64,
    /// Peak vector-clock bytes.
    pub peak_vc_bytes: usize,
    /// Peak total shadow bytes.
    pub peak_total_bytes: usize,
    /// Fraction of the full detector's racy locations this run reported
    /// (race-address set intersection over the full set). `1.0` for
    /// unsampled rows by construction; absent in schema ≤ 3 files,
    /// where it defaults to `1.0`.
    pub recall: f64,
}

impl BenchRun {
    /// Throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_secs.max(1e-9)
    }

    /// Whether this row ran behind the sampling tier (`variant` is
    /// `sampled@<spec>`). Sampled rows chart the recall-vs-overhead
    /// curve at shards=1 and are exempt from the full-curve and
    /// race-agreement structural requirements.
    pub fn is_sampled(&self) -> bool {
        self.variant.starts_with("sampled@")
    }
}

/// The whole baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Schema version (2 adds `host_cpus` and the 8/16-shard points;
    /// 3 adds the `variant` column).
    pub schema_version: u64,
    /// Workload scale factor the traces were generated at.
    pub scale: f64,
    /// Workload generator seed.
    pub seed: u64,
    /// `std::thread::available_parallelism()` on the producing machine.
    pub host_cpus: usize,
    /// One entry per (workload, detector, store, shards) cell.
    pub runs: Vec<BenchRun>,
}

impl BenchFile {
    /// Serializes in the stable one-run-per-line layout.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"host_cpus\": {},", self.host_cpus);
        out.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"detector\": \"{}\", \"variant\": \"{}\", \
                 \"store\": \"{}\", \
                 \"shards\": {}, \"events\": {}, \"best_secs\": {:.6}, \
                 \"events_per_sec\": {:.0}, \"races\": {}, \"vc_allocs\": {}, \
                 \"peak_vc_bytes\": {}, \"peak_total_bytes\": {}, \"recall\": {:.4}}}",
                r.workload,
                r.detector,
                r.variant,
                r.store,
                r.shards,
                r.events,
                r.best_secs,
                r.events_per_sec(),
                r.races,
                r.vc_allocs,
                r.peak_vc_bytes,
                r.peak_total_bytes,
                r.recall,
            );
            out.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the format `to_json` emits. Returns a description of the
    /// first problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let schema_version = scalar(text, "schema_version")?
            .parse::<u64>()
            .map_err(|e| format!("schema_version: {e}"))?;
        let scale = scalar(text, "scale")?
            .parse::<f64>()
            .map_err(|e| format!("scale: {e}"))?;
        let seed = scalar(text, "seed")?
            .parse::<u64>()
            .map_err(|e| format!("seed: {e}"))?;
        // Absent in schema 1 files; default to 0 ("unknown") so the gate
        // can still diagnose them with a useful message.
        let host_cpus = scalar(text, "host_cpus")
            .ok()
            .map(|v| v.parse::<usize>().map_err(|e| format!("host_cpus: {e}")))
            .transpose()?
            .unwrap_or(0);
        let mut runs = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with("{\"workload\"") {
                continue;
            }
            runs.push(BenchRun {
                workload: string_field(line, "workload")?,
                detector: string_field(line, "detector")?,
                // Absent before schema 3: every older row ran cold.
                variant: string_field(line, "variant").unwrap_or_else(|_| "cold".into()),
                store: string_field(line, "store")?,
                shards: num_field(line, "shards")?,
                events: num_field(line, "events")?,
                best_secs: num_field(line, "best_secs")?,
                races: num_field(line, "races")?,
                vc_allocs: num_field(line, "vc_allocs")?,
                peak_vc_bytes: num_field(line, "peak_vc_bytes")?,
                peak_total_bytes: num_field(line, "peak_total_bytes")?,
                // Absent before schema 4: unsampled rows see everything.
                recall: num_field(line, "recall").unwrap_or(1.0),
            });
        }
        if runs.is_empty() {
            return Err("no runs found".into());
        }
        Ok(BenchFile {
            schema_version,
            scale,
            seed,
            host_cpus,
            runs,
        })
    }

    /// The run for a (workload, detector, store, shards) cell, if any.
    pub fn cell(
        &self,
        workload: &str,
        detector: &str,
        store: &str,
        shards: usize,
    ) -> Option<&BenchRun> {
        self.runs.iter().find(|r| {
            r.workload == workload
                && r.detector == detector
                && r.store == store
                && r.shards == shards
        })
    }

    /// Distinct values of a key dimension, in first-seen order.
    pub fn dimension(&self, f: impl Fn(&BenchRun) -> &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.runs {
            if !out.iter().any(|v| v == f(r)) {
                out.push(f(r).to_string());
            }
        }
        out
    }

    /// Distinct (detector, store) pairs, in first-seen order. Detector
    /// names embed the store variant (e.g. `dynamic+paged`), so the
    /// pairing is intrinsic — a cross product of the two dimensions
    /// would invent cells that never run. Sampled rows are excluded:
    /// they deliberately run a partial grid (shards=1 only).
    pub fn detector_stores(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for r in &self.runs {
            if r.is_sampled() {
                continue;
            }
            if !out.iter().any(|(d, s)| *d == r.detector && *s == r.store) {
                out.push((r.detector.clone(), r.store.clone()));
            }
        }
        out
    }
}

/// Extracts the value after `"key": ` up to `,` or newline from the
/// top-level header lines.
fn scalar<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat).ok_or_else(|| format!("missing {key}"))?;
    let rest = &text[at + pat.len()..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

fn string_field(line: &str, key: &str) -> Result<String, String> {
    let raw = scalar(line, key)?;
    Ok(raw.trim_matches(['"', '}', ' ']).to_string())
}

fn num_field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = scalar(line, key)?;
    raw.trim_matches(['"', '}', ' '])
        .parse::<T>()
        .map_err(|e| format!("{key}: {e}"))
}

/// The shard counts every baseline must cover.
pub const REQUIRED_SHARDS: [usize; 5] = [1, 2, 4, 8, 16];

/// Speedup required of shards=4 over shards=1 on a parallel host.
pub const SPEEDUP_FLOOR: f64 = 1.8;
/// Number of workloads that must clear [`SPEEDUP_FLOOR`].
pub const SPEEDUP_WORKLOADS: usize = 3;
/// On hosts with fewer than 4 CPUs real speedup is unmeasurable; the
/// pipeline must merely not crater relative to the funnel.
pub const SERIAL_RATIO_FLOOR: f64 = 0.2;

/// Structural validation: full shard curve per cell, and identical
/// events/races across the curve (the paths must analyze the same trace
/// and agree on the verdict). Sampled rows are exempt from the curve
/// requirement but must carry a recall in `[0, 1]`; unsampled rows must
/// report exactly `1.0` (they see everything, by definition).
pub fn check_structure(file: &BenchFile) -> Vec<String> {
    let mut errors = Vec::new();
    if file.schema_version != 4 {
        errors.push(format!("schema_version {} != 4", file.schema_version));
    }
    if file.host_cpus == 0 {
        errors.push("host_cpus missing or zero".into());
    }
    for r in &file.runs {
        if !(0.0..=1.0).contains(&r.recall) {
            errors.push(format!(
                "{}/{}/{} shards={}: recall {} outside [0, 1]",
                r.workload, r.detector, r.store, r.shards, r.recall
            ));
        } else if !r.is_sampled() && r.recall != 1.0 {
            errors.push(format!(
                "{}/{}/{} shards={}: unsampled row has recall {} != 1",
                r.workload, r.detector, r.store, r.shards, r.recall
            ));
        }
    }
    for workload in file.dimension(|r| &r.workload) {
        for (detector, store) in file.detector_stores() {
            let base = match file.cell(&workload, &detector, &store, 1) {
                Some(b) => b,
                None => {
                    errors.push(format!("{workload}/{detector}/{store}: missing shards=1"));
                    continue;
                }
            };
            for shards in REQUIRED_SHARDS {
                match file.cell(&workload, &detector, &store, shards) {
                    None => errors.push(format!(
                        "{workload}/{detector}/{store}: missing shards={shards}"
                    )),
                    Some(r) => {
                        if r.events != base.events {
                            errors.push(format!(
                                "{workload}/{detector}/{store}: events diverge at shards={shards} ({} vs {})",
                                r.events, base.events
                            ));
                        }
                        if r.races != base.races {
                            errors.push(format!(
                                "{workload}/{detector}/{store}: races diverge at shards={shards} ({} vs {})",
                                r.races, base.races
                            ));
                        }
                    }
                }
            }
        }
    }
    errors
}

/// Scaling-policy validation. Returns `(errors, warnings)`.
///
/// On a host with ≥ 4 CPUs: at least [`SPEEDUP_WORKLOADS`] workloads
/// must reach [`SPEEDUP_FLOOR`]× at shards=4 (best detector × store
/// combination per workload). On a narrower host real parallel speedup
/// cannot exist, so the requirement degrades to a warning plus a floor:
/// no cell may fall below [`SERIAL_RATIO_FLOOR`]× its shards=1
/// throughput (pipeline overhead must stay bounded even when every
/// thread shares one core).
pub fn check_scaling(file: &BenchFile) -> (Vec<String>, Vec<String>) {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();
    let ratio4 = |workload: &str| -> f64 {
        let mut best = 0.0f64;
        for (detector, store) in file.detector_stores() {
            if let (Some(r4), Some(r1)) = (
                file.cell(workload, &detector, &store, 4),
                file.cell(workload, &detector, &store, 1),
            ) {
                best = best.max(r4.events_per_sec() / r1.events_per_sec().max(1e-9));
            }
        }
        best
    };
    if file.host_cpus >= 4 {
        let workloads = file.dimension(|r| &r.workload);
        let cleared: Vec<String> = workloads
            .iter()
            .filter(|w| ratio4(w) >= SPEEDUP_FLOOR)
            .cloned()
            .collect();
        if cleared.len() < SPEEDUP_WORKLOADS {
            errors.push(format!(
                "host_cpus={} but only {}/{} workloads reach {SPEEDUP_FLOOR}x at shards=4 (need {SPEEDUP_WORKLOADS}): cleared {:?}",
                file.host_cpus,
                cleared.len(),
                workloads.len(),
                cleared
            ));
        }
    } else {
        if file.host_cpus == 1 {
            warnings.push(
                "host_cpus=1: single-core host — the multi-core speedup claim \
                 (>=1.8x at shards=4) is UNVERIFIED by this baseline; regenerate \
                 BENCH_detect.json on a >=4-core host to verify it"
                    .into(),
            );
        }
        warnings.push(format!(
            "host_cpus={} < 4: parallel speedup unmeasurable on this host; applying serial floor {SERIAL_RATIO_FLOOR}x instead of speedup gate",
            file.host_cpus
        ));
        for r in &file.runs {
            if r.shards == 1 {
                continue;
            }
            if let Some(base) = file.cell(&r.workload, &r.detector, &r.store, 1) {
                let ratio = r.events_per_sec() / base.events_per_sec().max(1e-9);
                if ratio < SERIAL_RATIO_FLOOR {
                    errors.push(format!(
                        "{}/{}/{} shards={}: {:.2}x of shards=1 is below the serial floor {SERIAL_RATIO_FLOOR}x",
                        r.workload, r.detector, r.store, r.shards, ratio
                    ));
                }
            }
        }
    }
    (errors, warnings)
}

/// Determinism comparison between a freshly produced file and the
/// checked-in baseline: the run grid, event counts, and race counts must
/// match exactly; timings are machine-dependent and only produce
/// warnings when `tolerance` is exceeded (as a fraction, e.g. `0.5` =
/// ±50%).
pub fn compare(
    fresh: &BenchFile,
    baseline: &BenchFile,
    tolerance: Option<f64>,
) -> (Vec<String>, Vec<String>) {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();
    if fresh.scale != baseline.scale || fresh.seed != baseline.seed {
        errors.push(format!(
            "grid mismatch: fresh scale={} seed={} vs baseline scale={} seed={}",
            fresh.scale, fresh.seed, baseline.scale, baseline.seed
        ));
        return (errors, warnings);
    }
    for b in &baseline.runs {
        match fresh.cell(&b.workload, &b.detector, &b.store, b.shards) {
            None => errors.push(format!(
                "{}/{}/{} shards={}: present in baseline, missing in fresh run",
                b.workload, b.detector, b.store, b.shards
            )),
            Some(f) => {
                if f.events != b.events || f.races != b.races {
                    errors.push(format!(
                        "{}/{}/{} shards={}: fresh (events={}, races={}) != baseline (events={}, races={})",
                        b.workload, b.detector, b.store, b.shards, f.events, f.races, b.events, b.races
                    ));
                }
                if let Some(tol) = tolerance {
                    let ratio = f.events_per_sec() / b.events_per_sec().max(1e-9);
                    if ratio < 1.0 - tol || ratio > 1.0 + tol {
                        warnings.push(format!(
                            "{}/{}/{} shards={}: throughput {:.2}x of baseline (outside ±{:.0}%)",
                            b.workload,
                            b.detector,
                            b.store,
                            b.shards,
                            ratio,
                            tol * 100.0
                        ));
                    }
                }
            }
        }
    }
    if fresh.runs.len() != baseline.runs.len() {
        errors.push(format!(
            "run count mismatch: fresh {} vs baseline {}",
            fresh.runs.len(),
            baseline.runs.len()
        ));
    }
    (errors, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_with(ratio4: f64, host_cpus: usize) -> BenchFile {
        let mut runs = Vec::new();
        for workload in ["a", "b", "c", "d"] {
            for shards in REQUIRED_SHARDS {
                let speed = if shards == 4 { ratio4 } else { 1.0 };
                runs.push(BenchRun {
                    workload: workload.into(),
                    detector: "dynamic".into(),
                    variant: "cold".into(),
                    store: "hash".into(),
                    shards,
                    events: 1000,
                    best_secs: 1.0 / speed,
                    races: 2,
                    vc_allocs: 5,
                    peak_vc_bytes: 64,
                    peak_total_bytes: 128,
                    recall: 1.0,
                });
            }
        }
        BenchFile {
            schema_version: 4,
            scale: 1.0,
            seed: 7,
            host_cpus,
            runs,
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let f = file_with(2.0, 8);
        let parsed = BenchFile::parse(&f.to_json()).unwrap();
        assert_eq!(parsed.schema_version, 4);
        assert_eq!(parsed.host_cpus, 8);
        assert_eq!(parsed.runs.len(), f.runs.len());
        assert_eq!(parsed.runs[0], f.runs[0]);
        assert!(
            check_structure(&parsed).is_empty(),
            "{:?}",
            check_structure(&parsed)
        );
    }

    #[test]
    fn structure_flags_missing_curve_and_divergence() {
        let mut f = file_with(2.0, 8);
        f.runs.retain(|r| !(r.workload == "a" && r.shards == 16));
        f.runs
            .iter_mut()
            .find(|r| r.workload == "b" && r.shards == 8)
            .unwrap()
            .races = 99;
        let errors = check_structure(&f);
        assert!(
            errors.iter().any(|e| e.contains("missing shards=16")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("races diverge")),
            "{errors:?}"
        );
    }

    #[test]
    fn scaling_gate_depends_on_host_width() {
        // Wide host, good speedup: passes.
        let (e, _) = check_scaling(&file_with(2.0, 8));
        assert!(e.is_empty(), "{e:?}");
        // Wide host, no speedup: fails.
        let (e, _) = check_scaling(&file_with(1.0, 8));
        assert_eq!(e.len(), 1);
        // Narrow host, no speedup: warns, passes the serial floor.
        let (e, w) = check_scaling(&file_with(1.0, 1));
        assert!(e.is_empty(), "{e:?}");
        assert!(!w.is_empty());
        // Narrow host, cratered pipeline: fails the floor.
        let (e, _) = check_scaling(&file_with(0.05, 1));
        assert!(!e.is_empty());
    }

    #[test]
    fn sampled_rows_are_curve_exempt_but_recall_checked() {
        let mut f = file_with(2.0, 8);
        // A sampled row at shards=1 only: no curve requirement.
        f.runs.push(BenchRun {
            workload: "a".into(),
            detector: "dynamic+sampled@loc:2".into(),
            variant: "sampled@loc:2".into(),
            store: "hash".into(),
            shards: 1,
            events: 1000,
            best_secs: 0.25,
            races: 1,
            vc_allocs: 3,
            peak_vc_bytes: 32,
            peak_total_bytes: 64,
            recall: 0.5,
        });
        let errors = check_structure(&f);
        assert!(errors.is_empty(), "{errors:?}");
        // Out-of-range recall on a sampled row is flagged.
        f.runs.last_mut().unwrap().recall = 1.5;
        assert!(
            check_structure(&f).iter().any(|e| e.contains("outside")),
            "{:?}",
            check_structure(&f)
        );
        // An unsampled row claiming partial recall is flagged.
        f.runs.last_mut().unwrap().recall = 1.0;
        f.runs[0].recall = 0.9;
        assert!(
            check_structure(&f)
                .iter()
                .any(|e| e.contains("unsampled row has recall")),
            "{:?}",
            check_structure(&f)
        );
    }

    #[test]
    fn single_core_host_gets_explicit_unverified_warning() {
        let (e, w) = check_scaling(&file_with(1.0, 1));
        assert!(e.is_empty(), "{e:?}");
        assert!(
            w.iter().any(|m| m.contains("UNVERIFIED")),
            "host_cpus=1 must state the speedup claim is unverified: {w:?}"
        );
        // A 2-core host gets the generic narrow-host warning only.
        let (_, w) = check_scaling(&file_with(1.0, 2));
        assert!(!w.iter().any(|m| m.contains("UNVERIFIED")), "{w:?}");
    }

    #[test]
    fn compare_pins_determinism_not_speed() {
        let base = file_with(2.0, 8);
        let mut fresh = file_with(1.4, 8); // slower, same verdicts
        let (e, w) = compare(&fresh, &base, Some(0.2));
        assert!(e.is_empty(), "{e:?}");
        assert!(!w.is_empty(), "speed drift should warn");
        fresh.runs[0].races = 3;
        let (e, _) = compare(&fresh, &base, None);
        assert!(e.iter().any(|m| m.contains("races=3")), "{e:?}");
    }
}
