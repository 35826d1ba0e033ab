//! The traced layer replay: for one workload's input, call each layer's
//! public functions from outside, one span per call, and turn the spans
//! and the in-process `Report`s into the per-layer metrics.
//!
//! The spans are recorded here, around the calls into each layer; spans
//! inside the program are a later change. End-to-end metrics are never
//! taken from this path.

use std::process::{Command, Stdio};

use crate::e2e::{run_cli, run_serve, Env, RunSample};
use crate::measure::{percentile, run_child, summarize, Spans};
use crate::pinned::{self, Report, Trace};
use crate::workloads::{Files, Reference, User, Workload, ROUND_TRIP_EVENTS};

/// The metrics of one replay pass, by name, and the checks it made.
pub struct Pass {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Pass {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    fn absorb(&mut self, run: &RunSample) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.failures.extend(run.failures.iter().cloned());
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One pass over every layer for `trace`, the input of workload `w`.
pub fn replay(
    env: &Env,
    w: &Workload,
    files: &Files,
    trace: &Trace,
    reference: &Reference,
    spans: &mut Spans,
) -> Result<Pass, String> {
    let mut p = Pass {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let races = |r: &Report| Reference::of(r, Vec::new()).races;
    let (result, _) = spans.time("replay", |sp| -> Result<(), String> {
        // trace: what `dgrace detect` pays before the first event reaches
        // a detector, and what a served batch pays on the wire.
        let input_bytes = std::fs::metadata(&files.input)
            .map_err(|e| format!("stat input: {e}"))?
            .len();
        let (trace_times, _) = sp.time("trace", |sp| {
            let (decoded, decode_s) =
                sp.time("trace.decode", |_| pinned::decode_trace_file(&files.input));
            let decoded = decoded?;
            p.check("decoded file equals the generated trace", decoded == *trace);
            drop(decoded);
            let (valid, validate_s) = sp.time("trace.validate", |_| pinned::validate_trace(trace));
            p.check("trace validates", valid.is_ok());
            let (frames, encode_s) = sp.time("trace.frame_encode", |_| {
                trace
                    .events
                    .chunks(ROUND_TRIP_EVENTS)
                    .map(pinned::frame_encode)
                    .collect::<Vec<_>>()
            });
            let (decoded, frame_decode_s) = sp.time("trace.frame_decode", |_| {
                frames
                    .iter()
                    .map(|f| pinned::frame_decode(f).map(|ev| ev.len()))
                    .sum::<Result<usize, String>>()
            });
            p.check("frames round-trip every event", decoded == Ok(trace.len()));
            p.put("trace.decode_s", decode_s);
            p.put("trace.decode_mb_per_s", input_bytes as f64 / 1e6 / decode_s);
            p.put("trace.validate_s", validate_s);
            p.put(
                "trace.bytes_per_event",
                input_bytes as f64 / trace.len() as f64,
            );
            p.put("trace.frame_encode_s", encode_s);
            p.put("trace.frame_decode_s", frame_decode_s);
            Ok::<_, String>((decode_s, validate_s, frame_decode_s))
        });
        let (decode_s, validate_s, frame_decode_s) = trace_times?;

        // vc: join and copy at this workload's clock width.
        sp.time("vc", |sp| {
            const ITERS: u64 = 1_000_000;
            let (a, b) = pinned::clock_pair(trace.thread_count());
            let (_, clone_s) = sp.time("vc.clone", |_| pinned::vc_clone(&a, ITERS));
            let (_, join_s) = sp.time("vc.join", |_| pinned::vc_join(&a, &b, ITERS));
            p.put(
                "vc.join_ns",
                (join_s - clone_s).max(0.0) * 1e9 / ITERS as f64,
            );
            p.put("vc.clone_ns", clone_s * 1e9 / ITERS as f64);
        });

        // detectors: the dispatch floor, happens-before bookkeeping alone,
        // and the paper's byte-granularity FastTrack baseline.
        let ((nop_s, byte_s, byte_peak), _) = sp.time("detectors", |sp| {
            let (nop, nop_s) = sp.time("detectors.nop", |_| pinned::run_nop(trace));
            p.check("nop sees every event", nop.stats.events == reference.events);
            let sync = pinned::sync_events(trace);
            let (handled, hb_s) = sp.time("detectors.hb_sync", |_| pinned::hb_sync(&sync));
            let (byte, byte_s) = sp.time("detectors.fasttrack_byte", |_| {
                pinned::run_fasttrack_byte(trace)
            });
            p.check(
                "fasttrack sees every event",
                byte.stats.events == reference.events,
            );
            p.put("detectors.nop_s", nop_s);
            p.put("detectors.hb_sync_s", hb_s);
            p.put("detectors.hb_sync_events", handled as f64);
            p.put("detectors.fasttrack_byte_s", byte_s);
            p.put(
                "detectors.fasttrack_same_epoch_share",
                share(byte.stats.same_epoch, byte.stats.accesses),
            );
            p.put("detectors.fasttrack_vc_allocs", byte.stats.vc_allocs as f64);
            p.put(
                "detectors.fasttrack_peak_bytes",
                byte.stats.peak_total_bytes as f64,
            );
            (nop_s, byte_s, byte.stats.peak_total_bytes)
        });

        // shadow: the address stream alone through both stores.
        sp.time("shadow", |sp| {
            let (hash, hash_s) = sp.time("shadow.hash_touch", |_| pinned::shadow_touch_hash(trace));
            let (paged, paged_s) =
                sp.time("shadow.paged_touch", |_| pinned::shadow_touch_paged(trace));
            p.check(
                "both stores hold the same locations",
                hash.peak_locations == paged.peak_locations,
            );
            p.put("shadow.hash_touch_s", hash_s);
            p.put("shadow.paged_touch_s", paged_s);
            p.put("shadow.hash_index_bytes", hash.peak_index_bytes as f64);
            p.put("shadow.paged_index_bytes", paged.peak_index_bytes as f64);
            p.put("shadow.distinct_locations", hash.peak_locations as f64);
        });

        // core: the paper's detector, serially — the engine `dgrace detect
        // dynamic` runs with default flags.
        let ((dynamic, dynamic_s), _) = sp.time("core", |sp| {
            let (dynamic, dynamic_s) = sp.time("core.dynamic", |_| pinned::run_dynamic(trace));
            let st = &dynamic.stats;
            p.check("dynamic sees every event", st.events == reference.events);
            let sharing = st.sharing.clone().unwrap_or_default();
            p.put("core.dynamic_s", dynamic_s);
            p.put("core.same_epoch_share", share(st.same_epoch, st.accesses));
            p.put(
                "core.slow_path_ns",
                (dynamic_s - nop_s).max(0.0) * 1e9 / (st.accesses - st.same_epoch).max(1) as f64,
            );
            p.put("core.vc_allocs", st.vc_allocs as f64);
            p.put("core.shares", sharing.shares as f64);
            p.put("core.splits", sharing.splits as f64);
            p.put("core.avg_share_count", sharing.avg_share_count);
            p.put("core.max_group", sharing.max_group as f64);
            p.put("core.peak_bytes", st.peak_total_bytes as f64);
            p.put("core.speedup_vs_byte", byte_s / dynamic_s);
            p.put(
                "core.mem_ratio_vs_byte",
                st.peak_total_bytes as f64 / byte_peak.max(1) as f64,
            );
            (dynamic, dynamic_s)
        });
        let serial = races(&dynamic);
        if w.user != User::Aot {
            p.check(
                "serial race set equals the reference",
                serial == reference.races,
            );
        }

        // detectors (again): merging two shard reports of this size.
        let (merged, merge_s) = sp.time("detectors.merge", |_| {
            pinned::merge_reports(vec![dynamic.clone(), dynamic.clone()])
        });
        p.check("merge keeps the race set", races(&merged) == serial);
        p.put("detectors.merge_s", merge_s);

        // runtime: the funnel, the two-shard ring pipeline, one ring, and
        // the session a server feeds.
        let ((pipeline_s, ingest_s), _) = sp.time("runtime", |sp| {
            let (funnel, funnel_s) = sp.time("runtime.funnel1", |_| pinned::funnel(trace, 1));
            p.check("funnel race set equals serial", races(&funnel) == serial);
            let (piped, pipeline_s) = sp.time("runtime.pipeline2", |_| pinned::pipeline(trace, 2));
            p.check("pipeline race set equals serial", races(&piped) == serial);
            p.check(
                "pipeline sees every event",
                piped.stats.events == reference.events,
            );

            let segments: Vec<_> = trace
                .events
                .chunks(1024)
                .take(2048)
                .map(<[_]>::to_vec)
                .collect();
            let sent = segments.len();
            let (arrived, ring_s) = sp.time("runtime.ring", |_| pinned::ring_transfer(segments));
            p.check("ring delivers every segment", arrived == sent);

            let mut session = pinned::Ingest::new();
            let (_, ingest_s) = sp.time("runtime.ingest_feed", |_| {
                for batch in trace.events.chunks(ROUND_TRIP_EVENTS) {
                    session.feed(batch);
                }
            });
            let (checkpoint, _) = sp.time("runtime.checkpoint_capture", |_| session.checkpoint());
            let (bytes, encode_s) = sp.time("runtime.checkpoint_encode", |_| checkpoint.encode());
            let (fed, _) = sp.time("runtime.ingest_finalize", |_| session.finalize());
            p.check("ingest race set equals serial", races(&fed) == serial);

            p.put("runtime.funnel1_s", funnel_s);
            p.put("runtime.funnel_overhead_s", funnel_s - dynamic_s);
            p.put("runtime.pipeline2_s", pipeline_s);
            p.put("runtime.pipeline2_speedup", dynamic_s / pipeline_s);
            p.put("runtime.ring_segments_per_s", sent as f64 / ring_s);
            p.put("runtime.ingest_feed_s", ingest_s);
            p.put("runtime.checkpoint_encode_s", encode_s);
            p.put("runtime.checkpoint_bytes", bytes.len() as f64);
            (pipeline_s, ingest_s)
        });

        // analysis: the four ahead-of-time passes and detection behind
        // their prune set.
        let ((analysis_s, pruned_s), _) = sp.time("analysis", |sp| {
            let (mut analysis, analysis_s) = sp.time("analysis.passes", |_| pinned::analyze(trace));
            let (pruned, pruned_s) = sp.time("analysis.pruned_dynamic", |_| {
                analysis.run_pruned_dynamic(trace)
            });
            if w.user == User::Aot {
                p.check(
                    "pruned race set equals the reference",
                    races(&pruned) == reference.races,
                );
            }
            let pass_s = |name: &str| {
                analysis
                    .passes
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, ns)| *ns as f64 / 1e9)
            };
            p.put("analysis.total_s", analysis_s);
            p.put("analysis.pass_classify_s", pass_s("classify"));
            p.put("analysis.pass_affinity_s", pass_s("affinity"));
            p.put("analysis.pass_lockgraph_s", pass_s("lock-graph"));
            p.put("analysis.pass_heat_s", pass_s("heat"));
            p.put("analysis.summary_bytes", analysis.summary_bytes as f64);
            p.put("analysis.pruned_share", analysis.pruned_share);
            (analysis_s, pruned_s)
        });

        // server: this input streamed to a real `dgrace serve`.
        let (serve_wall_s, _) = sp.time("server", |sp| {
            let serve_reference = Reference {
                races: serial.clone(),
                ..reference.clone()
            };
            let ((run, timings), _) = sp.time("server.serve", |_| {
                run_serve(env, files, &trace.events, &serve_reference)
            });
            p.absorb(&run);
            let mut rtt_us: Vec<f64> = timings.rtt_s.iter().map(|s| s * 1e6).collect();
            rtt_us.sort_by(f64::total_cmp);
            let max = rtt_us.last().copied().unwrap_or(0.0);
            let median = |v: &[f64]| summarize(v).map_or(0.0, |s| s.median);
            p.put("server.rtt_p50_us", median(&rtt_us));
            // Below 1000 samples (smoke sizes) no p99 has ten samples
            // beyond it; the maximum stands in.
            p.put(
                "server.rtt_p99_us",
                percentile(&rtt_us, 99.0).unwrap_or(max),
            );
            p.put("server.rtt_max_us", max);
            p.put("server.rtt_samples", rtt_us.len() as f64);
            p.put("server.connect_ms", median(&timings.connect_s) * 1e3);
            p.put("server.finish_ms", median(&timings.finish_s) * 1e3);
            p.put("server.transport_s", run.wall_s - ingest_s - frame_decode_s);
            run.wall_s
        });

        // cli: process start-up, then the user command itself, untraced,
        // against the sum of the layer times that should explain it.
        sp.time("cli", |sp| {
            let startup = |_: &mut Spans| {
                run_child(
                    Command::new(&env.dgrace)
                        .arg("list")
                        .stdout(Stdio::null())
                        .stderr(Stdio::null()),
                )
                .map_or(0.0, |u| u.wall_s)
            };
            let starts: Vec<f64> = (0..5).map(|_| sp.time("cli.startup", startup).0).collect();
            let startup_s = summarize(&starts).map_or(0.0, |s| s.median);
            let load_s = startup_s + decode_s + validate_s;
            let (wall_s, attributed_s) = match w.user {
                User::Serve => (serve_wall_s, ingest_s + frame_decode_s),
                user => {
                    let walls: Vec<f64> = (0..3)
                        .map(|_| {
                            let (run, _) =
                                sp.time("cli.user_command", |_| run_cli(env, w, files, reference));
                            p.absorb(&run);
                            run.wall_s
                        })
                        .collect();
                    let engine_s = match user {
                        User::Detect([]) => load_s + dynamic_s,
                        User::Detect(_) => load_s + pipeline_s,
                        _ => 2.0 * load_s + analysis_s + pruned_s,
                    };
                    (summarize(&walls).map_or(0.0, |s| s.median), engine_s)
                }
            };
            p.put("cli.startup_ms", startup_s * 1e3);
            p.put("cli.residual_s", wall_s - attributed_s);
            p.put("ledger.coverage", attributed_s / wall_s);
            p.put("ledger.span_overhead_ns", Spans::overhead_ns());
        });
        Ok(())
    });
    result?;
    Ok(p)
}
