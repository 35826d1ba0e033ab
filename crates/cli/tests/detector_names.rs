//! One detector name table: what `dgrace list` prints, what `dgrace
//! help` names, what `dgrace detect` accepts and what
//! `dgrace_core::VC_DETECTORS` holds are the same set. Likewise for the
//! options of `detect`, `compare`, `serve` and `feed`: the ones `dgrace
//! help` prints are the ones their parsers accept, removed options and
//! sample strategies are refused, the memory cap is refused by the
//! detectors that have no memory to cap, and `serve` refuses a zero
//! session count or credit window before it binds its socket.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use dgrace_core::VC_DETECTORS;
use dgrace_trace::io::to_bytes;
use dgrace_trace::{AccessSize, TraceBuilder};

fn dgrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgrace"))
        .args(args)
        .output()
        .expect("run dgrace")
}

fn stdout(args: &[&str]) -> String {
    let out = dgrace(args);
    assert!(out.status.success(), "dgrace {args:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The first column of the `detectors:` section of `dgrace list`.
fn listed() -> Vec<String> {
    let list = stdout(&["list"]);
    let (_, detectors) = list
        .split_once("\ndetectors:\n")
        .expect("a detectors section");
    detectors
        .lines()
        .map(|line| line.split_whitespace().next().expect("a name").to_string())
        .collect()
}

/// The `|`-separated names under `DETECTORS:` in `dgrace help`.
fn in_usage() -> Vec<String> {
    let help = stdout(&["help"]);
    let (_, footer) = help.split_once("DETECTORS:\n").expect("a DETECTORS footer");
    footer
        .split('|')
        .map(|name| name.trim().to_string())
        .collect()
}

/// Writes a two-thread racy trace into a scratch directory of `test`'s
/// own and returns its path.
fn racy_trace(test: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace = dir.join("racy.dgrt");
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write(0u32, 0x100u64, AccessSize::U32)
        .write(1u32, 0x100u64, AccessSize::U32)
        .join(0u32, 1u32);
    std::fs::write(&trace, to_bytes(&b.build())).expect("write the trace");
    trace.to_str().expect("utf-8 path").to_string()
}

/// Every `--option` in the usage block of `dgrace <sub>` in `dgrace help`:
/// its first line up to the next subcommand's, both columns.
fn printed_options(sub: &str) -> BTreeSet<String> {
    let help = stdout(&["help"]);
    let head = format!("dgrace {sub} ");
    let mut lines = help
        .lines()
        .skip_while(|l| !l.trim_start().starts_with(&head));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("no `{head}` usage line"));
    let block = std::iter::once(first).chain(
        lines.take_while(|l| !l.trim_start().starts_with("dgrace ") && !l.trim().is_empty()),
    );
    block
        .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .map(str::to_string)
        .collect()
}

/// Every option `dgrace <sub>`'s parser accepts, as its refusal of an
/// unknown one lists them.
fn accepted_options(sub: &str) -> BTreeSet<String> {
    let out = dgrace(&[sub, "--no-such-option"]);
    assert_eq!(out.status.code(), Some(2), "`{sub} --no-such-option`");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let err = stderr.lines().next().unwrap_or_default();
    if err.contains("(this command takes none)") {
        return BTreeSet::new();
    }
    let (_, list) = err
        .split_once("(accepted: ")
        .unwrap_or_else(|| panic!("no accepted list in {err:?}"));
    let list = list.strip_suffix(')').expect("a closed list");
    list.split(", ").map(str::to_string).collect()
}

#[test]
fn help_prints_exactly_the_options_the_parsers_accept() {
    for sub in ["detect", "compare", "serve", "feed"] {
        let printed = printed_options(sub);
        let accepted = accepted_options(sub);
        assert_eq!(printed, accepted, "`dgrace help` vs the `{sub}` parser");
    }
    // The check sees options at all: `detect` has a dozen.
    assert!(printed_options("detect").contains("--memory-limit"));
    assert!(printed_options("serve").contains("--memory-limit"));
}

#[test]
fn removed_options_are_usage_errors() {
    let trace = racy_trace("removed-options");
    for args in [
        &["detect", "byte", &trace, "--shadow-budget", "64"][..],
        &["serve", "s", "--shadow-budget", "64"],
        &["detect", "byte", &trace, "--self-heal"],
    ] {
        let out = dgrace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown option"), "{args:?}: {err}");
    }
    let out = dgrace(&["detect", "dynamic", &trace, "--sample", "period:4"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "no report");
    assert!(
        err.contains("unknown strategy `period` (use full, loc:K)"),
        "{err}"
    );
}

#[test]
fn a_serial_only_detector_refuses_a_memory_limit() {
    let trace = racy_trace("refuse-memory-limit");
    for name in ["oracle", "lockset", "segment", "hybrid"] {
        let out = dgrace(&["detect", name, &trace, "--memory-limit", "64"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(out.stdout.is_empty(), "{name}: no report");
        assert!(
            err.contains(&format!(
                "detector `{name}` does not support --memory-limit (supported: byte, word, \
                 djit, dynamic, dynamic-no-init)"
            )),
            "{name}: {err}"
        );
    }
    // The family takes the same cap.
    assert!(dgrace(&["detect", "byte", &trace, "--memory-limit", "64"])
        .status
        .success());
}

#[test]
fn list_help_and_detect_agree_on_the_detector_names() {
    let trace = racy_trace("detector-names");
    let trace = trace.as_str();

    let listed = listed();
    assert_eq!(
        listed,
        in_usage(),
        "`list` and `help` name the same detectors"
    );
    for name in &listed {
        let out = dgrace(&["detect", name, trace]);
        assert!(
            out.status.success(),
            "`detect {name}` rejects a name `list` prints: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for (name, _) in VC_DETECTORS {
        assert!(listed.iter().any(|l| l == name), "`list` omits {name}");
        // The family is what shards: each member also runs on the engine.
        assert!(dgrace(&["detect", name, trace, "--shards", "2"])
            .status
            .success());
    }
    // `detect` accepts nothing `list` does not print.
    for name in ["nop", "fasttrack-byte", "recorder", ""] {
        assert!(!listed.iter().any(|l| l == name));
        let out = dgrace(&["detect", name, trace]);
        assert_eq!(out.status.code(), Some(2), "`detect {name:?}`");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown detector"));
    }
}

#[test]
fn a_pruned_report_has_one_name_on_every_path() {
    // The serial path prunes in an outermost `StaticPruneFilter`, the
    // engine ahead of its shards; both name the report `…+pruned`, so
    // the whole `--json` is the same bytes.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pruned-name");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (trace, summary) = (path("x264.dgrt"), path("x264.dgas"));
    let gen = ["gen", "x264", "--scale", "0.2", "--seed", "5", "-o", &trace];
    assert!(dgrace(&gen).status.success());
    assert!(dgrace(&["analyze", &trace, "-o", &summary])
        .status
        .success());
    let pruned = ["detect", "byte", &trace, "--prune-with", &summary, "--json"];
    let serial = stdout(&pruned);
    assert!(
        serial.contains("\"detector\": \"fasttrack-byte+pruned\""),
        "{serial}"
    );
    assert_eq!(
        stdout(&[&pruned[..], &["--shards", "1", "--pipeline"]].concat()),
        serial
    );
}

#[test]
fn serve_refuses_a_zero_count_before_binding() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-zero");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let socket = dir.join("serve.sock");
    let _ = std::fs::remove_file(&socket);
    let sock = socket.to_str().expect("utf-8 path");
    for (flag, msg) in [
        ("--max-sessions", "--max-sessions must be positive"),
        ("--credits", "--credits must be positive"),
    ] {
        let out = dgrace(&["serve", sock, flag, "0"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {err}");
        assert!(err.contains(msg), "{flag} 0: {err}");
        assert!(!socket.exists(), "{flag} 0 bound {}", socket.display());
    }
}
