//! One detector name table: what `dgrace list` prints, what `dgrace
//! help` names, what `dgrace detect` accepts and what
//! `dgrace_core::VC_DETECTORS` holds are the same set.

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

#[test]
fn list_help_and_detect_agree_on_the_detector_names() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("detector-names");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace = dir.join("racy.dgrt");
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write(0u32, 0x100u64, AccessSize::U32)
        .write(1u32, 0x100u64, AccessSize::U32)
        .join(0u32, 1u32);
    std::fs::write(&trace, to_bytes(&b.build())).expect("write the trace");
    let trace = trace.to_str().expect("utf-8 path");

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
