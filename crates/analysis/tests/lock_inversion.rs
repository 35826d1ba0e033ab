//! The standard pipeline's warning set on a classic lock-order inversion.

use dgrace_analysis::analyze;
use dgrace_trace::{AccessSize, AnalysisWarning, LockId, TraceBuilder};

/// The lock-graph pass on a classic AB-BA inversion workload produces
/// exactly the expected warning set — one cycle naming both locks,
/// nothing else — deterministically.
#[test]
fn lock_inversion_workload_yields_exact_warning_set() {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    // Thread 0 nests L1 -> L2, thread 1 nests L2 -> L1, both guarding
    // the same counter, plus innocuous consistently-ordered traffic.
    b.locked(0u32, 1u32, |b| {
        b.locked(0u32, 2u32, |b| {
            b.write(0u32, 0x100u64, AccessSize::U64);
        });
    });
    b.locked(1u32, 2u32, |b| {
        b.locked(1u32, 1u32, |b| {
            b.write(1u32, 0x100u64, AccessSize::U64);
        });
    });
    for t in [0u32, 1u32] {
        b.locked(t, 3u32, |b| {
            b.locked(t, 4u32, |b| {
                b.write(t, 0x200u64, AccessSize::U64);
            });
        });
    }
    b.join(0u32, 1u32);
    let trace = b.build();
    let first = analyze(&trace);
    let second = analyze(&trace);
    assert_eq!(first.warnings, second.warnings, "warnings must be stable");
    assert_eq!(
        first.warnings,
        vec![AnalysisWarning::LockOrderCycle {
            locks: vec![LockId(1), LockId(2)]
        }]
    );
}
