//! The runtime's row of `crates/detectors/tests/layer_contract.rs`:
//! `PanicOnEvent` passes every `Detector` capability through. Before the
//! capabilities defaulted to the inner detector it forwarded five of
//! eight by hand, so a governed fault-injection run assessed 0 bytes.

#[path = "../../detectors/tests/probe/mod.rs"]
mod probe;

use dgrace_detectors::{ShardableDetector, StaticPruneFilter};
use dgrace_runtime::PanicOnEvent;
use dgrace_trace::PruneSet;
use probe::assert_reaches_the_probe;

#[test]
fn panic_on_event_reaches_the_probe() {
    assert_reaches_the_probe("PanicOnEvent", |p| PanicOnEvent::new(p, 0, 0));
    assert_reaches_the_probe("StaticPruneFilter<PanicOnEvent>", |p| {
        StaticPruneFilter::new(PanicOnEvent::new(p, 0, 0), PruneSet::empty())
    });
    assert_reaches_the_probe("a minted shard of PanicOnEvent", |p| {
        PanicOnEvent::new(p, 1, 1).new_shard()
    });
}
