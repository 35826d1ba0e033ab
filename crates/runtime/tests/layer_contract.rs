//! The runtime's row of `crates/detectors/tests/layer_contract.rs`:
//! `PanicOnEvent` passes every `Detector` capability through. Before the
//! capabilities defaulted to the inner detector it forwarded five of
//! eight by hand, so a governed fault-injection run assessed 0 bytes.

#[path = "../../detectors/tests/probe/mod.rs"]
mod probe;

use dgrace_detectors::{Governed, GovernorSpec, ShardableDetector};
use dgrace_runtime::PanicOnEvent;
use probe::assert_reaches_the_probe;

#[test]
fn panic_on_event_reaches_the_probe() {
    assert_reaches_the_probe("PanicOnEvent", |p| PanicOnEvent::new(p, 0, 0));
    assert_reaches_the_probe("Governed<PanicOnEvent>", |p| {
        Governed::new(
            PanicOnEvent::new(p, 0, 0),
            GovernorSpec::for_limit(u64::MAX, 1),
        )
    });
    assert_reaches_the_probe("a minted shard of PanicOnEvent<Governed>", |p| {
        let spec = GovernorSpec::for_limit(u64::MAX, 1);
        PanicOnEvent::new(Governed::new(p, spec), 1, 1).new_shard()
    });
}
