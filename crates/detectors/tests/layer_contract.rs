//! Every wrapper passes every `Detector` capability through: one row per
//! layer, and per two-deep nesting, around the probe of `probe/mod.rs`.
//!
//! The capabilities default to asking `Detector::inner`, so a layer that
//! names its inner detector cannot drop one; this table is what notices a
//! layer that overrides a capability and forgets to pass it on, or a new
//! layer that forgets `inner`.

mod probe;

use dgrace_detectors::{Detector, SampleSpec, Sampled, ShardableDetector, StaticPruneFilter};
use dgrace_trace::PruneSet;
use probe::{assert_reaches_the_probe, Probe};

fn sampled<D: Detector>(d: D) -> Sampled<D> {
    Sampled::new(d, SampleSpec::parse("loc:4").unwrap())
}

fn pruned<D: Detector>(d: D) -> StaticPruneFilter<D> {
    StaticPruneFilter::new(d, PruneSet::empty())
}

fn boxed(p: Probe) -> Box<dyn Detector> {
    Box::new(p)
}

fn prototype(p: Probe) -> Box<dyn ShardableDetector + Send> {
    Box::new(p)
}

#[test]
fn every_layer_reaches_the_probe() {
    assert_reaches_the_probe("Box<dyn Detector>", boxed);
    assert_reaches_the_probe("Box<dyn ShardableDetector + Send>", prototype);
    assert_reaches_the_probe("StaticPruneFilter", pruned);
    assert_reaches_the_probe("Sampled", sampled);
}

#[test]
fn nested_layers_reach_the_probe() {
    assert_reaches_the_probe("Sampled<StaticPruneFilter>", |p| sampled(pruned(p)));
    assert_reaches_the_probe("StaticPruneFilter<Box>", |p| pruned(boxed(p)));
    assert_reaches_the_probe("Sampled<Box<dyn ShardableDetector>>", |p| {
        sampled(prototype(p))
    });
    assert_reaches_the_probe("Box<StaticPruneFilter<Sampled>>", |p| {
        Box::new(pruned(sampled(p))) as Box<dyn Detector>
    });
    assert_reaches_the_probe("a minted shard of Sampled<prototype>", |p| {
        sampled(prototype(p)).new_shard()
    });
}
