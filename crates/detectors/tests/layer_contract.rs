//! Every wrapper passes every `Detector` capability through: one row per
//! layer, and per two-deep nesting, around the probe of `probe/mod.rs`.
//!
//! The capabilities default to asking `Detector::inner`, so a layer that
//! names its inner detector cannot drop one; this table is what notices a
//! layer that overrides a capability and forgets to pass it on, or a new
//! layer that forgets `inner`.

mod probe;

use dgrace_detectors::{
    Detector, FilteredDetector, Governed, GovernorSpec, SampleSpec, Sampled, ShardableDetector,
    StaticPruneFilter,
};
use dgrace_trace::PruneSet;
use probe::{assert_reaches_the_probe, Probe};

fn sampled<D: Detector>(d: D) -> Sampled<D> {
    Sampled::new(d, SampleSpec::parse("loc:4").unwrap())
}

fn governed<D: Detector>(d: D) -> Governed<D> {
    Governed::new(d, GovernorSpec::for_limit(u64::MAX, 1))
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
    assert_reaches_the_probe("FilteredDetector", FilteredDetector::new);
    assert_reaches_the_probe("Sampled", sampled);
    assert_reaches_the_probe("Governed", governed);
}

#[test]
fn nested_layers_reach_the_probe() {
    assert_reaches_the_probe("Governed<Sampled>", |p| governed(sampled(p)));
    assert_reaches_the_probe("StaticPruneFilter<Governed<Box>>", |p| {
        pruned(governed(boxed(p)))
    });
    assert_reaches_the_probe("Sampled<Box<dyn ShardableDetector>>", |p| {
        sampled(prototype(p))
    });
    assert_reaches_the_probe("Box<FilteredDetector<StaticPruneFilter>>", |p| {
        Box::new(FilteredDetector::new(pruned(p))) as Box<dyn Detector>
    });
    assert_reaches_the_probe("a minted shard of Governed<Sampled<prototype>>", |p| {
        governed(sampled(prototype(p))).new_shard()
    });
}
