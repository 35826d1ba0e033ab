//! Macro-benchmarks: full-trace detection throughput per detector, on a
//! locality-friendly workload (facesim), the best sharing case (pbzip2)
//! and the sharing-hostile case (canneal). These regenerate the slowdown
//! *ordering* of Tables 1 and 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgrace_baselines::{HybridDetector, SegmentDetector};
use dgrace_core::DynamicGranularity;
use dgrace_detectors::{Detector, DetectorExt, Djit, FastTrack, Granularity, NopDetector};
use dgrace_workloads::{Workload, WorkloadKind};

fn suite() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(NopDetector::default()),
        Box::new(FastTrack::with_granularity(Granularity::Byte)),
        Box::new(FastTrack::with_granularity(Granularity::Word)),
        Box::new(DynamicGranularity::new()),
        Box::new(Djit::new()),
        Box::new(SegmentDetector::new()),
        Box::new(HybridDetector::new()),
    ]
}

fn bench_full_trace(c: &mut Criterion) {
    for kind in [
        WorkloadKind::Facesim,
        WorkloadKind::Pbzip2,
        WorkloadKind::Canneal,
    ] {
        let (trace, _) = Workload::new(kind).with_scale(0.5).generate();
        let mut group = c.benchmark_group(format!("detect/{}", kind.name()));
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.sample_size(10);
        for det in suite() {
            let name = det.name();
            let mut det = det;
            group.bench_function(BenchmarkId::from_parameter(&name), |b| {
                b.iter(|| {
                    let rep = det.run(&trace);
                    std::hint::black_box(rep.races.len())
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_full_trace);
criterion_main!(benches);
