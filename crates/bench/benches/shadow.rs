//! Micro-benchmarks of the substrates: shadow-table operations (Fig. 4)
//! and vector-clock algebra.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dgrace_shadow::{ShadowStore, ShadowTable};
use dgrace_trace::Addr;
use dgrace_vc::{Epoch, Tid, VectorClock};

fn bench_shadow_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow-table");
    group.throughput(Throughput::Elements(1024));

    group.bench_function("insert-word-aligned", |b| {
        b.iter(|| {
            let mut t: ShadowTable<u32> = ShadowTable::default();
            for i in 0..1024u64 {
                t.insert(Addr(i * 4), i as u32);
            }
            std::hint::black_box(t.len())
        });
    });

    group.bench_function("insert-bytes", |b| {
        b.iter(|| {
            let mut t: ShadowTable<u32> = ShadowTable::default();
            for i in 0..1024u64 {
                t.insert(Addr(i), i as u32);
            }
            std::hint::black_box(t.len())
        });
    });

    let mut t: ShadowTable<u32> = ShadowTable::default();
    for i in 0..1024u64 {
        t.insert(Addr(i * 4), i as u32);
    }
    group.bench_function("get-hit", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..1024u64 {
                sum += *t.get(Addr(i * 4)).unwrap() as u64;
            }
            std::hint::black_box(sum)
        });
    });

    group.bench_function("neighbor-scan-dense", |b| {
        b.iter(|| {
            let mut found = 0;
            for i in 1..1024u64 {
                if t.nearest_predecessor(Addr(i * 4), 128).is_some() {
                    found += 1;
                }
            }
            std::hint::black_box(found)
        });
    });
    group.finish();
}

fn bench_vc(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector-clock");
    let a: VectorClock = (0..16u32).map(|i| i * 3 + 1).collect();
    let bvc: VectorClock = (0..16u32).map(|i| i * 2 + 5).collect();
    group.bench_function("join-16", |b| {
        b.iter(|| {
            let mut x = a.clone();
            x.join(&bvc);
            std::hint::black_box(x.width())
        });
    });
    group.bench_function("leq-16", |b| {
        b.iter(|| std::hint::black_box(a.leq(&bvc)));
    });
    group.bench_function("epoch-leq", |b| {
        let e = Epoch::new(9, Tid(7));
        b.iter(|| std::hint::black_box(e.leq(&a)));
    });
    group.finish();
}

criterion_group!(benches, bench_shadow_table, bench_vc);
criterion_main!(benches);
