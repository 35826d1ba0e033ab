//! Table 2: memory-overhead breakdown — hash / vector-clock / bitmap
//! peak bytes per granularity. The dynamic detector keeps no same-epoch
//! bitmap, so its bitmap column is 0.

use dgrace_bench::{granularity_suite, kib, parse_args, prepare, run_timed, selected, Table};

fn main() {
    let (scale, filter) = parse_args();
    println!("Table 2 — memory overhead breakdown, KiB (scale {scale})\n");
    for (gi, label) in ["byte", "word", "dynamic"].iter().enumerate() {
        let mut table = Table::new(&["program", "hash", "vector-clock", "bitmap", "total-peak"]);
        for kind in selected(filter) {
            let p = prepare(kind, scale);
            let mut det = granularity_suite().remove(gi);
            let r = run_timed(det.as_mut(), &p.trace);
            let s = &r.report.stats;
            table.row(vec![
                kind.name().to_string(),
                kib(s.peak_hash_bytes),
                kib(s.peak_vc_bytes),
                kib(s.peak_bitmap_bytes),
                kib(s.peak_total_bytes),
            ]);
        }
        println!("[{label} granularity]");
        println!("{}", table.render());
    }
    println!("paper shape: dynamic slashes the vector-clock column (~4x vs byte);");
    println!("hash/index costs are equal for byte and dynamic; word saves some indexing.");
    println!("dynamic's bitmap column reads 0: it keeps no per-thread same-epoch bitmap");
    println!("(§IV.A) and answers a same-epoch repeat from the location's shadow entry;");
    println!("byte and word keep theirs, which remember repeats of evicted locations.");
}
