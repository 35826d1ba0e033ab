//! ffmpeg, pbzip2, hmmsearch.

use dgrace_trace::{AccessSize, Addr, Trace};
use rand::rngs::SmallRng;

use super::{plant_ww, rounds};
use crate::gen::{BlockBuilder, GroundTruth, Scheduler};

/// FFmpeg: codec threads writing byte-granularity pixel buffers.
///
/// Shapes reproduced:
/// * byte-heavy accesses (the indexing arrays expand to `m` slots);
/// * the word-granularity **false alarms** of Table 1: two threads
///   legitimately write *different* bytes of the same word without
///   synchronization — no race at byte granularity, one spurious race
///   per word once addresses are masked;
/// * the one real race the paper's tool found (two worker threads
///   updating a shared variable without protection).
pub fn ffmpeg(scale: f64, rng: &mut SmallRng) -> (Trace, GroundTruth) {
    const FRAME: u64 = 0x40_0000;
    const SLICE: u64 = 0x4000;
    const HEADER: u64 = 0x11_0000;
    const HL: u32 = 800;
    const REAL_RACE: u64 = 0x12_0000;
    const WFA: u64 = 0x12_1000; // word-false-alarm words
    let workers = 3u32;
    let rows = rounds(50, scale);

    let mut truth = GroundTruth::default();
    let mut progs: Vec<BlockBuilder> = (1..=workers).map(BlockBuilder::new).collect();

    // The real race: one shared flag written by workers 1 and 2.
    {
        let (a, b) = progs.split_at_mut(1);
        plant_ww(
            &mut a[0],
            &mut b[0],
            &[(REAL_RACE, AccessSize::U8)],
            &mut truth,
        );
    }

    // Word false alarms: distinct bytes of the same word written by
    // different unsynchronized threads — fine at byte granularity.
    {
        let (a, rest) = progs.split_at_mut(1);
        let (b, c) = rest.split_at_mut(1);
        a[0].write(WFA, AccessSize::U8).cut();
        b[0].write(WFA + 1, AccessSize::U8).cut();
        b[0].write(WFA + 16, AccessSize::U8).cut();
        c[0].write(WFA + 17, AccessSize::U8).cut();
        truth.word_false_alarms = 2;
    }

    for (w, prog) in progs.iter_mut().enumerate() {
        let slice = FRAME + w as u64 * SLICE;
        for row in 0..rows {
            let base = slice + (row as u64 % 16) * 256;
            // Pixel row: byte writes, then a filtering read-back pass.
            prog.write_block(base, 128, AccessSize::U8);
            prog.read_block(base, 128, AccessSize::U8);
            prog.cut();
            // Shared bitstream header under lock.
            prog.locked(HL, |b| {
                b.read(HEADER, AccessSize::U32)
                    .write(HEADER + 4, AccessSize::U32);
            })
            .cut();
        }
    }

    let trace = Scheduler::new().run(progs, rng);
    truth.finish();
    (trace, truth)
}

/// pbzip2: parallel block compression. Producers fill large contiguous
/// input blocks (one epoch each) and hand them to consumers through
/// per-block locks; consumers read them, emit output blocks, and free
/// everything.
///
/// This is the paper's best case for dynamic granularity: an average of
/// 33.3 locations per vector clock and a 1.6× speedup driven purely by
/// eliminated clock allocations (same-epoch fractions are equal at every
/// granularity).
pub fn pbzip2(scale: f64, rng: &mut SmallRng) -> (Trace, GroundTruth) {
    const BLOCKS: u64 = 0x80_0000;
    const BLOCK: u64 = 16 * 1024;
    const BLOCK_STRIDE: u64 = 0x10_000;
    const OUT: u64 = 0x200_0000;
    const RACY: u64 = 0x13_0000;
    let producers = 3u32;
    let consumers = 3u32;
    let per_producer = rounds(10, scale);

    let mut truth = GroundTruth::default();
    let mut prod: Vec<BlockBuilder> = (1..=producers).map(BlockBuilder::new).collect();
    let mut cons: Vec<BlockBuilder> = (producers + 1..=producers + consumers)
        .map(BlockBuilder::new)
        .collect();

    // 1 race: the producers' progress flag vs a consumer's eager read
    // loop (modeled as two unsynchronized writes).
    {
        let (a, b) = (&mut prod[0], &mut cons[0]);
        a.write(RACY, AccessSize::U32);
        b.write(RACY, AccessSize::U32);
        truth.plant(Addr(RACY));
        a.cut();
        b.cut();
    }

    let total = producers as u64 * per_producer as u64;
    // Output blocks sit at `OUT` unless the input blocks would run into
    // them (past scale 12.8), in which case they start after the last one.
    let out_base = OUT.max(BLOCKS + total * BLOCK_STRIDE);
    for (p, prog) in prod.iter_mut().enumerate() {
        for i in 0..per_producer {
            let idx = p as u64 * per_producer as u64 + i as u64;
            let blk = BLOCKS + idx * BLOCK_STRIDE;
            let lock = 900 + idx as u32;
            prog.alloc(blk, BLOCK)
                .write_block(blk, BLOCK, AccessSize::U64)
                .read_block(blk, BLOCK, AccessSize::U64) // CRC pass
                .locked(lock, |b| {
                    b.write(RACY + 0x100 + idx * 8, AccessSize::U64); // ready flag
                })
                .cut();
        }
    }

    // Consumers run in pipeline order (phase 2), partitioned by block.
    for idx in 0..total {
        let c = (idx % consumers as u64) as usize;
        let blk = BLOCKS + idx * BLOCK_STRIDE;
        let out = out_base + idx * BLOCK_STRIDE;
        let lock = 900 + idx as u32;
        let prog = &mut cons[c];
        prog.locked(lock, |b| {
            b.read(RACY + 0x100 + idx * 8, AccessSize::U64);
        })
        // Two compression passes over the block (RLE + entropy coding):
        // repeated reads in one epoch give the paper's ~97% same-epoch
        // fraction *at every granularity*.
        .read_block(blk, BLOCK, AccessSize::U64)
        .read_block(blk, BLOCK, AccessSize::U64)
        .read_block(blk, BLOCK, AccessSize::U64)
        .alloc(out, BLOCK / 2)
        .write_block(out, BLOCK / 2, AccessSize::U64)
        .free(blk, BLOCK)
        .free(out, BLOCK / 2)
        .cut();
    }

    let trace = Scheduler::new().run_phases(vec![prod, cons], rng);
    truth.finish();
    (trace, truth)
}

/// HMMER hmmsearch: two worker threads scan disjoint halves of a
/// read-only profile database and merge hits into a small shared result
/// structure under a lock — except for one hit counter, the single race
/// all three tools in the paper's case study agreed on.
pub fn hmmsearch(scale: f64, rng: &mut SmallRng) -> (Trace, GroundTruth) {
    const DB: u64 = 0x50_0000;
    const HALF: u64 = 32 * 1024;
    const RESULTS: u64 = 0x14_0000;
    const RL: u32 = 1000;
    const RACY: u64 = 0x14_2000;
    let workers = 2u32;
    let sweeps = rounds(5, scale);

    let mut truth = GroundTruth::default();
    let mut progs: Vec<BlockBuilder> = (1..=workers).map(BlockBuilder::new).collect();

    {
        let (a, b) = progs.split_at_mut(1);
        plant_ww(&mut a[0], &mut b[0], &[(RACY, AccessSize::U32)], &mut truth);
    }

    for (w, prog) in progs.iter_mut().enumerate() {
        let half = DB + w as u64 * HALF;
        for s in 0..sweeps {
            // Scan the half in 4 KiB segments; Viterbi scoring reads
            // each cell twice.
            for seg in 0..(HALF / 4096) {
                let sbase = half + seg * 4096;
                prog.read_block(sbase, 4096, AccessSize::U64);
                prog.read_block(sbase, 4096, AccessSize::U64);
                prog.cut();
            }
            // Merge hits under the results lock.
            let slot = RESULTS + ((w as u64 * sweeps as u64 + s as u64) % 16) * 8;
            prog.locked(RL, |b| {
                b.read(slot, AccessSize::U64).write(slot, AccessSize::U64);
            })
            .cut();
        }
    }

    let trace = Scheduler::new()
        .prologue(|b| {
            b.write_block(DB, workers as u64 * HALF, AccessSize::U64);
        })
        .run(progs, rng);
    truth.finish();
    (trace, truth)
}
