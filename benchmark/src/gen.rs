//! Benchmark-owned trace generators: `scatter` and `sync`.
//!
//! The library's generators top out at 8 threads and 32 KiB working
//! sets, so neither the cost of a shadow working set past the CPU caches
//! nor the O(threads) vector-clock work shows on them. These two build
//! raw [`Event`]s with their own SplitMix64, so the seed is the only
//! input and a library change to `rand` or `Scheduler` cannot move them.

use crate::pinned::{AccessSize, Addr, Event, LockId, Tid};

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, one multiply-xor
/// chain per draw.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`. The modulo bias is below 2^-40 for every `n`
    /// used here and is the same on every run.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A generated trace with the addresses of its planted races.
pub struct Generated {
    pub events: Vec<Event>,
    pub planted: Vec<u64>,
}

/// Where both generators plant their unsynchronised write pair: a word
/// far from every other address, written once each by workers 1 and 2.
pub const RACY: u64 = 0x7_0000;

fn plant(worker: u32, block: u64, out: &mut Vec<Event>) {
    if block == 0 && worker <= 2 {
        out.push(Event::Write {
            tid: Tid(worker),
            addr: Addr(RACY),
            size: AccessSize::U32,
        });
    }
}

/// Forks `workers` threads from thread 0, drains `blocks` blocks per
/// worker in seeded random order (a thread runs one to four blocks in a
/// row, a cheap model of scheduling quanta), then joins them. A block
/// stays contiguous, so anything `emit` brackets with acquire/release is
/// a valid pthreads schedule under any interleaving.
///
/// Workers 1 and 2 run their first block before the drain starts: that
/// is where the racing pair is planted, and a detector's modeled memory
/// peaks while a thread has touched both the racy word and its regular
/// data in one epoch. Scheduled at random, that moment lands on a more or
/// less populated shadow and `shadow_peak_bytes` moves by 5 % with the
/// seed on the 64-location `sync` trace; up front it is always the same.
fn interleave(
    rng: &mut SplitMix64,
    workers: u32,
    blocks: u64,
    mut emit: impl FnMut(u32, u64, &mut Vec<Event>),
) -> Vec<Event> {
    let main = Tid(0);
    let mut events = Vec::new();
    for w in 1..=workers {
        events.push(Event::Fork {
            parent: main,
            child: Tid(w),
        });
    }
    let mut done = vec![0u64; workers as usize];
    for w in 1..=workers.min(2) {
        emit(w, 0, &mut events);
        done[w as usize - 1] = 1;
    }
    let mut live: Vec<u32> = (1..=workers).collect();
    while !live.is_empty() {
        let slot = rng.below(live.len() as u64) as usize;
        let w = live[slot];
        let next = &mut done[w as usize - 1];
        for _ in 0..1 + rng.below(4) {
            if *next == blocks {
                break;
            }
            emit(w, *next, &mut events);
            *next += 1;
        }
        if *next == blocks {
            live.swap_remove(slot);
        }
    }
    for w in 1..=workers {
        events.push(Event::Join {
            parent: main,
            child: Tid(w),
        });
    }
    events
}

/// Shape of the `scatter` trace.
#[derive(Clone, Copy, Debug)]
pub struct ScatterSpec {
    /// 8-byte elements in the netlist.
    pub elements: u64,
    pub workers: u32,
    /// Swaps per worker; a multiple of [`SWAPS_PER_BLOCK`].
    pub swaps: u64,
}

/// Swaps a worker performs before the scheduler may switch threads.
pub const SWAPS_PER_BLOCK: u64 = 16;
/// Blocks between a worker's locked temperature updates (2048 swaps).
const BLOCKS_PER_UPDATE: u64 = 128;

/// canneal-shaped: each worker swaps random pairs of the 8-byte netlist
/// elements it owns (index ≡ worker mod `workers`: scattered but
/// disjoint, so race-free without locks and hopeless for clock sharing),
/// with a locked temperature update every 2048 swaps.
pub fn scatter(spec: ScatterSpec, seed: u64) -> Generated {
    const NETLIST: u64 = 0x2000_0000;
    const TEMPERATURE: u64 = 0x7_1000;
    const TEMPERATURE_LOCK: u32 = 500;
    assert!(
        spec.swaps.is_multiple_of(SWAPS_PER_BLOCK),
        "swaps must fill whole blocks"
    );
    let owned = spec.elements / spec.workers as u64;
    let mut schedule = SplitMix64::new(seed);
    let mut picks: Vec<SplitMix64> = (0..spec.workers)
        .map(|w| SplitMix64::new(seed ^ (0x5ca7_7e70 + w as u64)))
        .collect();
    let events = interleave(
        &mut schedule,
        spec.workers,
        spec.swaps / SWAPS_PER_BLOCK,
        |w, block, out| {
            plant(w, block, out);
            let tid = Tid(w);
            let rng = &mut picks[w as usize - 1];
            for _ in 0..SWAPS_PER_BLOCK {
                let mut element = || {
                    let index = rng.below(owned) * spec.workers as u64 + (w as u64 - 1);
                    Addr(NETLIST + index * 8)
                };
                let (a, b) = (element(), element());
                let size = AccessSize::U64;
                out.push(Event::Read { tid, addr: a, size });
                out.push(Event::Read { tid, addr: b, size });
                out.push(Event::Write { tid, addr: a, size });
                out.push(Event::Write { tid, addr: b, size });
            }
            if block % BLOCKS_PER_UPDATE == BLOCKS_PER_UPDATE - 1 {
                let (lock, addr, size) =
                    (LockId(TEMPERATURE_LOCK), Addr(TEMPERATURE), AccessSize::U64);
                out.push(Event::Acquire { tid, lock });
                out.push(Event::Read { tid, addr, size });
                out.push(Event::Write { tid, addr, size });
                out.push(Event::Release { tid, lock });
            }
        },
    );
    Generated {
        events,
        planted: vec![RACY],
    }
}

/// Shape of the `sync` trace.
#[derive(Clone, Copy, Debug)]
pub struct SyncSpec {
    pub workers: u32,
    /// Locks, each guarding one 64-byte cache line.
    pub locks: u32,
    /// `acquire/read/write/release` iterations per worker.
    pub iterations: u64,
}

/// Lock-heavy: every worker repeatedly takes a random lock and reads and
/// writes the one cache line it guards. Half of all events are
/// synchronisation, every clock is `workers + 1` wide, and the shadow
/// holds `locks` locations.
pub fn sync(spec: SyncSpec, seed: u64) -> Generated {
    const LINES: u64 = 0x3000_0000;
    let mut schedule = SplitMix64::new(seed);
    let mut picks = SplitMix64::new(seed ^ 0x10c4_5eed);
    let events = interleave(
        &mut schedule,
        spec.workers,
        spec.iterations,
        |w, block, out| {
            plant(w, block, out);
            let tid = Tid(w);
            let line = picks.below(spec.locks as u64);
            let (lock, addr, size) = (
                LockId(line as u32),
                Addr(LINES + line * 64),
                AccessSize::U64,
            );
            out.push(Event::Acquire { tid, lock });
            out.push(Event::Read { tid, addr, size });
            out.push(Event::Write { tid, addr, size });
            out.push(Event::Release { tid, lock });
        },
    );
    Generated {
        events,
        planted: vec![RACY],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinned::{validate_trace, Trace};
    use std::collections::BTreeSet;

    const SCATTER: ScatterSpec = ScatterSpec {
        elements: 1 << 18,
        workers: 3,
        swaps: 4096,
    };
    const SYNC: SyncSpec = SyncSpec {
        workers: 32,
        locks: 64,
        iterations: 500,
    };

    fn threads(events: &[Event]) -> usize {
        Trace::from_events(events.to_vec()).thread_count()
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next(), 6457827717110365317);
        assert_eq!(r.next(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        assert_eq!(scatter(SCATTER, 7).events, scatter(SCATTER, 7).events);
        assert_ne!(scatter(SCATTER, 7).events, scatter(SCATTER, 8).events);
        assert_eq!(sync(SYNC, 7).events, sync(SYNC, 7).events);
        assert_ne!(sync(SYNC, 7).events, sync(SYNC, 8).events);
    }

    #[test]
    fn traces_validate() {
        validate_trace(&Trace::from_events(scatter(SCATTER, 7).events)).unwrap();
        validate_trace(&Trace::from_events(sync(SYNC, 7).events)).unwrap();
    }

    #[test]
    fn scatter_has_the_stated_shape() {
        let g = scatter(SCATTER, 7);
        assert_eq!(threads(&g.events), 4);
        let blocks = SCATTER.swaps / SWAPS_PER_BLOCK;
        let updates = blocks / BLOCKS_PER_UPDATE;
        assert_eq!(
            g.events.len() as u64,
            3 * (SCATTER.swaps * 4 + updates * 4) + 2 + 2 * 3
        );
        // Every netlist access is an aligned 8-byte element inside the
        // 2 MiB netlist, and no element is touched by two workers.
        let mut owner = std::collections::BTreeMap::new();
        for ev in &g.events {
            if let Some((addr, size, _)) = ev.access() {
                if addr.0 >= 0x2000_0000 {
                    assert_eq!(size, AccessSize::U64);
                    assert_eq!(addr.0 % 8, 0);
                    assert!(addr.0 < 0x2000_0000 + (1 << 18) * 8);
                    assert_eq!(*owner.entry(addr.0).or_insert(ev.tid()), ev.tid());
                }
            }
        }
        // 24 576 random draws over 262 144 elements mostly miss each other.
        assert!(owner.len() > 20_000, "{} distinct elements", owner.len());
    }

    #[test]
    fn sync_has_the_stated_shape() {
        let g = sync(SYNC, 7);
        assert_eq!(threads(&g.events), 33);
        assert_eq!(g.events.len() as u64, 32 * SYNC.iterations * 4 + 2 + 2 * 32);
        let sync_events = g.events.iter().filter(|e| e.is_sync()).count();
        let share = sync_events as f64 / g.events.len() as f64;
        assert!((share - 0.5).abs() < 0.01, "sync share {share}");
        let lines: BTreeSet<u64> = g
            .events
            .iter()
            .filter_map(|e| e.access().map(|(a, _, _)| a.0))
            .filter(|&a| a != RACY)
            .collect();
        assert_eq!(lines.len(), 64);
        assert!(lines.iter().all(|a| a % 64 == 0));
    }

    #[test]
    fn planted_pair_is_two_unordered_writes() {
        for events in [scatter(SCATTER, 3).events, sync(SYNC, 3).events] {
            let writers: Vec<Tid> = events
                .iter()
                .filter(|e| matches!(e.access(), Some((Addr(RACY), _, true))))
                .map(|e| e.tid())
                .collect();
            assert_eq!(writers.len(), 2);
            assert_ne!(writers[0], writers[1]);
        }
    }
}
