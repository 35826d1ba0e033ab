//! Pins the number of directory probes the dynamic detector makes per
//! access: one, for every access whose neighbour windows stay inside its
//! chunk.
//!
//! A location's read and write slots share one index entry (Fig. 4), so an
//! access resolves its chunk once and finds both slots, its first-epoch
//! neighbours, its `L±size` neighbours and its insert and write-back slots
//! there. With one index per plane the same accesses made three probes
//! (a steady one) to five or six (a first or second-epoch one): 4.83 per
//! access on the scatter-shaped trace below and 1.84 on the stream-shaped
//! one, counted the same way in a release build, where 1.085 and 0.485
//! are left. The counting store below wraps the default store and counts
//! every call that goes to the directory.

use std::cell::Cell;
use std::fmt::Debug;

use dgrace_core::DynamicGranularityOn;
use dgrace_detectors::Detector;
use dgrace_shadow::{ChunkId, ShadowStore, ShadowTable, StoreSelect, Victims};
use dgrace_trace::{AccessSize, Addr, Event, LockId, Tid};

thread_local! {
    static PROBES: Cell<u64> = const { Cell::new(0) };
}

fn probe() {
    PROBES.with(|p| p.set(p.get() + 1));
}

/// A store that counts its directory probes: resolving a chunk, removing
/// by address, walking a range, and a neighbour scan whose window leaves
/// the chunk it was handed. Reads and writes through a resolved chunk are
/// not probes.
#[derive(Debug, Default)]
struct Counting<S>(S);

impl<T, const N: usize, S: ShadowStore<T, N>> ShadowStore<T, N> for Counting<S> {
    fn chunk(&self, addr: Addr) -> Option<ChunkId> {
        probe();
        self.0.chunk(addr)
    }

    fn chunk_or_insert(&mut self, addr: Addr) -> ChunkId {
        probe();
        self.0.chunk_or_insert(addr)
    }

    fn cell(&self, at: ChunkId, lane: usize, addr: Addr) -> Option<&T> {
        self.0.cell(at, lane, addr)
    }

    fn entry(&self, at: ChunkId, addr: Addr) -> [Option<&T>; N] {
        self.0.entry(at, addr)
    }

    fn cell_mut(&mut self, at: ChunkId, lane: usize, addr: Addr) -> Option<&mut T> {
        self.0.cell_mut(at, lane, addr)
    }

    fn put(&mut self, at: ChunkId, lane: usize, addr: Addr, value: T) -> Option<T> {
        self.0.put(at, lane, addr, value)
    }

    fn take(&mut self, lane: usize, addr: Addr) -> Option<T> {
        probe();
        self.0.take(lane, addr)
    }

    fn drain(&mut self, base: Addr, len: u64, f: impl FnMut(Addr, usize, T)) {
        probe();
        self.0.drain(base, len, f)
    }

    fn nearest(
        &self,
        lane: usize,
        addr: Addr,
        max_dist: u64,
        up: bool,
        near: Option<ChunkId>,
    ) -> Option<(Addr, &T)> {
        let (lo, hi) = if up {
            (addr.0.saturating_add(1), addr.0.saturating_add(max_dist))
        } else {
            (addr.0.saturating_sub(max_dist), addr.0.saturating_sub(1))
        };
        if !near.is_some_and(|at| at.holds(Addr(lo)) && at.holds(Addr(hi))) {
            probe();
        }
        self.0.nearest(lane, addr, max_dist, up, near)
    }

    fn lane_len(&self, lane: usize) -> usize {
        self.0.lane_len(lane)
    }

    fn lane_bytes(&self, lane: usize) -> usize {
        self.0.lane_bytes(lane)
    }

    fn lane_for_each(&self, lane: usize, f: impl FnMut(Addr, &T)) {
        self.0.lane_for_each(lane, f)
    }

    fn lane_byte_mode_chunks(&self, lane: usize) -> Vec<Addr> {
        self.0.lane_byte_mode_chunks(lane)
    }

    fn lane_force_byte_mode(&mut self, lane: usize, addr: Addr) {
        self.0.lane_force_byte_mode(lane, addr)
    }

    fn victim_region(&self, victims: &mut Victims) -> Option<(Addr, u64)> {
        self.0.victim_region(victims)
    }
}

/// The default store, counted.
#[derive(Debug, Default)]
struct CountingSelect;

impl StoreSelect for CountingSelect {
    type Store<T: Debug + Send, const N: usize> = Counting<ShadowTable<T, N>>;
}

/// splitmix64, for reproducible traces without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

fn forks(workers: u32) -> Vec<Event> {
    let fork = |child| Event::Fork {
        parent: Tid(0),
        child: Tid(child),
    };
    (1..=workers).map(fork).collect()
}

fn access(tid: u32, addr: u64, write: bool) -> Event {
    let (tid, addr, size) = (Tid(tid), Addr(addr), AccessSize::U64);
    if write {
        Event::Write { tid, addr, size }
    } else {
        Event::Read { tid, addr, size }
    }
}

fn locked(tid: u32, lock: u32, inside: impl IntoIterator<Item = Event>) -> Vec<Event> {
    let (tid, lock) = (Tid(tid), LockId(lock));
    let mut out = vec![Event::Acquire { tid, lock }];
    out.extend(inside);
    out.push(Event::Release { tid, lock });
    out
}

/// `scatter`'s shape: three workers swap random 8-byte elements of their
/// own (interleaved with the others'), and take a shared lock now and then.
fn scatter_shaped() -> Vec<Event> {
    const BASE: u64 = 0x20_0000;
    let mut rng = Rng(7);
    let mut events = forks(3);
    for round in 0..2400 {
        let w = 1 + (round % 3) as u32;
        let mut element = || BASE + (rng.below(1024) * 3 + w as u64 - 1) * 8;
        let (a, b) = (element(), element());
        events
            .extend([(a, false), (b, false), (a, true), (b, true)].map(|(x, wr)| access(w, x, wr)));
        if round % 16 == 15 {
            events.extend(locked(w, 9, [access(w, 0x1000, true)]));
        }
    }
    events
}

/// `stream`'s shape: two producers fill blocks and read them back, then
/// two consumers read each block three times, write an output block and
/// free both.
fn stream_shaped() -> Vec<Event> {
    const BLOCK: u64 = 1024;
    let block = |i: u64| 0x40_0000 + i * 0x1_0000;
    let out = |i: u64| 0x80_0000 + i * 0x1_0000;
    let sweep = |tid: u32, base: u64, len: u64, write: bool| {
        (0..len / 8).map(move |i| access(tid, base + i * 8, write))
    };
    let mut events = forks(4);
    for i in 0..16 {
        let p = 1 + (i % 2) as u32;
        events.push(Event::Alloc {
            tid: Tid(p),
            addr: Addr(block(i)),
            size: BLOCK,
        });
        events.extend(sweep(p, block(i), BLOCK, true));
        events.extend(sweep(p, block(i), BLOCK, false));
        events.extend(locked(p, 100 + i as u32, [access(p, 0x2000 + i * 8, true)]));
    }
    for i in 0..16 {
        let c = 3 + (i % 2) as u32;
        events.extend(locked(
            c,
            100 + i as u32,
            [access(c, 0x2000 + i * 8, false)],
        ));
        for _ in 0..3 {
            events.extend(sweep(c, block(i), BLOCK, false));
        }
        events.extend(sweep(c, out(i), BLOCK / 2, true));
        for (addr, size) in [(block(i), BLOCK), (out(i), BLOCK / 2)] {
            let addr = Addr(addr);
            events.push(Event::Free {
                tid: Tid(c),
                addr,
                size,
            });
        }
    }
    events
}

/// Every window the detector may consult for an 8-byte access at `addr`
/// — the first-epoch scan (8 bytes either way) and `L±8` — lies in its
/// chunk.
fn windows_inside_chunk(addr: u64) -> bool {
    let chunk = |a: u64| a >> 7;
    chunk(addr.saturating_sub(8)) == chunk(addr) && chunk(addr + 15) == chunk(addr)
}

/// Replays `events`, and returns per access its directory probes and
/// whether its windows stay inside its chunk.
fn probes_per_access(events: &[Event]) -> Vec<(u64, bool)> {
    let mut det = DynamicGranularityOn::<CountingSelect>::new();
    let mut out = Vec::new();
    for ev in events {
        let before = PROBES.with(Cell::get);
        det.on_event(ev);
        let probes = PROBES.with(Cell::get) - before;
        if let Some((addr, _, _)) = ev.access() {
            out.push((probes, windows_inside_chunk(addr.0)));
        }
    }
    det.check_invariants();
    out
}

/// `per_plane` is what one index per plane probed on the same trace.
fn check(name: &str, events: &[Event], per_plane: f64) {
    let counts = probes_per_access(events);
    let inside: Vec<u64> = counts.iter().filter(|c| c.1).map(|c| c.0).collect();
    let total: u64 = counts.iter().map(|c| c.0).sum();
    println!(
        "{name}: {} events, {} accesses ({} with windows inside their chunk), \
         {:.3} probes per access (one index per plane: {per_plane}), at most {} inside",
        events.len(),
        counts.len(),
        inside.len(),
        total as f64 / counts.len() as f64,
        inside.iter().max().copied().unwrap_or(0),
    );
    assert!(
        inside.len() * 2 > counts.len(),
        "{name}: the windows mostly stay inside"
    );
    assert!(
        inside.iter().all(|&p| p <= 1),
        "{name}: an access whose windows stay inside its chunk probed the directory twice"
    );
}

#[test]
fn a_scatter_shaped_access_probes_the_directory_once() {
    check("scatter-shaped", &scatter_shaped(), 4.83);
}

#[test]
fn a_stream_shaped_access_probes_the_directory_once() {
    check("stream-shaped", &stream_shaped(), 1.84);
}
