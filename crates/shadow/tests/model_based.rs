//! Model-based property tests: the shadow structures against trivially
//! correct reference implementations.

use std::collections::HashMap;

use dgrace_shadow::{PagedShadow, ShadowStore, ShadowTable};
use dgrace_trace::Addr;
use proptest::prelude::*;

/// Operations on the shadow table. Addresses are drawn from a small pool
/// with mixed alignment so the word-mode → byte-mode expansion, chunk
/// reuse and removal paths all fire.
#[derive(Clone, Debug)]
enum TableOp {
    Insert(u16, u32),
    Remove(u16),
    RemoveRange(u16, u16),
    Get(u16),
    Pred(u16, u16),
    Succ(u16, u16),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u16..600, any::<u32>()).prop_map(|(a, v)| TableOp::Insert(a, v)),
        (0u16..600).prop_map(TableOp::Remove),
        (0u16..600, 1u16..96).prop_map(|(a, l)| TableOp::RemoveRange(a, l)),
        (0u16..600).prop_map(TableOp::Get),
        (0u16..600, 1u16..192).prop_map(|(a, d)| TableOp::Pred(a, d)),
        (0u16..600, 1u16..192).prop_map(|(a, d)| TableOp::Succ(a, d)),
    ]
}

/// The reference: a plain `HashMap<u64, u32>`, with the table's own
/// word-mode aliasing rule applied up front (an unaligned address only
/// exists once its chunk is in byte mode — we sidestep that by *always*
/// inserting through the table first, so the model mirrors the table's
/// accepted keys).
#[derive(Default)]
struct Model {
    map: HashMap<u64, u32>,
}

impl Model {
    fn pred(&self, a: u64, dist: u64) -> Option<u64> {
        (a.saturating_sub(dist)..a)
            .rev()
            .find(|k| self.map.contains_key(k))
    }
    fn succ(&self, a: u64, dist: u64) -> Option<u64> {
        (a + 1..=a + dist).find(|k| self.map.contains_key(k))
    }
}

/// Where the 600-address pool sits: across four 128-byte chunk seams and
/// the 4 KiB directory seam at `0x1000`.
fn at(a: u16) -> u64 {
    0xec0 + a as u64
}

/// Every store against the model, one op at a time.
fn store_matches_hashmap_model<S: ShadowStore<u32>>(ops: Vec<TableOp>) {
    let mut table = S::default();
    let mut model = Model::default();
    for op in ops {
        match op {
            TableOp::Insert(a, v) => {
                let a = at(a);
                let prev = table.insert(Addr(a), v);
                let mprev = model.map.insert(a, v);
                assert_eq!(prev, mprev, "insert at {}", a);
            }
            TableOp::Remove(a) => {
                let a = at(a);
                // The table refuses unaligned removals while the chunk
                // is in word mode; the model only contains keys the
                // table accepted, so a model hit must be removable —
                // *unless* the chunk is still word-aligned-only, in
                // which case the model cannot contain the key either.
                let got = table.remove(Addr(a));
                let mgot = model.map.remove(&a);
                assert_eq!(got, mgot, "remove at {}", a);
            }
            TableOp::RemoveRange(a, l) => {
                let (a, l) = (at(a), l as u64);
                let mut removed: Vec<(u64, u32)> = Vec::new();
                table.remove_range(Addr(a), l, |ad, v| removed.push((ad.0, v)));
                let mut expected: Vec<(u64, u32)> = model
                    .map
                    .iter()
                    .filter(|(k, _)| **k >= a && **k < a + l)
                    .map(|(k, v)| (*k, *v))
                    .collect();
                model.map.retain(|k, _| *k < a || *k >= a + l);
                removed.sort_unstable();
                expected.sort_unstable();
                assert_eq!(removed, expected, "remove_range {}..{}", a, a + l);
            }
            TableOp::Get(a) => {
                assert_eq!(table.get(Addr(at(a))), model.map.get(&at(a)));
            }
            TableOp::Pred(a, d) => {
                let got = table
                    .nearest_predecessor(Addr(at(a)), d as u64)
                    .map(|(x, _)| x.0);
                assert_eq!(got, model.pred(at(a), d as u64), "pred of {}", a);
            }
            TableOp::Succ(a, d) => {
                let got = table
                    .nearest_successor(Addr(at(a)), d as u64)
                    .map(|(x, _)| x.0);
                assert_eq!(got, model.succ(at(a), d as u64), "succ of {}", a);
            }
        }
        assert_eq!(table.len(), model.map.len());
        assert_eq!(table.is_empty(), model.map.is_empty());
        // for_each agrees with the model over the whole pool.
        let mut all: Vec<u64> = Vec::new();
        table.for_each(|a, _| all.push(a.0));
        let mut expected: Vec<u64> = model.map.keys().copied().collect();
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}

/// Operations on one lane (plane) of a two-lane store: `(lane, addr,
/// size)` inserts land at `addr` rounded down to the access size, so sizes
/// 1 and 2 make the unaligned inserts that expand a lane.
#[derive(Clone, Debug)]
enum LaneOp {
    Insert(usize, u16, u8, u32),
    Remove(usize, u16),
    RemoveRange(u16, u16),
    ForceByteMode(usize, u16),
}

fn arb_lane_op() -> impl Strategy<Value = LaneOp> {
    prop_oneof![
        (0usize..2, 0u16..600, 0u8..4, any::<u32>()).prop_map(|(l, a, s, v)| LaneOp::Insert(
            l,
            a,
            1 << s,
            v
        )),
        (0usize..2, 0u16..600).prop_map(|(l, a)| LaneOp::Remove(l, a)),
        (0u16..600, 1u16..200).prop_map(|(a, l)| LaneOp::RemoveRange(a, l)),
        (0usize..2, 0u16..600).prop_map(|(l, a)| LaneOp::ForceByteMode(l, a)),
    ]
}

/// One lane of the pair index against a one-lane store of that lane's
/// cells alone: the same cells, neighbours, count, modeled bytes and
/// byte-mode chunks.
fn lane_matches<P: ShadowStore<u32, 2>, S: ShadowStore<u32>>(
    pair: &P,
    one: &S,
    lane: usize,
    a: u64,
) {
    let mut got: Vec<(u64, u32)> = Vec::new();
    pair.lane_for_each(lane, |x, &v| got.push((x.0, v)));
    let mut want: Vec<(u64, u32)> = Vec::new();
    one.for_each(|x, &v| want.push((x.0, v)));
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "lane {lane} cells");
    assert_eq!(pair.lane_len(lane), one.len(), "lane {lane} len");
    assert_eq!(
        pair.lane_bytes(lane),
        one.index_bytes(),
        "lane {lane} index bytes"
    );
    assert_eq!(
        pair.lane_byte_mode_chunks(lane),
        one.byte_mode_chunks(),
        "lane {lane} byte-mode chunks"
    );
    for probe in [a.saturating_sub(3), a, a + 1, a + 2, a + 5] {
        let addr = Addr(probe);
        let near = pair.chunk(addr);
        let cell = near.and_then(|at| pair.cell(at, lane, addr));
        assert_eq!(cell, one.get(addr), "lane {lane} get {probe:#x}");
        for dist in [1, 3, 4, 8, 64, 130, 5000] {
            for up in [false, true] {
                let want = if up {
                    one.nearest_successor(addr, dist)
                } else {
                    one.nearest_predecessor(addr, dist)
                };
                // Through the directory, and from a resolved chunk.
                for hint in [None, near] {
                    assert_eq!(
                        pair.nearest(lane, addr, dist, up, hint),
                        want,
                        "lane {lane} nearest {probe:#x} dist {dist} up {up} hint {hint:?}"
                    );
                }
            }
        }
    }
}

/// The pair index (both planes in one entry) against two independent
/// one-lane stores, one per plane.
fn pair_matches_two_stores<P: ShadowStore<u32, 2>, S: ShadowStore<u32>>(ops: Vec<LaneOp>) {
    let mut pair = P::default();
    let mut planes = [S::default(), S::default()];
    for op in ops {
        let touched = match op {
            LaneOp::Insert(lane, a, size, v) => {
                let a = at(a) & !(size as u64 - 1);
                let chunk = pair.chunk_or_insert(Addr(a));
                let prev = pair.put(chunk, lane, Addr(a), v);
                assert_eq!(prev, planes[lane].insert(Addr(a), v), "insert at {a:#x}");
                a
            }
            LaneOp::Remove(lane, a) => {
                let a = at(a);
                assert_eq!(pair.take(lane, Addr(a)), planes[lane].remove(Addr(a)));
                a
            }
            LaneOp::RemoveRange(a, len) => {
                let (a, len) = (at(a), len as u64);
                let mut got: Vec<(u64, usize, u32)> = Vec::new();
                pair.drain(Addr(a), len, |x, lane, v| got.push((x.0, lane, v)));
                let mut want = Vec::new();
                for (lane, one) in planes.iter_mut().enumerate() {
                    one.remove_range(Addr(a), len, |x, v| want.push((x.0, lane, v)));
                }
                for lane in 0..2 {
                    let addrs = got.iter().filter(|r| r.1 == lane).map(|r| r.0);
                    let addrs: Vec<u64> = addrs.collect();
                    assert!(addrs.is_sorted(), "lane {lane} drains in ascending order");
                }
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "remove_range {a:#x}+{len}");
                a
            }
            LaneOp::ForceByteMode(lane, a) => {
                let a = at(a);
                pair.lane_force_byte_mode(lane, Addr(a));
                planes[lane].force_byte_mode(Addr(a));
                a
            }
        };
        for (lane, one) in planes.iter().enumerate() {
            lane_matches(&pair, one, lane, touched);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shadow_table_matches_hashmap_model(ops in proptest::collection::vec(arb_table_op(), 1..120)) {
        store_matches_hashmap_model::<ShadowTable<u32>>(ops);
    }

    #[test]
    fn paged_shadow_matches_hashmap_model(ops in proptest::collection::vec(arb_table_op(), 1..120)) {
        store_matches_hashmap_model::<PagedShadow<u32>>(ops);
    }

    /// Scan equivalence of the pair index: each lane of a two-lane store
    /// is exactly the one-lane store of its own cells.
    #[test]
    fn shadow_table_pair_matches_two_tables(ops in proptest::collection::vec(arb_lane_op(), 1..120)) {
        pair_matches_two_stores::<ShadowTable<u32, 2>, ShadowTable<u32>>(ops);
    }

    #[test]
    fn paged_shadow_pair_matches_two_stores(ops in proptest::collection::vec(arb_lane_op(), 1..120)) {
        pair_matches_two_stores::<PagedShadow<u32, 2>, PagedShadow<u32>>(ops);
    }
}

/// Word-mode aliasing corner: an unaligned insert into a word-mode chunk
/// expands it; lookups before the expansion must not alias to the word
/// slot.
#[test]
fn unaligned_lookup_never_aliases_word_slot() {
    let mut t: ShadowTable<u32> = ShadowTable::default();
    t.insert(Addr(0x40), 7);
    assert_eq!(t.get(Addr(0x41)), None);
    assert_eq!(t.get(Addr(0x42)), None);
    assert_eq!(t.get(Addr(0x43)), None);
    t.insert(Addr(0x41), 9);
    assert_eq!(t.get(Addr(0x40)), Some(&7));
    assert_eq!(t.get(Addr(0x41)), Some(&9));
    assert_eq!(t.get(Addr(0x42)), None);
}
