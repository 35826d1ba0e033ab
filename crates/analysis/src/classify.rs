//! The classifier: three proofs, one sweep.
//!
//! [`ClassifyPass`] walks the trace at most four times: `Atoms::build`
//! collects the access boundaries (1) and resolves every access's atom
//! span (2); the **fused sweep** (3) carries the state of all three
//! proofs at once and updates one small [`Cell`] per atom of each span;
//! the **second sweep** (4), again over the stored spans, does the two
//! things that need the finished verdicts — joint orderedness of adjacent
//! thread-local atoms and attribution of each access to its weakest atom.
//!
//! All three proofs over-approximate *racing*: a missing proof never
//! suppresses a prune that would have been sound, and a proof comes with
//! a happens-before argument (DESIGN.md §10) that every conflicting
//! access pair at the atom is ordered.
//!
//! **Fork/join ownership** ([`Cell::unordered`] stays clear). Per-thread
//! vector clocks are advanced by fork/join edges **only** (locks,
//! condvars and barriers are deliberately ignored: using fewer HB edges
//! can only make more access pairs look concurrent, so the verdict
//! under-approximates orderedness and stays sound). An atom is
//! thread-local when every consecutive access pair is ordered under this
//! relation — by transitivity the accesses are then totally ordered, and
//! no HB detector, which sees *at least* these edges, can report a race.
//!
//! **Read-only after single-threaded initialization**
//! ([`Cell::shared_write`] stays clear). Every **write** to the atom
//! happens while exactly one thread is live (forked and not yet joined).
//! Such a write is ordered against all other threads' accesses: threads
//! forked later inherit the writer's history through fork-edge chains,
//! and threads already joined drained theirs into a live thread through
//! join-edge chains (at the moment only one thread is live, every dead
//! thread's join chain has terminated in it). Reads are unconstrained —
//! read/read pairs never conflict. A thread forked but never joined keeps
//! the live count high forever, which only makes the verdict more
//! conservative. Liveness is tracked per thread, not as a bare counter: a
//! duplicate join of an already-dead thread must not decrement the count
//! below the number of threads actually running, or a still-live thread's
//! racing read would be hidden behind a bogus "single-threaded" window.
//!
//! **Consistently locked** ([`Cell::lockset`] stays non-empty). Strict
//! whole-trace lockset intersection: the set of locks held
//! **exclusively** at *every* access to the atom. Unlike Eraser's state
//! machine (which forgives the single-threaded init phase and is
//! therefore only a heuristic), the strict intersection supports a proof:
//! a lock in every access's held-set induces release→acquire HB edges
//! between each conflicting pair. Read-mode rwlock holds do not count —
//! two read-holders run concurrently. Each thread's held set is interned
//! to a `SetId` when it changes (acquire/release), so the per-access
//! update is `LockSets::meet` on two integers.

use dgrace_baselines::HeldLocks;
use dgrace_trace::{
    Addr, AnalysisSummary, ClassCounts, ClassifiedRange, Event, LocationClass, SummaryStats, Trace,
};
use dgrace_vc::{ClockValue, Tid, VectorClock};

use crate::atoms::Atoms;
use crate::locksets::{LockSets, SetId};
use crate::manager::AnalysisPass;

/// An atom's verdict, weakest (least prunable) first: an access spanning
/// atoms of different classes counts toward the minimum, matching whether
/// a byte-granularity detector could actually skip it. The strongest
/// proof an atom has wins, which also fixes the class an atom with
/// several proofs reports under in the stats.
type Rank = u8;
const CONTENDED: Rank = 0;
const LOCKED: Rank = 1;
const READ_ONLY: Rank = 2;
const THREAD_LOCAL: Rank = 3;
/// A gap between accesses; never inside a span.
const UNTOUCHED: Rank = 4;

/// What a sweep knows about one location: an atom in the fused sweep, a
/// run of adjacent thread-local atoms in the second.
#[derive(Clone, Copy, Default)]
struct Cell {
    /// Thread and fork/join clock of the last access. Clocks start at 1,
    /// so `clock == 0` is "never accessed" and orders before everything.
    tid: u32,
    clock: ClockValue,
    /// Intersection of the exclusive holds at every access so far.
    lockset: SetId,
    /// Some consecutive access pair is concurrent under fork/join HB.
    unordered: bool,
    /// Some write happened while more than one thread was live.
    shared_write: bool,
}

impl Cell {
    /// Records an access by `t` at its fork/join clock `now`.
    fn follow(&mut self, t: Tid, now: &VectorClock) {
        self.unordered |= now.get(Tid(self.tid)) < self.clock;
        (self.tid, self.clock) = (t.0, now.get(t));
    }

    fn rank(&self) -> Rank {
        if self.clock == 0 {
            UNTOUCHED
        } else if !self.unordered {
            THREAD_LOCAL
        } else if !self.shared_write {
            READ_ONLY
        } else if self.lockset != LockSets::EMPTY {
            LOCKED
        } else {
            CONTENDED
        }
    }
}

/// Per-thread vector clocks that only fork/join edges advance.
fn fork_join_clocks(threads: usize) -> Vec<VectorClock> {
    (0..threads)
        .map(|t| VectorClock::from_pairs([(Tid(t as u32), 1)]))
        .collect()
}

/// Applies `ev` to the fork/join clocks; only fork and join move them.
fn fork_join(clocks: &mut [VectorClock], ev: &Event) {
    match *ev {
        Event::Fork { parent, child } => {
            let pv = clocks[parent.index()].clone();
            clocks[child.index()].join(&pv);
            // The parent's later events must look concurrent with the
            // child's, so advance the parent past the snapshot.
            clocks[parent.index()].tick(parent);
        }
        Event::Join { parent, child } => {
            let cv = clocks[child.index()].clone();
            clocks[parent.index()].join(&cv);
        }
        _ => {}
    }
}

/// The fused sweep: one cell per atom, all three proofs at once.
fn sweep(trace: &Trace, atoms: &Atoms, sets: &mut LockSets) -> Vec<Cell> {
    let mut cells = vec![Cell::default(); atoms.len()];
    let mut clocks = fork_join_clocks(atoms.threads);
    let mut alive = vec![false; atoms.threads];
    if let Some(main) = alive.first_mut() {
        *main = true;
    }
    let mut live = 1u64;
    let mut held = HeldLocks::new();
    let mut held_id = vec![LockSets::EMPTY; atoms.threads];
    let mut spans = atoms.spans.iter();
    for ev in trace {
        match *ev {
            Event::Read { tid, .. } | Event::Write { tid, .. } => {
                let &(lo, hi) = spans.next().expect("one span per access");
                let now = &clocks[tid.index()];
                let shared_write = live > 1 && matches!(ev, Event::Write { .. });
                let cur = held_id[tid.index()];
                for cell in &mut cells[lo as usize..hi as usize] {
                    cell.lockset = match cell.clock {
                        0 => cur,
                        _ => sets.meet(cell.lockset, cur),
                    };
                    cell.follow(tid, now);
                    cell.shared_write |= shared_write;
                }
            }
            Event::Fork { child, .. } | Event::Join { child, .. } => {
                fork_join(&mut clocks, ev);
                let forked = matches!(ev, Event::Fork { .. });
                if alive[child.index()] != forked {
                    alive[child.index()] = forked;
                    live = if forked { live + 1 } else { live - 1 };
                }
            }
            Event::Acquire { tid, .. } | Event::Release { tid, .. } => {
                held.apply(ev);
                held_id[tid.index()] = sets.intern(held.exclusive(tid));
            }
            _ => {}
        }
    }
    cells
}

/// The classification pass: the three-proof sweep producing
/// [`ClassifiedRange`]s and [`SummaryStats`] (see the module docs).
/// Always runs first in the standard pipeline — `LockGraphPass` reads
/// its `Contended` ranges.
pub struct ClassifyPass;

impl AnalysisPass for ClassifyPass {
    fn name(&self) -> &'static str {
        "classify"
    }

    fn run(&mut self, trace: &Trace, summary: &mut AnalysisSummary) -> u64 {
        let atoms = Atoms::build(trace);
        let mut sets = LockSets::new();
        let cells = sweep(trace, &atoms, &mut sets);
        let ranks: Vec<Rank> = cells.iter().map(Cell::rank).collect();

        // Thread-local verdicts do not compose across atoms: two adjacent
        // atoms can each be internally fork/join-ordered while their
        // access sets are mutually concurrent, and a word-granularity
        // detector folding both onto one shadow cell would report a race
        // that pruning the merged range (at granule > 1) would hide. So
        // each maximal run of adjacent thread-local atoms is re-proved as
        // a single location: only *jointly* ordered runs may merge. The
        // other classes compose by construction — a read-only range's
        // writes are ordered against everything, and equal-lockset ranges
        // share a lock that orders every conflicting pair. (A run of one
        // atom has nothing to merge with and gets no run cell.)
        let mut run_of: Vec<Option<u32>> = vec![None; ranks.len()];
        let mut runs: Vec<Cell> = Vec::new();
        for i in 1..ranks.len() {
            if ranks[i] == THREAD_LOCAL && ranks[i - 1] == THREAD_LOCAL {
                if run_of[i - 1].is_none() {
                    run_of[i - 1] = Some(runs.len() as u32);
                    runs.push(Cell::default());
                }
                run_of[i] = run_of[i - 1];
            }
        }

        // Second sweep: joint orderedness per run, and each access
        // counted toward its weakest atom's class.
        let mut counts = [ClassCounts::default(); 4];
        let mut clocks = fork_join_clocks(atoms.threads);
        let mut spans = atoms.spans.iter();
        for ev in trace {
            if !ev.is_access() {
                fork_join(&mut clocks, ev);
                continue;
            }
            let &(lo, hi) = spans.next().expect("one span per access");
            let mut weakest = THREAD_LOCAL;
            for i in lo as usize..hi as usize {
                weakest = weakest.min(ranks[i]);
                if let Some(run) = run_of[i] {
                    runs[run as usize].follow(ev.tid(), &clocks[ev.tid().index()]);
                }
            }
            counts[weakest as usize].accesses += 1;
        }

        // Adjacent atoms of equal class merge into one range; equal lock
        // sets have equal ids.
        let mut ranges: Vec<ClassifiedRange> = Vec::new();
        let mut last_key = (UNTOUCHED, LockSets::EMPTY);
        for (i, bounds) in atoms.bounds.windows(2).enumerate() {
            let (rank, start, len) = (ranks[i], bounds[0], bounds[1] - bounds[0]);
            if rank == UNTOUCHED {
                continue;
            }
            counts[rank as usize].bytes += len;
            let lockset = match rank {
                LOCKED => cells[i].lockset,
                _ => LockSets::EMPTY,
            };
            let may_merge = run_of[i].is_none_or(|run| !runs[run as usize].unordered);
            match ranges.last_mut() {
                Some(r) if may_merge && r.end() == start && last_key == (rank, lockset) => {
                    r.len += len
                }
                _ => {
                    last_key = (rank, lockset);
                    ranges.push(ClassifiedRange {
                        start: Addr(start),
                        len,
                        class: match rank {
                            THREAD_LOCAL => LocationClass::ThreadLocal,
                            READ_ONLY => LocationClass::ReadOnlyAfterInit,
                            LOCKED => LocationClass::ConsistentlyLocked {
                                lockset: sets.get(lockset).to_vec(),
                            },
                            _ => LocationClass::Contended,
                        },
                    });
                }
            }
        }

        summary.trace_events = trace.len() as u64;
        summary.trace_accesses = atoms.spans.len() as u64;
        summary.stats = SummaryStats {
            contended: counts[CONTENDED as usize],
            locked: counts[LOCKED as usize],
            read_only: counts[READ_ONLY as usize],
            thread_local: counts[THREAD_LOCAL as usize],
        };
        summary.ranges = ranges;
        summary.ranges.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_trace::{AccessSize, LockId, TraceBuilder};

    #[test]
    fn interning_tables_follow_distinct_sets_not_trace_length() {
        // 10^6 accesses by two threads, all under lock 7, over 1000 words:
        // every lockset update is `meet(id, id)`.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for chunk in 0..1000u64 {
            let t = (chunk % 2) as u32;
            b.acquire(t, 7u32);
            for i in 0..1000u64 {
                b.write(t, 0x1000 + i * 4, AccessSize::U32);
            }
            b.release(t, 7u32);
        }
        b.join(0u32, 1u32);
        let trace = b.build();
        let atoms = Atoms::build(&trace);
        assert_eq!(atoms.spans.len(), 1_000_000);
        let mut sets = LockSets::new();
        let cells = sweep(&trace, &atoms, &mut sets);
        assert_eq!(sets.table_sizes(), (2, 0), "∅ and {{7}}, nothing memoised");
        assert!(cells.iter().all(|c| c.rank() == LOCKED));
        assert_eq!(sets.get(cells[0].lockset), [LockId(7)]);
    }

    #[test]
    fn distinct_pairs_are_memoised_once() {
        // One word under {1,2} then {2,3}, a hundred times over: after the
        // first round every update repeats one of three pairs.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for _ in 0..100 {
            for (t, (outer, inner)) in [(0u32, (1u32, 2u32)), (1u32, (2u32, 3u32))] {
                b.acquire(t, outer).acquire(t, inner);
                b.write(t, 0x1000u64, AccessSize::U32);
                b.release(t, inner).release(t, outer);
            }
        }
        b.join(0u32, 1u32);
        let trace = b.build();
        let atoms = Atoms::build(&trace);
        let mut sets = LockSets::new();
        let cells = sweep(&trace, &atoms, &mut sets);
        assert_eq!(sets.get(cells[0].lockset), [LockId(2)]);
        // ∅, {1}, {1,2}, {2}, {2,3}: the singletons {1} and {2} are held
        // between the nested acquires.
        let (distinct, memoised) = sets.table_sizes();
        assert_eq!(distinct, 5);
        assert_eq!(memoised, 3, "{{1,2}}∧{{2,3}}, {{2}}∧{{1,2}}, {{2}}∧{{2,3}}");
    }
}
